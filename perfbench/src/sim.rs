//! `sim-readmostly`: the deterministic sharded simulator, closed loop.
//!
//! The CPU-only path through `core`, the `proto` codec and the `simnet`
//! engine, with no threads or sockets. A run is a sequence of *epochs*:
//! each builds a fresh space from the seed, warms it up and runs the same
//! seeded script pipelined (one operation in flight per process and
//! register). Every epoch of a run is the same deterministic execution, so
//! latencies (in virtual time: one tick is one modelled microsecond, as
//! everywhere in the simulator), message and byte counts repeat exactly and
//! are checked to; only host times vary.

use std::time::{Duration, Instant};

use twobit_cache::CacheMode;
use twobit_core::TwoBitProcess;
use twobit_proto::{Driver, NetStats, ProcessId, RegisterId, ShardedHistory, SystemConfig};
use twobit_simnet::{DelayModel, SpaceBuilder};

use crate::gen::{self, Phase};
use crate::measure::{self, median, quantile};
use crate::probes;
use crate::script::{self, Mix, OpSpec, Popularity};
use crate::trace::{self, Tracer};
use crate::{set_net_layers, set_ticks, Report, RunConfig};

/// Processes and tolerated crashes.
pub const N: usize = 5;
const T: usize = 2;
/// Registers hosted.
pub const REGISTERS: usize = 64;
/// Operations in one epoch's pipelined script.
pub const OPS: usize = 20_000;
/// Link delay, in ticks.
pub const DELAY: DelayModel = DelayModel::Uniform { lo: 1, hi: 1000 };
/// Flush hold, in ticks.
const HOLD: u64 = 500;

/// The operation mix.
pub fn mix() -> Mix {
    Mix {
        n: N,
        registers: REGISTERS,
        popularity: Popularity::Zipf(1.0),
        read_share: 0.9,
    }
}

fn config() -> SystemConfig {
    SystemConfig::new(N, T).expect("5 > 2·2")
}

fn builder(seed: u64, cache: CacheMode) -> SpaceBuilder {
    SpaceBuilder::new(config())
        .seed(seed)
        .registers(REGISTERS)
        .delay(DELAY)
        .flush_hold(HOLD)
        .wire_codec(true)
        .cache_mode(cache)
}

fn make(reg: RegisterId, id: ProcessId) -> TwoBitProcess<u64> {
    TwoBitProcess::new(id, config(), ProcessId::new(reg.index() % N), 0)
}

/// Replays `script` pipelined on this workload's simulator (its link
/// delays and hold) over `registers` registers, records the replay's
/// `*_ticks` metrics — the live workloads' modelled latencies, whose tail
/// is deterministic where the live one is not — and returns its history.
pub fn modelled(
    r: &mut Report,
    seed: u64,
    registers: usize,
    script: &[OpSpec],
) -> ShardedHistory<u64> {
    let mut space = builder(seed, CacheMode::Off)
        .registers(registers)
        .build(0u64, make);
    let ph = gen::pipelined(&mut space, script, &mut Tracer::off());
    r.gate(ph.failed == 0, || {
        format!("modelled replay failed: {:?}", ph.first_error)
    });
    let history = space.history();
    set_ticks(r, &history, |_| true);
    history
}

/// The two scripts of an epoch: warm-up and the measured one. Value
/// ranges are disjoint so every written value is unique.
pub fn scripts(seed: u64) -> [Vec<OpSpec>; 2] {
    [
        script::warm_up(N, REGISTERS),
        script::script(&mix(), seed, OPS),
    ]
}

/// The deterministic figures of one epoch, compared across epochs.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    /// Messages sent per pipelined operation.
    pub msgs_per_op: f64,
    /// Codec bytes per pipelined operation.
    pub wire_bytes_per_op: f64,
    /// Read latency p50, p90, p99 and p99.9, in ticks.
    pub read: [f64; 4],
    /// Write latency p50, p90 and p99, in ticks.
    pub write: [f64; 3],
    /// Reads and writes measured.
    pub samples: [usize; 2],
}

/// One epoch's results.
#[derive(Debug)]
pub struct Epoch {
    /// Build plus warm-up.
    pub setup: Duration,
    /// The pipelined phase.
    pub pipelined: Phase,
    /// Deterministic figures of the pipelined phase.
    pub counts: Counts,
    /// The epoch's full history.
    pub history: ShardedHistory<u64>,
    /// Whether the network went quiet after the last operation.
    pub quiesced: bool,
    /// Statistics after the network went quiet.
    pub stats: NetStats,
}

/// Builds, warms up and runs one epoch.
pub fn epoch(seed: u64, cache: CacheMode, scripts: &[Vec<OpSpec>; 2], tr: &mut Tracer) -> Epoch {
    let t0 = Instant::now();
    let mut space = builder(seed, cache).build(0u64, make);
    gen::pipelined(&mut space, &scripts[0], &mut Tracer::off());
    let setup = t0.elapsed();
    let first_id = scripts[0].len() as u64;
    let last_id = first_id + scripts[1].len() as u64;
    let before = space.stats().snapshot();
    let pipelined = gen::pipelined(&mut space, &scripts[1], tr);
    let after = space.stats().snapshot();
    // Quiesce so the accounting gate sees every frame land.
    let quiet = space.run_to_quiescence();
    let history = space.history();
    let ops = scripts[1].len() as f64;
    let in_phase = |id: u64| (first_id..last_id).contains(&id);
    let reads = crate::tick_latencies(&history, true, in_phase);
    let writes = crate::tick_latencies(&history, false, in_phase);
    let counts = Counts {
        msgs_per_op: after.sent_since(&before) as f64 / ops,
        wire_bytes_per_op: after.wire_bytes_since(&before) as f64 / ops,
        read: [0.5, 0.9, 0.99, 0.999].map(|q| quantile(&reads, q)),
        write: [0.5, 0.9, 0.99].map(|q| quantile(&writes, q)),
        samples: [reads.len(), writes.len()],
    };
    let stats = space.stats();
    Epoch {
        quiesced: quiet.is_ok(),
        setup,
        pipelined,
        counts,
        history,
        stats,
    }
}

/// Gates one epoch: atomicity, two control bits, accounting, and the
/// same deterministic figures as the run's first epoch. Returns the
/// checker's wall time.
fn gate(r: &mut Report, e: &Epoch, first: &Counts) -> Duration {
    let took = crate::gate_swmr(r, &e.history);
    crate::gate_two_bits(r, &e.stats);
    r.gate(e.quiesced, || "the network did not go quiet".into());
    crate::gate_reconciles(r, &e.stats);
    r.gate(e.counts == *first, || {
        format!("epoch not deterministic: {:?} vs {first:?}", e.counts)
    });
    took
}

fn account(r: &mut Report, e: &Epoch) {
    r.attempted += e.pipelined.attempted;
    r.failed += e.pipelined.failed;
    if let Some(err) = &e.pipelined.first_error {
        eprintln!("sim-readmostly: {err}");
    }
}

/// Runs epochs until `seconds` have passed (at least one), records the
/// end-to-end metrics and returns the median pipelined wall time. Each
/// host-time figure is the best epoch's ([`measure::best`]).
pub fn measure(r: &mut Report, seed: u64, cache: CacheMode, seconds: f64) -> f64 {
    /// What one epoch contributes to the host-time figures.
    struct Timed {
        setup: f64,
        rate: f64,
        wall: f64,
        verify: f64,
        cpu_per_op: f64,
    }
    let scripts = scripts(seed);
    let start = Instant::now();
    let mut marks = vec![measure::Mark::now(start)];
    let mut first: Option<Counts> = None;
    let mut timed = vec![];
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = measure::thread_cpu();
        let e = epoch(seed, cache, &scripts, &mut Tracer::off());
        let cpu = measure::thread_cpu().saturating_sub(cpu0);
        let first = first.get_or_insert_with(|| e.counts.clone());
        let verify = gate(r, &e, first).as_secs_f64();
        account(r, &e);
        timed.push(Timed {
            setup: e.setup.as_secs_f64(),
            rate: e.pipelined.ops_per_s(),
            wall: e.pipelined.wall.as_secs_f64(),
            verify,
            cpu_per_op: measure::us(cpu) / e.pipelined.samples.len().max(1) as f64,
        });
        marks.push(measure::Mark::now(start));
    }
    let of = |f: &dyn Fn(&Timed) -> f64| timed.iter().map(f).collect::<Vec<_>>();
    let c = first.expect("at least one epoch");
    r.set("setup_s", measure::best(&of(&|t| t.setup), true));
    r.set("ops_per_s", measure::best(&of(&|t| t.rate), false));
    r.set("cpu_us_per_op", measure::best(&of(&|t| t.cpu_per_op), true));
    r.set("verify_s", measure::best(&of(&|t| t.verify), true));
    // Latencies in modelled microseconds (one tick each).
    let [r50, r90, r99, r999] = c.read;
    let [w50, w90, w99] = c.write;
    for (name, v) in [
        ("read_p50_us", r50),
        ("read_p90_us", r90),
        ("write_p50_us", w50),
        ("write_p90_us", w90),
        ("read_p50_ticks", r50),
        ("read_p99_ticks", r99),
        ("write_p50_ticks", w50),
        ("write_p99_ticks", w99),
        ("tail.read_p99_us", r99),
        ("tail.read_p999_us", r999),
        ("tail.write_p99_us", w99),
        ("tail.read_samples", c.samples[0] as f64),
        ("tail.write_samples", c.samples[1] as f64),
    ] {
        r.set(name, v);
    }
    r.set("msgs_per_op", c.msgs_per_op);
    r.set("wire_bytes_per_op", c.wire_bytes_per_op);
    r.fact("epochs", timed.len());
    r.fact("steal_pct", format!("{:.2}", measure::steal_pct(&marks)));
    median(&of(&|t| t.wall))
}

fn ok_pct(r: &mut Report) {
    let ok = r.attempted.saturating_sub(r.failed) as f64;
    r.set("ok_ops_pct", 100.0 * ok / r.attempted.max(1) as f64);
}

/// The `sim-readmostly` run. `cache` is [`CacheMode::Off`] for the
/// benchmark; the negative control passes the unsound ablation.
pub fn run(cfg: &RunConfig, cache: CacheMode) -> Report {
    let mut r = Report::default();
    r.fact("delay_ticks", "uniform 1..=1000");
    r.fact("hold_ticks", HOLD);
    r.fact("offered", "closed loop, one op per (process, register)");
    if !cfg.trace {
        measure(&mut r, cfg.seed, cache, cfg.seconds);
        ok_pct(&mut r);
        return r;
    }
    let base_wall = measure(&mut r, cfg.seed, cache, cfg.seconds / 2.0);
    traced(&mut r, cfg.seed, cache, base_wall);
    ok_pct(&mut r);
    r
}

/// The traced epoch and the layer probes.
fn traced(r: &mut Report, seed: u64, cache: CacheMode, base_wall: f64) {
    let scripts = scripts(seed);
    let mut tr = Tracer::on();
    let a0 = trace::allocs();
    trace::count_allocs(true);
    let from = tr.clock_ns();
    let e = epoch(seed, cache, &scripts, &mut tr);
    let to = tr.clock_ns();
    trace::count_allocs(false);
    let ops = e.pipelined.samples.len().max(1) as f64;
    r.set("proc.allocs_per_op", (trace::allocs() - a0) as f64 / ops);
    r.set(
        "trace.overhead_pct",
        100.0 * (e.pipelined.wall.as_secs_f64() - base_wall) / base_wall,
    );
    r.set("trace.unattributed_pct", tr.unattributed_pct(from, to));
    crate::driver_layers(r, &tr);
    let first = e.counts.clone();
    gate(r, &e, &first);
    account(r, &e);
    let checked = tr.span("lincheck.check", 0, |_| {
        twobit_lincheck::check_swmr_sharded(&e.history).is_ok()
    });
    r.gate(checked, || "traced history failed the checker".into());
    let check_ns = tr.total_ns("lincheck.check") as f64;
    r.set("lincheck.check_ms", check_ns / 1e6);
    r.set(
        "lincheck.ns_per_op",
        check_ns / e.history.total_ops().max(1) as f64,
    );
    let all_ops = (e.history.total_ops() as u64).max(1);
    set_net_layers(r, &e.stats, all_ops);

    // core: the workload's mix on one register's automata.
    let one = probes::onto_one_register(&scripts[1][..5_000], ProcessId::new(0));
    let procs = (0..N)
        .map(|i| make(RegisterId::ZERO, ProcessId::new(i)))
        .collect();
    let core = probes::core(procs, &one, &mut Tracer::on());
    r.set("core.on_invoke_ns", core.on_invoke_ns);
    r.set("core.on_message_ns", core.on_message_ns);
    r.set("core.msgs_per_op", core.msgs_per_op);

    // proto: the captured messages, tagged with their script registers,
    // framed as densely as the epoch framed them.
    let envs: Vec<_> = core
        .captured
        .iter()
        .map(|(i, m)| twobit_proto::Envelope::new(scripts[1][*i].reg, m.clone()))
        .collect();
    let per_frame = e.stats.messages_per_frame().round().max(1.0) as usize;
    let codec = probes::codec(&envs, per_frame, 3, &mut Tracer::on());
    r.set("proto.encode_ns_per_frame", codec.encode_ns);
    r.set("proto.decode_ns_per_frame", codec.decode_ns);

    // simnet: scheduled mode in virtual-time order, 40 operations a space
    // (plan bookkeeping grows with the plan), minus core and codec time.
    let mut st = Tracer::on();
    let (mut planned, mut events, mut delivered, mut frames) = (0u64, 0u64, 0u64, 0u64);
    for chunk in scripts[1][..2_000].chunks(40) {
        let space = builder(seed, cache).scheduled(true).build(0u64, make);
        let (space, _) = probes::scheduled_run(space, chunk, &mut st);
        planned += chunk.len() as u64;
        events += space.events();
        delivered += space.stats().total_delivered();
        frames += space.stats().frames_sent();
    }
    let fire = st.durations("simnet.fire");
    let fire_ns: u64 = fire.iter().sum();
    r.set("simnet.fire_ns", fire_ns as f64 / fire.len().max(1) as f64);
    // The engine's whole share: firing plus computing the enabled set.
    let fire_total = fire_ns + st.total_ns("simnet.enabled");
    r.set("simnet.events_per_op", events as f64 / planned as f64);
    let inner = planned as f64 * core.on_invoke_ns
        + delivered as f64 * core.on_message_ns
        + frames as f64 * (codec.encode_ns + codec.decode_ns);
    r.set(
        "simnet.self_ns_per_op",
        (fire_total as f64 - inner) / planned as f64,
    );
    tr.eprint_summary("sim-readmostly");
}
