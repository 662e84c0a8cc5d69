//! The live workloads: `cluster-writeheavy` (threaded runtime over
//! injected fixed-delay links) and `reactor-readmostly` (event-driven
//! reactor over loopback TCP). Both are driven open loop from one thread
//! through the [`Driver`] API; the reactor adds a closed-loop saturation
//! phase for throughput.

use std::time::{Duration, Instant};

use twobit_core::TwoBitProcess;
use twobit_proto::{
    Driver, NetStats, ProcessId, RegisterId, ShardedHistory, StatsSnapshot, SystemConfig,
};
use twobit_reactor::ReactorClusterBuilder;
use twobit_runtime::ClusterBuilder;
use twobit_simnet::DelayModel;

use crate::gen::{self, Phase};
use crate::measure::{self, quantile};
use crate::probes;
use crate::script::{self, Mix, Popularity};
use crate::trace::{self, Tracer};
use crate::{set_net_layers, Report, RunConfig};

const N: usize = 5;
const T: usize = 2;
/// Injected one-way link delay of the cluster workload, in µs (Δ).
pub const DELTA_US: u64 = 200;
/// Offered rate of the cluster workload.
pub const CLUSTER_RATE: f64 = 1000.0;
/// Offered rate of the reactor's open-loop phase.
pub const REACTOR_RATE: f64 = 2000.0;
/// Operations kept outstanding in the reactor's saturation phase.
pub const REACTOR_DEPTH: usize = 32;
/// Builds (and warm-ups) timed per untraced run: the first half before
/// the measured phases (the last of those is measured), the rest after.
const SETUPS: usize = 21;
/// How long `verify_s` repeats the check of the modelled history: half
/// before the measured phases, half after.
const VERIFY_FOR: Duration = Duration::from_secs(2);
/// Script length reserved for the saturation phase, per second measured.
const SATURATION_OPS_PER_S: f64 = 40_000.0;

fn config() -> SystemConfig {
    SystemConfig::new(N, T).expect("5 > 2·2")
}

fn make(reg: RegisterId, id: ProcessId) -> TwoBitProcess<u64> {
    TwoBitProcess::new(id, config(), ProcessId::new(reg.index() % N), 0)
}

/// One live workload's shape.
struct Shape {
    name: &'static str,
    mix: Mix,
    rate: f64,
    /// Outstanding operations of the saturation phase, if any.
    depth: Option<usize>,
    /// Injected one-way delay, if any.
    delta_us: Option<u64>,
    /// Whether frames cross the byte codec.
    codec: bool,
}

/// A deployment under test: how to stop it and what it reports.
trait Deployment: Driver<Value = u64> + Sized {
    /// Stops every thread; returns the final history and statistics.
    fn stop(self) -> (ShardedHistory<u64>, NetStats);
    /// Threads the deployment runs (0 when not meaningful).
    fn threads(&self) -> usize;
}

impl Deployment for twobit_runtime::Cluster<TwoBitProcess<u64>> {
    fn stop(self) -> (ShardedHistory<u64>, NetStats) {
        let h = self.sharded_history();
        let (_, st) = self.shutdown();
        (h, st)
    }
    fn threads(&self) -> usize {
        0
    }
}

impl Deployment for twobit_reactor::ReactorNode<TwoBitProcess<u64>> {
    fn stop(self) -> (ShardedHistory<u64>, NetStats) {
        self.shutdown()
    }
    fn threads(&self) -> usize {
        self.thread_count()
    }
}

/// What one measured session produced.
struct Session {
    setups: Vec<f64>,
    open: Phase,
    closed: Option<Phase>,
    cpu: Duration,
    before: StatsSnapshot,
    after: StatsSnapshot,
    history: ShardedHistory<u64>,
    stats: NetStats,
    threads: usize,
    /// Tracer clock at the start and end of the measured phases.
    window_ns: (u64, u64),
}

impl Session {
    fn ops(&self) -> usize {
        self.open.samples.len() + self.closed.as_ref().map_or(0, |c| c.samples.len())
    }
}

/// Length of the open-loop phase of a `seconds` run.
fn open_len(shape: &Shape, seconds: f64) -> f64 {
    if shape.depth.is_some() {
        seconds / 2.0
    } else {
        seconds
    }
}

/// Operations the open-loop phase of a `seconds` run is scripted for.
fn open_ops(shape: &Shape, seconds: f64) -> usize {
    (open_len(shape, seconds) * shape.rate).ceil() as usize
}

/// Builds and warms up half of `setups` deployments (keeping the last),
/// runs the measured phases for `seconds`, stops the deployment, and
/// times the remaining set-ups.
fn session<D: Deployment>(
    build: &dyn Fn() -> D,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    setups: usize,
    tr: &mut Tracer,
) -> Session {
    let warm = script::warm_up(N, shape.mix.registers);
    let mut times = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let mut d = build();
        let ph = gen::pipelined(&mut d, &warm, &mut Tracer::off());
        times.push(t0.elapsed().as_secs_f64());
        assert_eq!(ph.failed, 0, "warm-up failed: {:?}", ph.first_error);
        d
    };
    let early = setups.div_ceil(2).max(1);
    let mut d = set_up();
    for _ in 1..early {
        let _ = D::stop(d);
        d = set_up();
    }
    let open_len = open_len(shape, seconds);
    let open_ops = open_ops(shape, seconds);
    let closed_ops = (seconds * SATURATION_OPS_PER_S) as usize;
    let all = script::script(&shape.mix, seed, open_ops + closed_ops);
    let (open_script, closed_script) = all.split_at(open_ops);
    let threads = d.threads();
    let before = d.stats().snapshot();
    let cpu0 = measure::cpu_time();
    let from = tr.clock_ns();
    let open = gen::open_loop(
        &mut d,
        open_script,
        shape.rate,
        Duration::from_secs_f64(open_len),
        tr,
    );
    let closed = shape.depth.map(|depth| {
        let length = Duration::from_secs_f64(seconds - open_len);
        gen::closed_loop(&mut d, closed_script, depth, length, tr)
    });
    let to = tr.clock_ns();
    let cpu = measure::cpu_time() - cpu0;
    let after = d.stats().snapshot();
    let (history, stats) = d.stop();
    for _ in early..setups {
        let _ = D::stop(set_up());
    }
    Session {
        setups: times,
        open,
        closed,
        cpu,
        before,
        after,
        history,
        stats,
        threads,
        window_ns: (from, to),
    }
}

/// The correctness gate for one session.
fn gate(r: &mut Report, s: &Session, name: &str) {
    crate::gate_swmr(r, &s.history);
    crate::gate_two_bits(r, &s.stats);
    crate::gate_reconciles(r, &s.stats);
    r.gate(s.stats.reconnects() == 0, || {
        format!("{} reconnects on loopback", s.stats.reconnects())
    });
    for ph in std::iter::once(&s.open).chain(&s.closed) {
        r.attempted += ph.attempted;
        r.failed += ph.failed;
        if let Some(err) = &ph.first_error {
            eprintln!("{name}: {err}");
        }
    }
}

/// Times `check_swmr_sharded` on `h` repeatedly for `span`.
fn checks(h: &ShardedHistory<u64>, span: Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut took = Vec::new();
    while start.elapsed() < span {
        let t = Instant::now();
        let _ = std::hint::black_box(twobit_lincheck::check_swmr_sharded(h));
        took.push(t.elapsed().as_secs_f64());
    }
    took
}

/// Records the end-to-end metrics of an untraced session; `verify_s` is
/// the best of the timed checks of the modelled history.
fn end_to_end(r: &mut Report, s: &Session, shape: &Shape, checks: &[f64]) {
    let ops = s.ops().max(1) as f64;
    r.set("setup_s", measure::median(&s.setups));
    // Host-time figures: the best one-second window.
    let throughput = s.closed.as_ref().unwrap_or(&s.open);
    r.set("ops_per_s", throughput.window_ops_per_s());
    r.set("read_p50_us", s.open.latency_us(true, 0.5));
    r.set("read_p90_us", s.open.latency_us(true, 0.9));
    r.set("write_p50_us", s.open.latency_us(false, 0.5));
    r.set("write_p90_us", s.open.latency_us(false, 0.9));
    crate::set_tail(r, &s.open.latencies_us(true), &s.open.latencies_us(false));
    let bytes = if shape.codec {
        s.after.wire_bytes_since(&s.before) as f64
    } else {
        // Codec off: the bytes the cost model charges (control, data and
        // frame-header bits).
        (s.after.control_bits_since(&s.before)
            + s.after.data_bits_since(&s.before)
            + s.after.frame_header_bits_since(&s.before)) as f64
            / 8.0
    };
    r.set("wire_bytes_per_op", bytes / ops);
    r.set("msgs_per_op", s.after.sent_since(&s.before) as f64 / ops);
    // CPU per op in the phase that sets `ops_per_s`.
    r.set("cpu_us_per_op", throughput.cpu_us_per_op());
    r.fact(
        "steal_pct",
        format!("{:.2}", measure::steal_pct(&s.open.marks)),
    );
    r.set("verify_s", measure::best(checks, true));
    let ok = r.attempted.saturating_sub(r.failed) as f64;
    r.set("ok_ops_pct", 100.0 * ok / r.attempted.max(1) as f64);
}

fn run_live<D: Deployment>(cfg: &RunConfig, shape: &Shape, build: &dyn Fn() -> D) -> Report {
    let mut r = Report::default();
    r.fact("offered_ops_per_s", shape.rate);
    r.fact(
        "delta_us",
        shape
            .delta_us
            .map_or("none (loopback)".into(), |d| d.to_string()),
    );
    if let Some(depth) = shape.depth {
        r.fact("saturation_outstanding", depth);
    }
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let setups = if cfg.trace { 1 } else { SETUPS };
    // Modelled latencies: the open-loop script replayed on the simulator.
    // Its history, deterministic for the seed, is also what `verify_s`
    // times the checker on: the best of the checks repeated for
    // `VERIFY_FOR`, the steadiest figure for millisecond work.
    let replayed = script::script(&shape.mix, cfg.seed, open_ops(shape, seconds));
    let modelled = crate::sim::modelled(&mut r, cfg.seed, shape.mix.registers, &replayed);
    crate::gate_swmr(&mut r, &modelled);
    let mut took = checks(&modelled, VERIFY_FOR / 2);
    let s = session(build, shape, cfg.seed, seconds, setups, &mut Tracer::off());
    took.extend(checks(&modelled, VERIFY_FOR / 2));
    gate(&mut r, &s, shape.name);
    end_to_end(&mut r, &s, shape, &took);
    if cfg.trace {
        traced(&mut r, cfg, shape, build, &s);
    }
    r
}

/// The traced session and the layer metrics.
fn traced<D: Deployment>(
    r: &mut Report,
    cfg: &RunConfig,
    shape: &Shape,
    build: &dyn Fn() -> D,
    untraced: &Session,
) {
    let mut tr = Tracer::on();
    let a0 = trace::allocs();
    trace::count_allocs(true);
    let s = session(build, shape, cfg.seed, cfg.seconds / 2.0, 1, &mut tr);
    trace::count_allocs(false);
    let ops = s.ops().max(1) as f64;
    gate(r, &s, shape.name);
    r.set("proc.allocs_per_op", (trace::allocs() - a0) as f64 / ops);
    let base = measure::us(untraced.cpu) / untraced.ops().max(1) as f64;
    r.set(
        "trace.overhead_pct",
        100.0 * (measure::us(s.cpu) / ops - base) / base,
    );
    r.set(
        "trace.unattributed_pct",
        tr.unattributed_pct(s.window_ns.0, s.window_ns.1),
    );
    let lateness: Vec<f64> = s
        .open
        .samples
        .iter()
        .map(|x| measure::us(x.lateness))
        .collect();
    r.set("gen.lateness_us_p50", quantile(&lateness, 0.5));
    r.set("gen.lateness_us_p99", quantile(&lateness, 0.99));
    let busy = s.open.pair_busy_waits + s.closed.as_ref().map_or(0, |c| c.pair_busy_waits);
    r.set("gen.pair_busy_waits", busy as f64);
    r.set("gen.samples_read", s.open.latencies_us(true).len() as f64);
    r.set("gen.samples_write", s.open.latencies_us(false).len() as f64);
    crate::driver_layers(r, &tr);
    set_net_layers(r, &s.stats, s.history.total_ops() as u64);
    let checked = tr.span("lincheck.check", 0, |_| {
        twobit_lincheck::check_swmr_sharded(&s.history).is_ok()
    });
    r.gate(checked, || "traced history failed the checker".into());
    let check_ns = tr.total_ns("lincheck.check") as f64;
    r.set("lincheck.check_ms", check_ns / 1e6);
    r.set(
        "lincheck.ns_per_op",
        check_ns / s.history.total_ops().max(1) as f64,
    );
    if let Some(delta) = shape.delta_us {
        let (read, write) = (r.get("read_p50_us"), r.get("write_p50_us"));
        let (read, write) = (read.unwrap_or(0.0), write.unwrap_or(0.0));
        let (budget_r, budget_w) = (4.0 * delta as f64, 2.0 * delta as f64);
        r.set("runtime.read_overhead_us", read - budget_r);
        r.set("runtime.write_overhead_us", write - budget_w);
        r.set("runtime.read_over_budget", read / budget_r);
        r.set("runtime.write_over_budget", write / budget_w);
    }
    if s.threads > 0 {
        r.set("reactor.threads", s.threads as f64);
        r.set("reactor.reconnects", s.stats.reconnects() as f64);
        r.set("reactor.frames_resent", s.stats.frames_resent() as f64);
        r.set(
            "reactor.resend_high_water",
            s.stats.resend_buffer_high_water() as f64,
        );
    }

    // core: the workload's mix on one register's automata.
    let mix_ops = script::script(&shape.mix, cfg.seed, 5_000);
    let one = probes::onto_one_register(&mix_ops, ProcessId::new(0));
    let procs = (0..N)
        .map(|i| make(RegisterId::ZERO, ProcessId::new(i)))
        .collect();
    let core = probes::core(procs, &one, &mut Tracer::on());
    r.set("core.on_invoke_ns", core.on_invoke_ns);
    r.set("core.on_message_ns", core.on_message_ns);
    r.set("core.msgs_per_op", core.msgs_per_op);
    if shape.codec {
        let envs: Vec<_> = core
            .captured
            .iter()
            .map(|(i, m)| twobit_proto::Envelope::new(mix_ops[*i].reg, m.clone()))
            .collect();
        let per_frame = s.stats.messages_per_frame().round().max(1.0) as usize;
        let codec = probes::codec(&envs, per_frame, 3, &mut Tracer::on());
        r.set("proto.encode_ns_per_frame", codec.encode_ns);
        r.set("proto.decode_ns_per_frame", codec.decode_ns);
    }
    tr.eprint_summary(shape.name);
}

/// The `cluster-writeheavy` run.
pub fn run_cluster(cfg: &RunConfig) -> Report {
    let shape = Shape {
        name: "cluster-writeheavy",
        mix: Mix {
            n: N,
            registers: 4,
            popularity: Popularity::Uniform,
            read_share: 0.5,
        },
        rate: CLUSTER_RATE,
        depth: None,
        delta_us: Some(DELTA_US),
        codec: false,
    };
    let seed = cfg.seed;
    run_live(cfg, &shape, &|| {
        ClusterBuilder::new(config())
            .seed(seed)
            .registers(shape.mix.registers)
            .delay(DelayModel::Fixed(DELTA_US))
            .build_sharded(0u64, make)
            .expect("default flush policy is valid")
    })
}

/// The `reactor-readmostly` run.
pub fn run_reactor(cfg: &RunConfig) -> Report {
    let shape = Shape {
        name: "reactor-readmostly",
        mix: Mix {
            n: N,
            registers: 16,
            popularity: Popularity::Uniform,
            read_share: 0.95,
        },
        rate: REACTOR_RATE,
        depth: Some(REACTOR_DEPTH),
        delta_us: None,
        codec: true,
    };
    let pool = measure::nproc();
    let mut r = run_live(cfg, &shape, &|| {
        ReactorClusterBuilder::new(config())
            .registers(shape.mix.registers)
            .pool_size(pool)
            .build_sharded(0u64, make)
            .expect("loopback reactor binds")
    });
    r.fact("reactor_pool", pool);
    r
}
