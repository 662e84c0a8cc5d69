//! `mc-mwmr`: exhaustive DPOR exploration of the two-writer MWMR scenario
//! with default options, through `twobit_check::explore`.
//!
//! The end-to-end figure is `verify_s`, the time to an exhaustive verdict.
//! A run explores exhaustively once, for the gate and the counts, and
//! then repeats the same exploration capped at its first [`PREFIX_PATHS`]
//! paths for the rest of its time. The explorer is deterministic, so every
//! prefix does the same work; `verify_s` is the best prefix's time scaled
//! by the exhaustive exploration's fired events over the prefix's. A
//! shared host swings between a fast speed and one about 1.7× slower for
//! seconds at a time: the exhaustive exploration takes seconds, so its
//! time moves with how long the host was slow, while the best of fifty
//! quarter-second prefixes meets the fast speed in nearly every run.
//!
//! The run then executes a seeded sample of random complete paths of the
//! same scenario on the explorer's engine (scheduled `SimSpace`) and
//! judges each with its checker. On this workload an operation is one
//! explored path. The explorer reports no per-path times, so the
//! `write_*_us` latencies are `verify_s` per explored path and the
//! `read_*_us` ones `verify_s` per replay (the explorer's backtracking
//! rebuild), p50 and p90 alike: rescalings of `verify_s`. The
//! `write_*_ticks` are the sampled writes' latencies in scheduled ticks
//! (one per fired event) and the `read_*_ticks` the sampled path lengths
//! in events (the scenario has no reads).

use std::time::{Duration, Instant};

use twobit_baselines::MwmrProcess;
use twobit_check::{explore, scenarios, ExploreOptions, ExploreReport, ExploreStats, Scenario};
use twobit_proto::{Driver, NetStats, Operation, ProcessId, RegisterId, SystemConfig};

use crate::measure::{self, quantile, Mark};
use crate::probes;
use crate::script::{OpSpec, Rng};
use crate::trace::{self, Tracer};
use crate::{set_net_layers, Report, RunConfig};

/// Random paths per sample slice.
const PATHS_PER_SLICE: usize = 200;
/// Sample slices per run.
const SLICES: usize = 20;
/// Set-ups timed before each prefix of an untraced run, so that the
/// set-ups are spread over the whole run rather than bunched at its start.
const SETUPS_PER_PREFIX: usize = 10;
/// Paths (explored plus pruned) of the capped exploration prefix whose
/// time a run repeats: about a quarter of a second on a 2-core virtual
/// machine, far shorter than the host's slow stretches.
const PREFIX_PATHS: u64 = 4_096;

type Mwmr = Scenario<MwmrProcess<u64>>;

/// Builds the scenario and warms its engine up: one complete path in
/// virtual-time order, so every planned operation and its messages have
/// run once.
fn setup() -> (Mwmr, f64) {
    let t0 = Instant::now();
    let scenario = scenarios::mwmr_two_writer();
    let mut space = scenario.build();
    probes::drive(&mut space, probes::virtual_time, false, &mut Tracer::off());
    let took = t0.elapsed().as_secs_f64();
    assert!(space.plan_settled(), "warm-up path did not complete");
    (scenario, took)
}

/// The sampled paths' figures.
#[derive(Default)]
struct Sample {
    exec_us: Vec<f64>,
    judge_us: Vec<f64>,
    write_ticks: Vec<f64>,
    path_events: Vec<f64>,
    ops: u64,
    msgs: u64,
    cost_bits: u64,
    delivered: u64,
    failed: u64,
    unreconciled: u64,
    last_stats: NetStats,
}

/// Executes and judges one slice of random complete paths.
fn slice(scenario: &Mwmr, rng: &mut Rng, tr: &mut Tracer) -> Sample {
    let mut s = Sample::default();
    for i in 0..PATHS_PER_SLICE {
        let t0 = Instant::now();
        let mut space = scenario.build();
        let fired = probes::drive(&mut space, probes::random(rng), true, tr);
        let exec = t0.elapsed();
        let t1 = Instant::now();
        let ok = tr.span("lincheck.check", i as u64, |_| {
            twobit_lincheck::check_sharded_modes(&space.history(), &scenario.modes).is_ok()
                && space.check_local_invariants().is_ok()
        });
        let judge = t1.elapsed();
        // Drain the network after the verdict, for the accounting gate.
        probes::drive(&mut space, probes::random(rng), false, &mut Tracer::off());
        let h = space.history();
        s.exec_us.push(measure::us(exec));
        s.judge_us.push(measure::us(judge));
        s.write_ticks
            .extend(crate::tick_latencies(&h, false, |_| true));
        s.path_events.push(fired as f64);
        s.ops += scenario.plan().len() as u64;
        let st = space.stats();
        s.msgs += st.total_sent();
        s.cost_bits += st.control_bits() + st.data_bits() + st.frame_header_bits();
        s.delivered += st.total_delivered();
        s.failed += u64::from(!ok);
        let accounted = st.total_delivered() + st.dropped_to_crashed() + st.messages_abandoned();
        s.unreconciled += u64::from(accounted != st.total_sent());
        s.last_stats = st;
    }
    s
}

/// One timed exploration: its report, wall time and thread CPU time.
struct Exploration {
    report: ExploreReport,
    wall: Duration,
    cpu: Duration,
}

/// Explores `scenario` with `options`, timing the exploration.
fn timed(scenario: &Mwmr, options: &ExploreOptions) -> Exploration {
    let (t0, cpu0) = (Instant::now(), measure::thread_cpu());
    let report = explore(scenario, options).expect("explorer runs");
    Exploration {
        report,
        wall: t0.elapsed(),
        cpu: measure::thread_cpu().saturating_sub(cpu0),
    }
}

/// One exhaustive exploration, then the capped prefix repeated until
/// `seconds` have passed (at least once), timing `setups_each` fresh
/// set-ups into `setups` before each prefix. Returns host readings around
/// each exploration (exploration `k` spans marks `k` and `k + 1`), the
/// exhaustive exploration and the prefixes.
fn explorations(
    scenario: &Mwmr,
    seconds: f64,
    setups_each: usize,
    setups: &mut Vec<f64>,
) -> (Vec<Mark>, Exploration, Vec<Exploration>) {
    let start = Instant::now();
    let mut marks = vec![Mark::now(start)];
    let exhaustive = timed(scenario, &ExploreOptions::default());
    marks.push(Mark::now(start));
    let capped = ExploreOptions {
        max_paths: PREFIX_PATHS,
        ..ExploreOptions::default()
    };
    let mut prefixes = Vec::new();
    while prefixes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        setups.extend((0..setups_each).map(|_| setup().1));
        prefixes.push(timed(scenario, &capped));
        marks.push(Mark::now(start));
    }
    (marks, exhaustive, prefixes)
}

/// Samples `count` slices of paths.
fn slices(scenario: &Mwmr, seed: u64, count: usize, tr: &mut Tracer) -> Vec<Sample> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| slice(scenario, &mut rng, tr)).collect()
}

/// Gates an exhaustive exploration and the sampled paths.
fn gate(r: &mut Report, exhaustive: &ExploreReport, slices: &[Sample]) {
    r.attempted += 1;
    let ok = exhaustive.exhausted && exhaustive.violation.is_none();
    r.failed += u64::from(!ok);
    r.gate(ok, || {
        format!(
            "exploration not exhausted cleanly: exhausted {} violation {:?}",
            exhaustive.exhausted,
            exhaustive.violation.as_ref().map(|v| &v.reason)
        )
    });
    for s in slices {
        r.attempted += PATHS_PER_SLICE as u64;
        r.failed += s.failed;
        r.gate(s.failed == 0, || {
            format!("{} sampled paths failed the checker", s.failed)
        });
        r.gate(s.unreconciled == 0, || {
            format!("{} sampled paths lost messages", s.unreconciled)
        });
    }
}

/// Gates the capped prefixes: no violation, and the same counters every
/// time.
fn gate_prefixes(r: &mut Report, prefixes: &[Exploration]) {
    let first: ExploreStats = prefixes[0].report.stats;
    for rep in prefixes.iter().map(|x| &x.report) {
        r.attempted += 1;
        r.failed += u64::from(rep.violation.is_some());
        r.gate(rep.violation.is_none(), || {
            format!(
                "prefix found a violation: {:?}",
                rep.violation.as_ref().map(|v| &v.reason)
            )
        });
        r.gate(rep.stats == first, || {
            format!("prefix not deterministic: {:?} vs {first:?}", rep.stats)
        });
    }
}

/// Measures the untraced figures; returns the exhaustive exploration's
/// wall time.
fn measure(r: &mut Report, cfg: &RunConfig, seconds: f64, setups_each: usize) -> f64 {
    let (scenario, first) = setup();
    let mut times = vec![first];
    let (marks, exhaustive, prefixes) = explorations(&scenario, seconds, setups_each, &mut times);
    let sampled = slices(&scenario, cfg.seed, SLICES, &mut Tracer::off());
    gate(r, &exhaustive.report, &sampled);
    gate_prefixes(r, &prefixes);
    let stats = exhaustive.report.stats;
    // The best prefix, scaled from its events to the exhaustive search's.
    let scale = stats.events_fired as f64 / prefixes[0].report.stats.events_fired.max(1) as f64;
    let best = |f: fn(&Exploration) -> Duration| {
        scale
            * prefixes
                .iter()
                .map(f)
                .min()
                .unwrap_or_default()
                .as_secs_f64()
    };
    let verify = best(|x| x.wall);
    let (paths, replays) = (
        stats.paths_explored.max(1) as f64,
        stats.replays.max(1) as f64,
    );
    r.set("setup_s", measure::best(&times, true));
    r.set("verify_s", verify);
    r.set("ops_per_s", paths / verify);
    r.set("cpu_us_per_op", best(|x| x.cpu) * 1e6 / paths);
    let (per_path, per_replay) = (verify * 1e6 / paths, verify * 1e6 / replays);
    r.set("write_p50_us", per_path);
    r.set("write_p90_us", per_path);
    r.set("read_p50_us", per_replay);
    r.set("read_p90_us", per_replay);
    let all = |f: &dyn Fn(&Sample) -> &Vec<f64>| -> Vec<f64> {
        sampled.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    crate::set_tail(r, &all(&|s| &s.judge_us), &all(&|s| &s.exec_us));
    let events = all(&|s| &s.path_events);
    let writes = all(&|s| &s.write_ticks);
    r.set("read_p50_ticks", quantile(&events, 0.5));
    r.set("read_p99_ticks", quantile(&events, 0.99));
    r.set("write_p50_ticks", quantile(&writes, 0.5));
    r.set("write_p99_ticks", quantile(&writes, 0.99));
    let sum = |f: &dyn Fn(&Sample) -> u64| -> f64 { sampled.iter().map(f).sum::<u64>() as f64 };
    let ops = sum(&|s| s.ops);
    r.set("msgs_per_op", sum(&|s| s.msgs) / ops);
    r.set("wire_bytes_per_op", sum(&|s| s.cost_bits) / 8.0 / ops);
    let ok = r.attempted.saturating_sub(r.failed) as f64;
    r.set("ok_ops_pct", 100.0 * ok / r.attempted.max(1) as f64);
    let wall = exhaustive.wall.as_secs_f64();
    r.fact("paths", stats.paths_explored);
    r.fact("replays", stats.replays);
    r.fact("events", stats.events_fired);
    r.fact("exhaustive_s", format!("{wall:.4}"));
    r.fact("prefix_paths", PREFIX_PATHS);
    r.fact("prefix_events", prefixes[0].report.stats.events_fired);
    r.fact("prefixes", prefixes.len());
    r.fact("sampled_paths", sampled.len() * PATHS_PER_SLICE);
    r.fact("steal_pct", format!("{:.2}", measure::steal_pct(&marks)));
    wall
}

/// The `mc-mwmr` run.
pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    r.fact("scenario", "mwmr-two-writer/n3t1, default ExploreOptions");
    if !cfg.trace {
        measure(&mut r, cfg, cfg.seconds, SETUPS_PER_PREFIX);
        return r;
    }
    let base = measure(&mut r, cfg, cfg.seconds / 2.0, 0);
    traced(&mut r, cfg, base);
    r
}

fn traced(r: &mut Report, cfg: &RunConfig, base_wall: f64) {
    let (scenario, _) = setup();
    let mut tr = Tracer::on();
    let a0 = trace::allocs();
    trace::count_allocs(true);
    let from = tr.clock_ns();
    let t0 = Instant::now();
    let report = tr
        .span("check.explore", 0, |_| {
            explore(&scenario, &ExploreOptions::default())
        })
        .expect("explorer runs");
    let wall = t0.elapsed().as_secs_f64();
    trace::count_allocs(false);
    let stats = report.stats;
    r.set(
        "proc.allocs_per_op",
        (trace::allocs() - a0) as f64 / stats.paths_explored.max(1) as f64,
    );
    let sampled = slices(&scenario, cfg.seed, 1, &mut tr);
    let to = tr.clock_ns();
    gate(r, &report, &sampled);
    let s = &sampled[0];
    r.set("trace.overhead_pct", 100.0 * (wall - base_wall) / base_wall);
    r.set("trace.unattributed_pct", tr.unattributed_pct(from, to));
    r.set("check.paths", stats.paths_explored as f64);
    r.set("check.replays", stats.replays as f64);
    r.set(
        "check.paths_per_replay",
        stats.paths_explored as f64 / stats.replays.max(1) as f64,
    );
    r.set("check.events_per_s", stats.events_fired as f64 / wall);
    r.set("check.max_depth", stats.max_depth as f64);
    let check_ns = tr.total_ns("lincheck.check") as f64;
    r.set("lincheck.check_ms", check_ns / 1e6);
    r.set("lincheck.ns_per_op", check_ns / s.ops as f64);
    set_net_layers(r, &s.last_stats, scenario.plan().len() as u64);

    // core: the scenario's writers, alternating, on n = 3 replicas.
    let cfg3 = SystemConfig::new(3, 1).expect("3 > 2·1");
    let ops: Vec<OpSpec> = (0..2_000u64)
        .map(|i| OpSpec {
            proc: ProcessId::new((i % 2) as usize),
            reg: RegisterId::ZERO,
            op: Operation::Write(i + 1),
        })
        .collect();
    let procs = (0..3)
        .map(|i| MwmrProcess::new(ProcessId::new(i), cfg3, 0u64))
        .collect();
    let core = probes::core(procs, &ops, &mut Tracer::on());
    r.set("core.on_invoke_ns", core.on_invoke_ns);
    r.set("core.on_message_ns", core.on_message_ns);
    r.set("core.msgs_per_op", core.msgs_per_op);

    // simnet: the sampled paths' fires, minus the handlers they ran.
    let fire = tr.durations("simnet.fire");
    let fire_ns: u64 = fire.iter().sum();
    r.set("simnet.fire_ns", fire_ns as f64 / fire.len().max(1) as f64);
    // The engine's whole share: firing plus computing the enabled set.
    let fire_total = fire_ns + tr.total_ns("simnet.enabled");
    let events: f64 = s.path_events.iter().sum();
    r.set("simnet.events_per_op", events / s.ops as f64);
    let inner = s.ops as f64 * core.on_invoke_ns + s.delivered as f64 * core.on_message_ns;
    r.set(
        "simnet.self_ns_per_op",
        (fire_total as f64 - inner) / s.ops as f64,
    );
    tr.eprint_summary("mc-mwmr");
}
