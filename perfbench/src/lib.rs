//! The repository benchmark: four workloads driven through the public
//! `Driver` API and the model checker, each run checked for correctness.
//!
//! An untraced run prints the end-to-end metrics ([`END_TO_END`]); a
//! traced run (`--trace 1`) prints the per-layer metrics ([`PER_LAYER`]),
//! derived from spans the benchmark records around its calls into each
//! layer. See `NOTES.md` beside this crate for why each workload exists
//! and which end-to-end metric each layer metric should move.

pub mod gen;
pub mod live;
pub mod mc;
pub mod measure;
pub mod probes;
pub mod script;
pub mod sim;
pub mod trace;

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("read_p50_ticks", "ticks"),
    ("read_p99_ticks", "ticks"),
    ("write_p50_ticks", "ticks"),
    ("write_p99_ticks", "ticks"),
    ("wire_bytes_per_op", "B/op"),
    ("msgs_per_op", "msgs/op"),
    ("cpu_us_per_op", "us/op"),
    ("ok_ops_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("verify_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.lateness_us_p50", "us"),
    ("gen.lateness_us_p99", "us"),
    ("gen.pair_busy_waits", "count"),
    ("gen.samples_read", "count"),
    ("gen.samples_write", "count"),
    ("driver.invoke_us_p50", "us"),
    ("driver.invoke_us_p99", "us"),
    ("driver.poll_wait_us_p50", "us"),
    ("core.on_invoke_ns", "ns"),
    ("core.on_message_ns", "ns"),
    ("core.msgs_per_op", "msgs/op"),
    ("proto.encode_ns_per_frame", "ns"),
    ("proto.decode_ns_per_frame", "ns"),
    ("proto.msgs_per_frame", "msgs"),
    ("proto.frames_per_op", "frames/op"),
    ("proto.routing_bits_per_op", "bits/op"),
    ("proto.control_bits_per_msg", "bits/msg"),
    ("simnet.fire_ns", "ns"),
    ("simnet.events_per_op", "events/op"),
    ("simnet.self_ns_per_op", "ns/op"),
    ("batcher.flushes_per_op", "flushes/op"),
    ("batcher.flush_hold_pct", "%"),
    ("batcher.flush_size_pct", "%"),
    ("batcher.mean_hold_us", "us"),
    ("runtime.read_overhead_us", "us"),
    ("runtime.write_overhead_us", "us"),
    ("runtime.read_over_budget", "ratio"),
    ("runtime.write_over_budget", "ratio"),
    ("reactor.threads", "count"),
    ("reactor.reconnects", "count"),
    ("reactor.frames_resent", "count"),
    ("reactor.resend_high_water", "count"),
    ("lincheck.check_ms", "ms"),
    ("lincheck.ns_per_op", "ns/op"),
    ("check.paths", "count"),
    ("check.replays", "count"),
    ("check.paths_per_replay", "ratio"),
    ("check.events_per_s", "1/s"),
    ("check.max_depth", "events"),
    ("proc.allocs_per_op", "allocs/op"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("tail.read_p99_us", "us"),
    ("tail.read_p999_us", "us"),
    ("tail.write_p99_us", "us"),
    ("tail.read_samples", "count"),
    ("tail.write_samples", "count"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Deterministic simulator, 64 Zipf registers, 90% reads.
    SimReadMostly,
    /// Threaded cluster over fixed 200 µs links, 50% writes, open loop.
    ClusterWriteHeavy,
    /// Reactor over loopback TCP, 95% reads, open loop then saturation.
    ReactorReadMostly,
    /// Exhaustive DPOR exploration of the two-writer MWMR scenario.
    McMwmr,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimReadMostly,
        Workload::ClusterWriteHeavy,
        Workload::ReactorReadMostly,
        Workload::McMwmr,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimReadMostly => "sim-readmostly",
            Workload::ClusterWriteHeavy => "cluster-writeheavy",
            Workload::ReactorReadMostly => "reactor-readmostly",
            Workload::McMwmr => "mc-mwmr",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is asked to behave.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same operation scripts.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The outcome of one run: counts, metrics, the correctness gate's
/// findings and the host facts that go with the numbers.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or timed out.
    pub failed: u64,
    /// `(name, value)`, units from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness-gate failures; a run with any publishes no metrics.
    pub violations: Vec<String>,
    /// Host facts recorded with the result (`nproc`, Δ, rates, seed).
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Fails the gate with `why` unless `ok`.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(why());
        }
    }

    /// Records a host fact.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// The result line: the metrics named in `wanted` (all of them, in
    /// that order) with their units.
    ///
    /// # Panics
    ///
    /// If a wanted metric was not recorded, or is not a finite number —
    /// a bug in the workload, not a property of the program.
    pub fn result_json(&self, wanted: &[(&str, &str)]) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not recorded"));
            assert!(v.is_finite(), "metric {name} is {v}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }

    /// The host-facts line printed before the result.
    pub fn facts_json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"host\": {{{}}}}}", body.join(", "))
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, cfg: &RunConfig) -> Report {
    let mut r = match workload {
        Workload::SimReadMostly => sim::run(cfg, twobit_cache::CacheMode::Off),
        Workload::ClusterWriteHeavy => live::run_cluster(cfg),
        Workload::ReactorReadMostly => live::run_reactor(cfg),
        Workload::McMwmr => mc::run(cfg),
    };
    r.fact("workload", workload.name());
    r.fact("seed", cfg.seed);
    r.fact("nproc", measure::nproc());
    r.fact("seconds", cfg.seconds);
    r.fact("trace", cfg.trace);
    r.set("peak_rss_mb", measure::peak_rss_mb());
    if cfg.trace {
        fill_unexercised_layers(&mut r);
    }
    r
}

/// Read (`true`) or write (`false`) latencies, in the history's own time
/// unit, of the completed operations whose ids satisfy `keep`.
pub fn tick_latencies(
    h: &twobit_proto::ShardedHistory<u64>,
    read: bool,
    keep: impl Fn(u64) -> bool,
) -> Vec<f64> {
    h.iter()
        .flat_map(|(_, hist)| hist.records.iter())
        .filter(|r| r.op.is_read() == read && keep(r.op_id.raw()))
        .filter_map(|r| r.latency().map(|l| l as f64))
        .collect()
}

/// Records the four `*_ticks` metrics from `h`.
pub fn set_ticks(
    r: &mut Report,
    h: &twobit_proto::ShardedHistory<u64>,
    keep: impl Fn(u64) -> bool,
) {
    let reads = tick_latencies(h, true, &keep);
    let writes = tick_latencies(h, false, &keep);
    r.set("read_p50_ticks", measure::quantile(&reads, 0.5));
    r.set("read_p99_ticks", measure::quantile(&reads, 0.99));
    r.set("write_p50_ticks", measure::quantile(&writes, 0.5));
    r.set("write_p99_ticks", measure::quantile(&writes, 0.99));
}

/// Records the ungated `tail.*` metrics over all latency samples (µs).
pub fn set_tail(r: &mut Report, reads: &[f64], writes: &[f64]) {
    use measure::quantile;
    r.set("tail.read_p99_us", quantile(reads, 0.99));
    r.set("tail.read_p999_us", quantile(reads, 0.999));
    r.set("tail.write_p99_us", quantile(writes, 0.99));
    r.set("tail.read_samples", reads.len() as f64);
    r.set("tail.write_samples", writes.len() as f64);
}

/// Records the `proto.*` frame ratios and `batcher.*` metrics from a
/// deployment's statistics over `ops` operations.
pub fn set_net_layers(r: &mut Report, st: &twobit_proto::NetStats, ops: u64) {
    use twobit_proto::FlushReason;
    let ops = ops.max(1) as f64;
    let flushes = st.flushes_total().max(1) as f64;
    r.set("proto.msgs_per_frame", st.messages_per_frame());
    r.set("proto.frames_per_op", st.frames_sent() as f64 / ops);
    r.set(
        "proto.routing_bits_per_op",
        st.frame_header_bits() as f64 / ops,
    );
    r.set(
        "proto.control_bits_per_msg",
        st.control_bits() as f64 / st.total_sent().max(1) as f64,
    );
    r.set("batcher.flushes_per_op", st.flushes_total() as f64 / ops);
    r.set(
        "batcher.flush_hold_pct",
        100.0 * st.flushes(FlushReason::Hold) as f64 / flushes,
    );
    r.set(
        "batcher.flush_size_pct",
        100.0 * st.flushes(FlushReason::Size) as f64 / flushes,
    );
    r.set("batcher.mean_hold_us", st.mean_observed_hold_ns() / 1e3);
}

/// The two-bit gate: every message the deployment sent carried exactly
/// two control bits.
pub fn gate_two_bits(r: &mut Report, st: &twobit_proto::NetStats) {
    r.gate(
        st.total_sent() > 0 && st.control_bits() == 2 * st.total_sent(),
        || {
            format!(
                "control bits {} over {} messages is not exactly 2 per message",
                st.control_bits(),
                st.total_sent()
            )
        },
    );
}

/// The accounting gate, at shutdown: every message sent was delivered,
/// dropped to a crashed process or abandoned with a failed link.
pub fn gate_reconciles(r: &mut Report, st: &twobit_proto::NetStats) {
    let accounted = st.total_delivered() + st.dropped_to_crashed() + st.messages_abandoned();
    r.gate(accounted == st.total_sent(), || {
        format!(
            "delivered {} + dropped {} + abandoned {} != sent {}",
            st.total_delivered(),
            st.dropped_to_crashed(),
            st.messages_abandoned(),
            st.total_sent()
        )
    });
}

/// The atomicity gate: every register's history is linearizable as an
/// SWMR atomic register. Returns the checker's wall time.
pub fn gate_swmr(r: &mut Report, h: &twobit_proto::ShardedHistory<u64>) -> std::time::Duration {
    let t = std::time::Instant::now();
    let verdict = twobit_lincheck::check_swmr_sharded(h);
    let took = t.elapsed();
    if let Err(v) = verdict {
        r.violations.push(format!("atomicity: {v:?}"));
    }
    took
}

/// `driver.*` from the `driver.invoke` / `driver.poll` spans.
pub fn driver_layers(r: &mut Report, tr: &trace::Tracer) {
    let to_us = |v: Vec<u64>| v.into_iter().map(|ns| ns as f64 / 1e3).collect::<Vec<_>>();
    let inv = to_us(tr.durations("driver.invoke"));
    let poll = to_us(tr.durations("driver.poll"));
    r.set("driver.invoke_us_p50", measure::quantile(&inv, 0.5));
    r.set("driver.invoke_us_p99", measure::quantile(&inv, 0.99));
    r.set("driver.poll_wait_us_p50", measure::quantile(&poll, 0.5));
}

/// Sets every per-layer metric not yet recorded to 0: the workload does
/// not exercise that layer (see `NOTES.md`).
pub fn fill_unexercised_layers(r: &mut Report) {
    for (name, _) in PER_LAYER {
        if r.get(name).is_none() {
            r.set(name, 0.0);
        }
    }
}
