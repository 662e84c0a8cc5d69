//! The correctness gate: the negative control must be rejected, and the
//! sim workload's deterministic figures must repeat for a seed.

use twobit_cache::CacheMode;
use twobit_perfbench::{run, sim, RunConfig, Workload, END_TO_END};

fn short(seed: u64) -> RunConfig {
    // Shorter than one epoch: exactly one epoch runs.
    RunConfig {
        seed,
        seconds: 0.001,
        trace: false,
    }
}

#[test]
fn the_sim_workload_passes_the_gate_and_prints_every_metric() {
    let r = run(Workload::SimReadMostly, &short(1));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.failed, 0);
    let line = r.result_json(END_TO_END);
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        assert!(r.get(name).is_some_and(|v| v > 0.0), "{name} is 0");
    }
}

#[test]
fn negative_control_the_unsound_cache_ablation_is_rejected() {
    let r = sim::run(&short(1), CacheMode::UnsafeAblated);
    assert!(
        r.violations.iter().any(|v| v.starts_with("atomicity")),
        "the gate accepted stale cached reads: {:?}",
        r.violations
    );
}

#[test]
fn sim_figures_repeat_exactly_for_a_seed_and_the_script_follows_the_seed() {
    let deterministic = [
        "msgs_per_op",
        "wire_bytes_per_op",
        "read_p50_ticks",
        "read_p99_ticks",
        "write_p50_ticks",
        "write_p99_ticks",
    ];
    let a = run(Workload::SimReadMostly, &short(7));
    let b = run(Workload::SimReadMostly, &short(7));
    for name in deterministic {
        assert_eq!(a.get(name), b.get(name), "{name} differs between runs");
    }
    assert_ne!(sim::scripts(7)[1], sim::scripts(8)[1]);
    let c = run(Workload::SimReadMostly, &short(8));
    assert!(
        deterministic.iter().any(|n| a.get(n) != c.get(n)),
        "a second seed changed no figure"
    );
}
