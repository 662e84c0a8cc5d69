//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a host-facts line and then, as the last line of standard output,
//! the result object. Exits non-zero, printing no result, when the
//! correctness gate fails.

use std::process::ExitCode;

use twobit_perfbench::trace::CountingAlloc;
use twobit_perfbench::{run, RunConfig, Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse() -> Result<(Workload, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {names:?}"))?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(workload, &cfg);
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("perfbench: correctness gate failed: {v}");
        }
        return ExitCode::FAILURE;
    }
    println!("{}", report.facts_json());
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.result_json(wanted));
    ExitCode::SUCCESS
}
