//! Order statistics and process-level readings (CPU time, peak RSS).

use std::time::Duration;

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Microseconds in `d`, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')' field 3 (state) is index 0, so utime (14) is 11, stime 12.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// CPU time of the calling thread so far, in nanoseconds
/// (`/proc/thread-self/schedstat`): for single-threaded work, finer than
/// [`cpu_time`]'s 10 ms ticks.
pub fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let ns = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor has taken from this host's CPUs so far, in clock
/// ticks of 1/100 s (`steal` in `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Host readings at a window boundary.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Since the start of the phase.
    pub at: Duration,
    /// [`steal_ticks`] at this instant.
    pub steal: u64,
    /// [`cpu_time`] at this instant.
    pub cpu: Duration,
}

impl Mark {
    /// Readings now, for a phase that started at `start`.
    pub fn now(start: std::time::Instant) -> Mark {
        Mark {
            at: start.elapsed(),
            steal: steal_ticks(),
            cpu: cpu_time(),
        }
    }
}

/// The best of repeated measurements of the same work: the minimum of a
/// time, the maximum of a rate. A shared host's speed swings by up to a
/// factor of two for seconds at a time as its neighbours come and go; a
/// median moves with how long they were busy, the best moves with the
/// program.
pub fn best(xs: &[f64], lower_is_better: bool) -> f64 {
    let fold = if lower_is_better { f64::min } else { f64::max };
    let start = if lower_is_better {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    match xs.iter().copied().fold(start, fold) {
        v if v.is_finite() => v,
        _ => 0.0,
    }
}

/// Share of the host's CPU time stolen between the first and last mark,
/// in percent.
pub fn steal_pct(marks: &[Mark]) -> f64 {
    match (marks.first(), marks.last()) {
        (Some(a), Some(b)) if b.at > a.at => {
            (b.steal - a.steal) as f64 / 100.0 / (b.at - a.at).as_secs_f64() / nproc() as f64
                * 100.0
        }
        _ => 0.0,
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn best_figures_and_steal_share() {
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(best(&xs, true), 1.0);
        assert_eq!(best(&xs, false), 8.0);
        assert_eq!(best(&[], true), 0.0);
        let at = |s: u64, steal: u64| Mark {
            at: Duration::from_secs(s),
            steal,
            cpu: Duration::ZERO,
        };
        // 50 ticks (0.5 s) stolen over 2 s.
        let marks = [at(0, 0), at(1, 0), at(2, 50)];
        assert!((steal_pct(&marks) - 25.0 / nproc() as f64).abs() < 1e-9);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time() > Duration::ZERO);
        assert!(thread_cpu() >= Duration::from_millis(40));
    }
}
