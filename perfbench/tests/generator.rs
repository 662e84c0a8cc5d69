//! The open-loop generator against a fake `Driver`. When `poll` stalls
//! once, operations that fall due during the stall must carry it in their
//! latency (no coordinated omission), the generator's lateness must
//! report it, and completions are observed in issue order. When writes
//! complete faster than reads, each kind's recorded median must be its
//! own, not the age at which the generator first polls.

use std::time::{Duration, Instant};

use twobit_perfbench::gen;
use twobit_perfbench::measure::quantile;
use twobit_perfbench::script::{self, Mix, Popularity};
use twobit_perfbench::trace::Tracer;
use twobit_proto::{
    Driver, DriverError, Lifecycle, NetStats, OpId, OpOutcome, OpTicket, Operation, ProcessId,
    RegisterId, ShardedHistory, SystemConfig,
};

/// Completes a read `read_takes` and a write `write_takes` after its
/// invocation (a poll before then spins until then), except that the
/// poll of operation `stall_at` blocks for `stall` first.
struct Fake {
    /// Per invoked operation: whether it is a read, and when it is done.
    ops: Vec<(bool, Instant)>,
    polled: Vec<u64>,
    read_takes: Duration,
    write_takes: Duration,
    stall_at: u64,
    stall: Duration,
}

impl Fake {
    fn new(read_takes: Duration, write_takes: Duration, stall_at: u64, stall: Duration) -> Self {
        Fake {
            ops: Vec::new(),
            polled: Vec::new(),
            read_takes,
            write_takes,
            stall_at,
            stall,
        }
    }
}

impl Driver for Fake {
    type Value = u64;

    fn config(&self) -> SystemConfig {
        SystemConfig::new(5, 2).expect("5 > 2·2")
    }

    fn registers(&self) -> Vec<RegisterId> {
        RegisterId::first(4)
    }

    fn invoke(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<u64>,
    ) -> Result<OpTicket, DriverError> {
        let op_id = OpId::new(self.ops.len() as u64);
        let read = matches!(op, Operation::Read);
        let takes = if read {
            self.read_takes
        } else {
            self.write_takes
        };
        self.ops.push((read, Instant::now() + takes));
        Ok(OpTicket { proc, reg, op_id })
    }

    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<u64>, DriverError> {
        self.polled.push(ticket.op_id.raw());
        if ticket.op_id.raw() == self.stall_at {
            std::thread::sleep(self.stall);
        }
        let (read, done) = self.ops[ticket.op_id.raw() as usize];
        while Instant::now() < done {
            std::hint::spin_loop();
        }
        Ok(if read {
            OpOutcome::ReadValue(0)
        } else {
            OpOutcome::Written
        })
    }

    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        Err(DriverError::UnknownProcess(proc))
    }

    fn recover(&mut self, _proc: ProcessId) -> Result<(), DriverError> {
        Err(DriverError::RecoveryUnsupported)
    }

    fn lifecycle(&self, _proc: ProcessId) -> Lifecycle {
        Lifecycle::Up
    }

    fn history(&self) -> ShardedHistory<u64> {
        ShardedHistory::new(0, self.registers())
    }

    fn stats(&self) -> NetStats {
        NetStats::new()
    }
}

#[test]
fn a_stall_shows_in_later_latencies_and_in_generator_lateness() {
    let mix = Mix {
        n: 5,
        registers: 4,
        popularity: Popularity::Uniform,
        read_share: 0.5,
    };
    let ops = script::script(&mix, 1, 300);
    let stall = Duration::from_millis(60);
    let mut d = Fake::new(Duration::ZERO, Duration::ZERO, 10, stall);
    // 1000 ops/s for 0.3 s: operations 11 to 69 fall due during the stall.
    let ph = gen::open_loop(
        &mut d,
        &ops,
        1000.0,
        Duration::from_millis(300),
        &mut Tracer::off(),
    );
    assert_eq!(ph.attempted, 300);
    assert_eq!(ph.failed, 0, "{:?}", ph.first_error);
    assert_eq!(ph.samples.len(), 300);

    // Head-of-line: the generator polls in issue order.
    assert!(
        d.polled.windows(2).all(|w| w[0] < w[1]),
        "polled out of issue order: {:?}",
        d.polled
    );

    // The operation due right after the stall began waited it out: timed
    // from its due instant, its latency holds nearly the whole stall.
    assert!(ph.samples[11].latency >= stall - Duration::from_millis(5));
    // Every operation that fell due during the stall carries part of it.
    for s in &ph.samples {
        assert!(s.latency >= s.lateness);
    }
    let carried = ph
        .samples
        .iter()
        .filter(|s| s.latency >= Duration::from_millis(5))
        .count();
    assert!(carried >= 45, "only {carried} operations carry the stall");
    let worst = ph.samples.iter().map(|s| s.latency).max().expect("samples");
    assert!(
        worst >= stall - Duration::from_millis(5),
        "worst latency {worst:?}"
    );

    // And the generator reports how late it ran.
    let late: Vec<f64> = ph
        .samples
        .iter()
        .map(|s| s.lateness.as_secs_f64() * 1e6)
        .collect();
    let p99 = quantile(&late, 0.99);
    assert!(
        p99 >= 40_000.0,
        "gen.lateness_us_p99 {p99} misses the stall"
    );
}

#[test]
fn writes_faster_than_reads_are_recorded_at_their_own_latency() {
    let mix = Mix {
        n: 5,
        registers: 4,
        popularity: Popularity::Uniform,
        read_share: 0.5,
    };
    let ops = script::script(&mix, 2, 400);
    // Writes take half the reads' time, and every operation is done
    // before the next falls due, so nothing queues behind another.
    let (read, write) = (Duration::from_millis(2), Duration::from_millis(1));
    let mut d = Fake::new(read, write, u64::MAX, Duration::ZERO);
    let ph = gen::open_loop(
        &mut d,
        &ops,
        250.0,
        Duration::from_millis(1600),
        &mut Tracer::off(),
    );
    assert_eq!(ph.samples.len(), 400);
    assert_eq!(ph.failed, 0, "{:?}", ph.first_error);
    for (kind, truth) in [(true, read), (false, write)] {
        let truth = truth.as_secs_f64() * 1e6;
        let p50 = quantile(&ph.latencies_us(kind), 0.5);
        assert!(
            (p50 - truth).abs() <= truth / 10.0,
            "{} p50 {p50} µs, true {truth} µs",
            if kind { "read" } else { "write" }
        );
    }
}
