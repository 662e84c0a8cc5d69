//! Load generators over the public [`Driver`] API.
//!
//! **Open loop.** Operation `i` is due at `start + i / rate`, whatever the
//! program is doing, and its latency is timed from that due instant to the
//! observed completion, so a stall in the program or in the generator
//! shows in the latency of every operation that fell due during it (no
//! coordinated omission). How late the generator issued each operation is
//! reported separately (`gen.lateness_us_*`), which tells generator stalls
//! apart from slowness in the program.
//!
//! **Head-of-line rule.** [`Driver::poll`] blocks until its operation
//! completes, and one thread drives the driver. The generator therefore
//! observes completions in issue order: while the next operation is not
//! yet due it polls the oldest outstanding one, and a completion behind a
//! slower, older operation is observed only once that one returns. A poll
//! that runs past the next due instant makes that operation late, and the
//! lateness counts in its latency. (The live backends stamp an operation's
//! response in their history when the poll observes it, so the history
//! cannot stand in for the observation.)
//!
//! **Polling late enough.** Polling each operation right after issuing it
//! would block the generator for a whole latency per operation: near
//! `rate ≈ 1 / latency` it falls behind and settles into issuing in bursts
//! one latency late, and a run's latencies jump between the two states.
//! So the oldest operation is polled only once it is old enough to be
//! likely done: three quarters of the median latency of its own kind,
//! reads and writes apart (see `Settle`). The generator then blocks only
//! for the rest of its latency. A completion faster than that age is
//! observed at it, so recorded latencies are `max(true, wait)`; as the
//! wait stays below the kind's own median, that kind's median and higher
//! quantiles are recorded exactly. A shared wait would not do: when writes
//! are faster than reads, most writes would be observed at the wait.
//!
//! **Waking on time.** `thread::sleep` overshoots by the kernel's timer
//! slack (50 µs by default on Linux) and more, which would add to every
//! latency and to the wait it feeds back into. The generator thread sets
//! its timer slack to 1 ns, and each wait sleeps until `SPIN` before its
//! deadline and spins, yielding, for the rest (`wait_until`). The spin's
//! CPU time, a few µs per wait, counts in `cpu_us_per_op`.
//!
//! **Sequential pairs.** At most one operation may be in flight per
//! `(process, register)` pair. An operation whose pair is busy waits for
//! the pair's previous operation, polling oldest first
//! (`gen.pair_busy_waits`).

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use twobit_proto::{Driver, OpId, OpOutcome, OpTicket, ProcessId, RegisterId};

use crate::measure::{self, Mark};
use crate::script::OpSpec;
use crate::trace::Tracer;

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Whether it was a read.
    pub read: bool,
    /// From the due instant (open loop) or the issue instant (closed
    /// loop) to the observed completion.
    pub latency: Duration,
    /// From the due instant to the issue instant (zero in closed loop).
    pub lateness: Duration,
    /// From the phase's start to the due (or issue) instant.
    pub at: Duration,
    /// The operation's id in the history.
    pub op_id: OpId,
}

/// What one generator phase did.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// Operations the generator tried to issue.
    pub attempted: u64,
    /// Operations refused, timed out or answered with the wrong outcome.
    pub failed: u64,
    /// Times an operation waited for its pair's previous operation.
    pub pair_busy_waits: u64,
    /// From the phase's start to its last observed completion.
    pub wall: Duration,
    /// The first error seen, for the log.
    pub first_error: Option<String>,
    /// Host readings about every [`MARK_EVERY`], first and last included.
    pub marks: Vec<Mark>,
}

/// How often a phase takes host readings ([`Mark`]).
pub const MARK_EVERY: Duration = Duration::from_secs(1);

impl Phase {
    /// Completed operations per second of the phase's wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latencies of reads (`true`) or writes (`false`), in microseconds.
    pub fn latencies_us(&self, read: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.read == read)
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .collect()
    }

    /// Per window between consecutive marks (windows shorter than half a
    /// [`MARK_EVERY`] left out): its length, CPU time and samples. Only
    /// the windows the hypervisor stole no more CPU time from than from
    /// the median window are returned: a window it took a third of the
    /// CPUs from measures the neighbours, not the program.
    fn windows(&self) -> Vec<(Duration, Duration, Vec<&Sample>)> {
        let mut all = Vec::new();
        for w in self.marks.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.at - a.at < MARK_EVERY / 2 && self.marks.len() > 2 {
                continue;
            }
            let inside = self.samples.iter().filter(|s| s.at >= a.at && s.at < b.at);
            let steal = b.steal.saturating_sub(a.steal) as f64 / (b.at - a.at).as_secs_f64();
            let w = (b.at - a.at, b.cpu.saturating_sub(a.cpu), inside.collect());
            all.push((steal, w));
        }
        let limit = measure::quantile(&all.iter().map(|w| w.0).collect::<Vec<_>>(), 0.5);
        all.into_iter()
            .filter(|w| w.0 <= limit)
            .map(|w| w.1)
            .collect()
    }

    /// The best ([`measure::best`]) over the windows
    /// of each window's `q`-quantile latency of reads (`true`) or writes
    /// (`false`), in microseconds.
    pub fn latency_us(&self, read: bool, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|(_, _, w)| {
                let xs: Vec<f64> = w
                    .iter()
                    .filter(|s| s.read == read)
                    .map(|s| measure::us(s.latency))
                    .collect();
                measure::quantile(&xs, q)
            })
            .filter(|v| *v > 0.0)
            .collect();
        measure::best(&per, true)
    }

    /// The best over the windows of completed operations per
    /// second.
    pub fn window_ops_per_s(&self) -> f64 {
        let per: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|(len, _, w)| w.len() as f64 / len.as_secs_f64().max(1e-9))
            .collect();
        measure::best(&per, false)
    }

    /// The best over the windows of process CPU time per
    /// operation, in microseconds.
    pub fn cpu_us_per_op(&self) -> f64 {
        let per: Vec<f64> = self
            .windows()
            .into_iter()
            .filter(|(_, _, w)| !w.is_empty())
            .map(|(_, cpu, w)| measure::us(cpu) / w.len() as f64)
            .collect();
        measure::best(&per, true)
    }

    fn mark(&mut self, start: Instant, last: bool) {
        let due = self
            .marks
            .last()
            .is_none_or(|m| start.elapsed() >= m.at + MARK_EVERY);
        if due || last {
            self.marks.push(Mark::now(start));
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

struct InFlight {
    ticket: OpTicket,
    read: bool,
    due: Instant,
    issued: Instant,
    at: Duration,
}

type Pair = (ProcessId, RegisterId);

fn invoke<D: Driver<Value = u64>>(
    d: &mut D,
    spec: &OpSpec,
    seq: u64,
    ph: &mut Phase,
    tr: &mut Tracer,
) -> Option<OpTicket> {
    ph.attempted += 1;
    match tr.span("driver.invoke", seq, |_| {
        d.invoke(spec.proc, spec.reg, spec.op.clone())
    }) {
        Ok(t) => Some(t),
        Err(e) => {
            ph.fail(format!("invoke: {e}"));
            None
        }
    }
}

fn complete<D: Driver<Value = u64>>(d: &mut D, f: InFlight, ph: &mut Phase, tr: &mut Tracer) {
    let out = tr.span("driver.poll", f.ticket.op_id.raw(), |_| d.poll(&f.ticket));
    let done = Instant::now();
    match out {
        Ok(OpOutcome::ReadValue(_)) if f.read => {}
        Ok(OpOutcome::Written) if !f.read => {}
        Ok(other) => return ph.fail(format!("{:?}: mismatched outcome {other:?}", f.ticket)),
        Err(e) => return ph.fail(format!("poll {:?}: {e}", f.ticket)),
    }
    ph.samples.push(Sample {
        read: f.read,
        latency: done - f.due,
        lateness: f.issued - f.due,
        at: f.at,
        op_id: f.ticket.op_id,
    });
}

/// Polls the oldest operations until `pair` is free.
fn free_pair<D: Driver<Value = u64>>(
    d: &mut D,
    fifo: &mut VecDeque<InFlight>,
    pair: Pair,
    ph: &mut Phase,
    tr: &mut Tracer,
) {
    if !fifo.iter().any(|f| (f.ticket.proc, f.ticket.reg) == pair) {
        return;
    }
    ph.pair_busy_waits += 1;
    while let Some(f) = fifo.pop_front() {
        let hit = (f.ticket.proc, f.ticket.reg) == pair;
        complete(d, f, ph, tr);
        if hit {
            return;
        }
    }
}

/// How long after its issue an operation is first polled: three quarters
/// of the median issue-to-observed latency of the last [`Settle::KEEP`]
/// polls of the same kind, reads and writes apart (zero until there are
/// that many). Most operations complete after that age, so their
/// completions are observed as they happen, while the generator blocks
/// only for the remainder instead of a whole latency.
#[derive(Debug, Default)]
struct Settle {
    /// Recent latencies of writes (`[0]`) and reads (`[1]`).
    recent: [VecDeque<Duration>; 2],
    wait: [Duration; 2],
}

impl Settle {
    const KEEP: usize = 64;

    fn wait(&self, read: bool) -> Duration {
        self.wait[usize::from(read)]
    }

    fn observe(&mut self, read: bool, latency: Duration) {
        let recent = &mut self.recent[usize::from(read)];
        if recent.len() == Self::KEEP {
            recent.pop_front();
        }
        recent.push_back(latency);
        if recent.len() == Self::KEEP {
            let mut v: Vec<Duration> = recent.iter().copied().collect();
            let mid = v.len() / 2;
            let median = *v.select_nth_unstable(mid).1;
            self.wait[usize::from(read)] = median * 3 / 4;
        }
    }
}

/// How long before a deadline [`wait_until`] stops sleeping and spins:
/// above the usual overshoot of `thread::sleep` once `fine_timer_slack`
/// has run.
const SPIN: Duration = Duration::from_micros(25);

/// Lets the kernel wake the calling thread's sleeps 1 ns rather than its
/// default 50 µs after their deadline (Linux `PR_SET_TIMERSLACK`).
fn fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes
        // only the calling thread's timer slack.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    }
}

/// Returns at `deadline`, or at once if it has passed: sleeps until
/// `SPIN` before it, then spins, yielding the core to any thread that
/// wants it.
fn wait_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if left > SPIN {
        std::thread::sleep(left - SPIN);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Issues `script` in order at `rate` operations per second for `length`,
/// then waits for every outstanding operation.
pub fn open_loop<D: Driver<Value = u64>>(
    d: &mut D,
    script: &[OpSpec],
    rate: f64,
    length: Duration,
    tr: &mut Tracer,
) -> Phase {
    let mut ph = Phase::default();
    let mut fifo: VecDeque<InFlight> = VecDeque::new();
    let mut settle = Settle::default();
    fine_timer_slack();
    let total = ((length.as_secs_f64() * rate).round() as usize).min(script.len());
    let start = Instant::now();
    for (i, spec) in script[..total].iter().enumerate() {
        ph.mark(start, false);
        let at = Duration::from_secs_f64(i as f64 / rate);
        let due = start + at;
        // Spare time before the due instant goes to observing completions,
        // oldest first, each once it is old enough to be likely done.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let ripe = fifo.front().map(|f| f.issued + settle.wait(f.read));
            if ripe.is_some_and(|at| at <= now) {
                let f = fifo.pop_front().expect("front exists");
                let (issued, read) = (f.issued, f.read);
                complete(d, f, &mut ph, tr);
                settle.observe(read, issued.elapsed());
            } else {
                let until = ripe.map_or(due, |at| at.min(due));
                tr.span("gen.sleep", i as u64, |_| wait_until(until));
            }
        }
        free_pair(d, &mut fifo, (spec.proc, spec.reg), &mut ph, tr);
        let issued = Instant::now();
        if let Some(ticket) = invoke(d, spec, i as u64, &mut ph, tr) {
            fifo.push_back(InFlight {
                ticket,
                read: spec.is_read(),
                due,
                issued,
                at,
            });
        }
    }
    ph.mark(start, true);
    while let Some(f) = fifo.pop_front() {
        complete(d, f, &mut ph, tr);
    }
    ph.wall = start.elapsed();
    ph
}

/// Keeps `depth` operations outstanding until `length` has passed or
/// the script is used up, then waits for the rest. Latency is timed from
/// each operation's issue.
pub fn closed_loop<D: Driver<Value = u64>>(
    d: &mut D,
    script: &[OpSpec],
    depth: usize,
    length: Duration,
    tr: &mut Tracer,
) -> Phase {
    let mut ph = Phase::default();
    let mut fifo: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now();
    for (i, spec) in script.iter().enumerate() {
        if start.elapsed() >= length {
            break;
        }
        ph.mark(start, false);
        if fifo.len() >= depth {
            let f = fifo.pop_front().expect("depth >= 1");
            complete(d, f, &mut ph, tr);
        }
        free_pair(d, &mut fifo, (spec.proc, spec.reg), &mut ph, tr);
        let issued = Instant::now();
        if let Some(ticket) = invoke(d, spec, i as u64, &mut ph, tr) {
            fifo.push_back(InFlight {
                ticket,
                read: spec.is_read(),
                due: issued,
                issued,
                at: issued - start,
            });
        }
    }
    ph.mark(start, true);
    while let Some(f) = fifo.pop_front() {
        complete(d, f, &mut ph, tr);
    }
    ph.wall = start.elapsed();
    ph
}

/// Runs `script` pipelined, as [`twobit_proto::Workload::run_pipelined_on`]
/// does: an operation is issued as soon as its pair is free, and the rest
/// are drained in op-id order. Sample latencies are host time from issue
/// to observed completion; on the simulator the history's tick latencies
/// are the meaningful ones.
pub fn pipelined<D: Driver<Value = u64>>(d: &mut D, script: &[OpSpec], tr: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let mut busy: HashMap<Pair, InFlight> = HashMap::new();
    let start = Instant::now();
    for (i, spec) in script.iter().enumerate() {
        if let Some(prev) = busy.remove(&(spec.proc, spec.reg)) {
            complete(d, prev, &mut ph, tr);
        }
        let issued = Instant::now();
        if let Some(ticket) = invoke(d, spec, i as u64, &mut ph, tr) {
            let f = InFlight {
                ticket,
                read: spec.is_read(),
                due: issued,
                issued,
                at: issued - start,
            };
            busy.insert((spec.proc, spec.reg), f);
        }
    }
    let mut rest: Vec<InFlight> = busy.into_values().collect();
    rest.sort_by_key(|f| f.ticket.op_id);
    for f in rest {
        complete(d, f, &mut ph, tr);
    }
    ph.wall = start.elapsed();
    ph
}
