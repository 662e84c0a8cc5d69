//! Traced drives of single layers through their public functions: the
//! automaton handlers (`core`), the frame codec (`proto`) and the
//! scheduled simulator (`simnet`). Each probe replays the workload's
//! operation mix, so its per-call costs can be set against the end-to-end
//! figures of the same workload.

use std::collections::VecDeque;

use twobit_proto::{
    Automaton, BufferPool, Effects, EnabledEvent, Envelope, Frame, OpId, ProcessId, RegisterId,
    SchedDecision, ScheduleStep, Scheduler, VirtualTimeScheduler,
};
use twobit_simnet::SimSpace;

use crate::script::{OpSpec, Rng};
use crate::trace::Tracer;

/// What the automaton probe measured.
#[derive(Debug)]
pub struct CoreProbe<M> {
    /// Mean nanoseconds per `on_invoke` call.
    pub on_invoke_ns: f64,
    /// Mean nanoseconds per `on_message` call.
    pub on_message_ns: f64,
    /// Messages sent per operation.
    pub msgs_per_op: f64,
    /// Sent messages, each with the index of the operation that caused
    /// it (input for the codec probe).
    pub captured: Vec<(usize, M)>,
}

/// Drives one register's automata (`procs[i]` is process `i`) through
/// `ops` one at a time, delivering messages in FIFO order until the
/// network is quiet after each operation. Every handler call is a span.
///
/// # Panics
///
/// If an operation does not complete once the network is quiet — the
/// automaton lost it.
pub fn core<A: Automaton<Value = u64>>(
    mut procs: Vec<A>,
    ops: &[OpSpec],
    tr: &mut Tracer,
) -> CoreProbe<A::Msg> {
    let mut queue: VecDeque<(ProcessId, ProcessId, A::Msg)> = VecDeque::new();
    let mut captured = Vec::new();
    let mut sent = 0u64;
    for (i, spec) in ops.iter().enumerate() {
        let op_id = OpId::new(i as u64);
        let mut done = false;
        let mut fx = Effects::new();
        let p = spec.proc.index();
        tr.span("core.on_invoke", i as u64, |_| {
            procs[p].on_invoke(op_id, spec.op.clone(), &mut fx);
        });
        let mut from = spec.proc;
        loop {
            done |= fx.drain_completions().any(|(id, _)| id == op_id);
            for (to, msg) in fx.drain_sends() {
                sent += 1;
                captured.push((i, msg.clone()));
                queue.push_back((from, to, msg));
            }
            let Some((src, to, msg)) = queue.pop_front() else {
                break;
            };
            from = to;
            tr.span("core.on_message", i as u64, |_| {
                procs[to.index()].on_message(src, msg, &mut fx);
            });
        }
        assert!(done, "operation {i} ({spec:?}) never completed");
    }
    let mean = |name: &str| {
        let d = tr.durations(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
    };
    CoreProbe {
        on_invoke_ns: mean("core.on_invoke"),
        on_message_ns: mean("core.on_message"),
        msgs_per_op: sent as f64 / ops.len().max(1) as f64,
        captured,
    }
}

/// Mean nanoseconds to encode and to decode one frame.
#[derive(Clone, Copy, Debug)]
pub struct CodecProbe {
    /// `Frame::encode_pooled`, per frame.
    pub encode_ns: f64,
    /// `Frame::decode_shared`, per frame.
    pub decode_ns: f64,
}

/// Packs `envs` into frames of `per_frame` messages and round-trips each
/// through the codec, `rounds` times over.
///
/// # Panics
///
/// If a frame fails to encode or decodes to a different message count.
pub fn codec<M: twobit_proto::WireMessage>(
    envs: &[Envelope<M>],
    per_frame: usize,
    rounds: usize,
    tr: &mut Tracer,
) -> CodecProbe {
    let frames: Vec<Frame<M>> = envs
        .chunks(per_frame.max(1))
        .map(|c| Frame::from_envelopes(c.to_vec()))
        .collect();
    let pool = BufferPool::new();
    for _ in 0..rounds {
        for (i, f) in frames.iter().enumerate() {
            let blob = tr
                .span("proto.encode", i as u64, |_| f.encode_pooled(&pool))
                .expect("codec-capable message type");
            let back = tr
                .span("proto.decode", i as u64, |_| {
                    Frame::<M>::decode_shared(&blob)
                })
                .expect("frame codec must round-trip");
            assert_eq!(back.len(), f.len(), "decoded frame lost messages");
        }
    }
    let per = |name: &str| tr.total_ns(name) as f64 / (frames.len() * rounds).max(1) as f64;
    CodecProbe {
        encode_ns: per("proto.encode"),
        decode_ns: per("proto.decode"),
    }
}

/// Fires events of a scheduled space until `pick` stops, nothing is
/// enabled, or — with `until_settled` — every planned operation has
/// responded (where the explorer ends a path); returns the number of
/// events fired. `enabled_events` and `fire` are spans of their own
/// (`simnet.enabled`, `simnet.fire`).
///
/// # Panics
///
/// If the space rejects an event it listed as enabled.
pub fn drive<A: Automaton>(
    space: &mut SimSpace<A>,
    mut pick: impl FnMut(&[EnabledEvent]) -> Option<ScheduleStep>,
    until_settled: bool,
    tr: &mut Tracer,
) -> u64 {
    let mut fired = 0u64;
    while !(until_settled && space.plan_settled()) {
        let enabled = tr.span("simnet.enabled", fired, |_| space.enabled_events());
        let Some(step) = pick(&enabled) else {
            break;
        };
        tr.span("simnet.fire", fired, |_| space.fire(step))
            .expect("listed events are fireable");
        fired += 1;
    }
    fired
}

/// The virtual-time order: the engine's default replay.
pub fn virtual_time(enabled: &[EnabledEvent]) -> Option<ScheduleStep> {
    match VirtualTimeScheduler.decide(enabled) {
        SchedDecision::Fire(step) => Some(step),
        SchedDecision::Stop => None,
    }
}

/// A uniformly random enabled event.
pub fn random(rng: &mut Rng) -> impl FnMut(&[EnabledEvent]) -> Option<ScheduleStep> + '_ {
    move |enabled| (!enabled.is_empty()).then(|| enabled[rng.below(enabled.len())].step())
}

/// Plans `ops` on a fresh scheduled space and drives it to quiescence in
/// virtual-time order; returns events fired.
pub fn scheduled_run<A: Automaton<Value = u64>>(
    mut space: SimSpace<A>,
    ops: &[OpSpec],
    tr: &mut Tracer,
) -> (SimSpace<A>, u64) {
    for o in ops {
        space.plan_op(o.proc, o.reg, o.op.clone());
    }
    let fired = drive(&mut space, virtual_time, false, tr);
    (space, fired)
}

/// Maps a multi-register script onto register 0 of a single-register
/// SWMR deployment written by `writer`: reads keep their process, writes
/// move to the writer.
pub fn onto_one_register(ops: &[OpSpec], writer: ProcessId) -> Vec<OpSpec> {
    ops.iter()
        .map(|o| OpSpec {
            proc: if o.is_read() { o.proc } else { writer },
            reg: RegisterId::ZERO,
            op: o.op.clone(),
        })
        .collect()
}
