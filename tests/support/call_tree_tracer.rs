//! Exact per-method time attribution from entry/exit events: the oracle
//! `sampling_properties` holds the timer's tick histogram to.
//!
//! The tracer pairs every method entry with its exit and charges the
//! elapsed virtual cycles to the method — *exclusive* time (cycles while
//! the method itself was on top) and *inclusive* time (callees included).
//!
//! It closes an argument from §3.3: timer-based sampling **is** a
//! faithful estimator of where *time* goes (the tick histogram converges
//! to the exact exclusive-time distribution) even though it is a
//! *biased* estimator of call frequency. Same trigger, right metric vs
//! wrong metric.
//!
//! Requires the Jikes hosting flavor (exit events); on the J9 flavor the
//! tracer sees no exits and reports nothing.

use cbs_bytecode::MethodId;
use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId};
use std::collections::HashMap;

/// Per-method time totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MethodTime {
    /// Cycles with this method on top of the stack.
    pub(crate) exclusive: u64,
    /// Cycles between entry and exit (callees included).
    pub(crate) inclusive: u64,
    /// Completed invocations.
    pub(crate) invocations: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenFrame {
    method: MethodId,
    entered_at: u64,
    /// Cycles consumed by completed callees of this frame.
    callee_cycles: u64,
}

/// The call-tree tracer.
#[derive(Debug, Default)]
pub(crate) struct CallTreeTracer {
    stacks: HashMap<ThreadId, Vec<OpenFrame>>,
    times: HashMap<MethodId, MethodTime>,
}

impl CallTreeTracer {
    /// Creates an empty tracer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Time totals for one method (zeroes if never completed).
    pub(crate) fn time_of(&self, method: MethodId) -> MethodTime {
        self.times.get(&method).copied().unwrap_or_default()
    }

    /// All recorded methods with their totals, hottest (by exclusive
    /// time) first.
    pub(crate) fn by_exclusive(&self) -> Vec<(MethodId, MethodTime)> {
        let mut v: Vec<(MethodId, MethodTime)> = self.times.iter().map(|(m, t)| (*m, *t)).collect();
        v.sort_unstable_by(|a, b| b.1.exclusive.cmp(&a.1.exclusive).then(a.0.cmp(&b.0)));
        v
    }

    /// Total exclusive cycles across completed invocations.
    pub(crate) fn total_exclusive(&self) -> u64 {
        self.times.values().map(|t| t.exclusive).sum()
    }
}

impl Profiler for CallTreeTracer {
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        self.stacks
            .entry(event.thread)
            .or_default()
            .push(OpenFrame {
                method: event.edge.callee,
                entered_at: event.clock,
                callee_cycles: 0,
            });
    }

    fn on_exit(&mut self, event: &CallEvent<'_>) {
        let stack = self.stacks.entry(event.thread).or_default();
        let Some(frame) = stack.pop() else { return };
        debug_assert_eq!(frame.method, event.edge.callee, "unbalanced entry/exit");
        let inclusive = event.clock.saturating_sub(frame.entered_at);
        let entry = self.times.entry(frame.method).or_default();
        entry.inclusive += inclusive;
        entry.exclusive += inclusive.saturating_sub(frame.callee_cycles);
        entry.invocations += 1;
        if let Some(parent) = stack.last_mut() {
            parent.callee_cycles += inclusive;
        }
    }

    fn on_tick(&mut self, _clock: u64, _thread: ThreadId, _stack: StackSlice<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;
    use cbs_vm::{Vm, VmConfig};

    #[test]
    fn attributes_inclusive_and_exclusive_time() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let inner = b
            .function("inner", cls, 0, 1, |c| {
                c.counted_loop(0, 50, |c| {
                    c.nop();
                });
                c.const_(1).ret();
            })
            .unwrap();
        let outer = b
            .function("outer", cls, 0, 0, |c| {
                c.call(inner).ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 100, |c| {
                    c.call(outer).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let mut tracer = CallTreeTracer::new();
        Vm::new(&p, VmConfig::default())
            .run_with(&mut tracer)
            .unwrap();

        let ti = tracer.time_of(inner);
        let to = tracer.time_of(outer);
        assert_eq!(ti.invocations, 100);
        assert_eq!(to.invocations, 100);
        // outer is a thin wrapper: nearly all its inclusive time is inner.
        assert!(to.inclusive > ti.inclusive);
        assert!(
            to.exclusive < to.inclusive / 5,
            "wrapper exclusive {} vs inclusive {}",
            to.exclusive,
            to.inclusive
        );
        // inner dominates the exclusive-time ranking.
        assert_eq!(tracer.by_exclusive()[0].0, inner);
        assert!(ti.exclusive as f64 > 0.6 * tracer.total_exclusive() as f64);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        // Defensive: an exit with no tracked entry must not panic.
        use cbs_bytecode::CallSiteId;
        use cbs_dcg::CallEdge;
        use cbs_vm::Frame;
        let mut t = CallTreeTracer::new();
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        let ev = CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1)),
            clock: 5,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(&frames),
        };
        t.on_exit(&ev);
        assert_eq!(t.total_exclusive(), 0);
    }
}
