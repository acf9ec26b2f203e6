//! Timer-based DCG sampling — the Jikes RVM baseline (§3.3).
//!
//! A timer interrupt arms the thread; the *first* prologue/epilogue
//! yieldpoint executed afterwards takes one sample. This is exactly the
//! biased mechanism the paper's Figure 1 defeats: the sample always lands
//! on the first call after the tick, so calls that follow long non-call
//! regions are systematically over-represented (`call_1` looks hot,
//! `call_2` looks cold).
//!
//! Behaviorally this is [`CounterBasedSampler`] with `stride = 1,
//! samples_per_tick = 1`; it is implemented separately so the baseline is
//! independent of the contribution (and the equivalence is asserted by
//! integration tests).
//!
//! [`CounterBasedSampler`]: crate::CounterBasedSampler

use crate::costs::{OverheadMeter, ProfilingCosts};
use crate::traits::CallGraphProfiler;
use cbs_dcg::DynamicCallGraph;
use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId};

/// The timer-armed, next-yieldpoint sampler.
#[derive(Debug, Default)]
pub struct TimerSampler {
    costs: ProfilingCosts,
    armed: Vec<bool>,
    dcg: DynamicCallGraph,
    meter: OverheadMeter,
    samples: u64,
}

impl TimerSampler {
    /// Creates a sampler with default costs.
    pub fn new() -> Self {
        Self::default()
    }

    fn arm(&mut self, thread: ThreadId) {
        let idx = thread.index();
        if idx >= self.armed.len() {
            self.armed.resize(idx + 1, false);
        }
        self.armed[idx] = true;
    }

    fn disarm_if_armed(&mut self, thread: ThreadId) -> bool {
        match self.armed.get_mut(thread.index()) {
            Some(a) if *a => {
                *a = false;
                true
            }
            _ => false,
        }
    }

    fn sample(&mut self, event: &CallEvent<'_>) {
        if self.disarm_if_armed(event.thread) {
            self.meter
                .charge(self.costs.sample_cost_millicycles(event.stack.depth()));
            self.samples += 1;
            self.dcg.record_sample(event.edge);
        }
    }
}

impl Profiler for TimerSampler {
    fn on_tick(&mut self, _clock: u64, thread: ThreadId, _stack: StackSlice<'_>) {
        self.meter.charge(self.costs.tick_service_millicycles);
        self.arm(thread);
    }

    fn on_entry(&mut self, event: &CallEvent<'_>) {
        self.sample(event);
    }

    fn on_exit(&mut self, event: &CallEvent<'_>) {
        self.sample(event);
    }

    /// Armed from a tick to the one sample it pays for.
    #[inline]
    fn armed(&self, thread: ThreadId) -> bool {
        self.armed.get(thread.index()).copied().unwrap_or(false)
    }
}

impl CallGraphProfiler for TimerSampler {
    fn name(&self) -> String {
        "timer".to_owned()
    }

    fn dcg(&self) -> &DynamicCallGraph {
        &self.dcg
    }

    fn take_dcg(&mut self) -> DynamicCallGraph {
        std::mem::take(&mut self.dcg)
    }

    fn overhead_cycles(&self) -> u64 {
        self.meter.cycles()
    }

    fn samples_taken(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_dcg::CallEdge;
    use cbs_vm::Frame;

    fn frames() -> Vec<Frame> {
        vec![Frame::new(MethodId::new(0), 0, None)]
    }

    fn ev<'a>(frames: &'a [Frame], callee: u32, thread: u32) -> CallEvent<'a> {
        CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(callee)),
            clock: 0,
            thread: ThreadId(thread),
            stack: StackSlice::for_testing(frames),
        }
    }

    #[test]
    fn samples_only_first_event_after_tick() {
        let mut s = TimerSampler::new();
        let f = frames();
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&f));
        s.on_entry(&ev(&f, 1, 0)); // sampled
        s.on_entry(&ev(&f, 2, 0)); // ignored
        s.on_entry(&ev(&f, 3, 0)); // ignored
        assert_eq!(s.samples_taken(), 1);
        assert_eq!(
            s.dcg().edges_by_weight()[0].0.callee,
            MethodId::new(1),
            "bias: the first call after the tick is the one sampled"
        );
    }

    #[test]
    fn unarmed_thread_not_sampled() {
        let mut s = TimerSampler::new();
        let f = frames();
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&f));
        s.on_entry(&ev(&f, 1, 1)); // different thread: not armed
        assert_eq!(s.samples_taken(), 0);
        s.on_entry(&ev(&f, 1, 0));
        assert_eq!(s.samples_taken(), 1);
    }

    #[test]
    fn exit_events_also_sampleable() {
        let mut s = TimerSampler::new();
        let f = frames();
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&f));
        s.on_exit(&ev(&f, 4, 0));
        assert_eq!(s.samples_taken(), 1);
    }

    #[test]
    fn overhead_counts_ticks_and_samples() {
        let mut s = TimerSampler::new();
        let f = frames();
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&f));
        s.on_entry(&ev(&f, 1, 0));
        let expected =
            (s.costs.tick_service_millicycles + s.costs.sample_cost_millicycles(1)) / 1000;
        assert_eq!(s.overhead_cycles(), expected);
    }
}
