//! Exhaustive call-edge profiling (§3.1).
//!
//! Counts every dynamic call. Two modes:
//!
//! * [`ExhaustiveMode::GroundTruth`] — the *perfect profile* the accuracy
//!   metric compares against. As a measurement artifact it charges no
//!   simulated overhead (the experimental harness uses it to know the true
//!   DCG, the way the paper's offline exhaustive runs do).
//! * [`ExhaustiveMode::Instrumented`] — models making exhaustive counting
//!   an *online* mechanism by instrumenting dispatch sites with counters,
//!   as the Vortex compiler did to Self-style PICs; every call charges an
//!   update, reproducing the reported 15–50% slowdowns.

use crate::costs::{OverheadMeter, ProfilingCosts};
use crate::traits::CallGraphProfiler;
use cbs_dcg::DynamicCallGraph;
use cbs_vm::{CallEvent, Profiler};

/// Whether exhaustive counting is a free measurement or a costed online
/// mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustiveMode {
    /// Perfect profile, no simulated cost (measurement artifact).
    #[default]
    GroundTruth,
    /// Online instrumentation: each call charges a counter update.
    Instrumented,
}

/// The exhaustive profiler.
#[derive(Debug, Default)]
pub struct ExhaustiveProfiler {
    mode: ExhaustiveMode,
    costs: ProfilingCosts,
    dcg: DynamicCallGraph,
    meter: OverheadMeter,
}

impl ExhaustiveProfiler {
    /// Creates a ground-truth profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler in the given mode with explicit costs.
    pub fn with_mode(mode: ExhaustiveMode, costs: ProfilingCosts) -> Self {
        Self {
            mode,
            costs,
            ..Self::default()
        }
    }

    /// The mode.
    pub fn mode(&self) -> ExhaustiveMode {
        self.mode
    }
}

impl Profiler for ExhaustiveProfiler {
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        if self.mode == ExhaustiveMode::Instrumented {
            self.meter.charge(self.costs.instrument_millicycles);
        }
        self.dcg.record_sample(event.edge);
    }
}

impl CallGraphProfiler for ExhaustiveProfiler {
    fn name(&self) -> String {
        match self.mode {
            ExhaustiveMode::GroundTruth => "exhaustive".to_owned(),
            ExhaustiveMode::Instrumented => "pic-counters".to_owned(),
        }
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
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_dcg::CallEdge;
    use cbs_vm::{Frame, StackSlice, ThreadId};

    fn ev<'a>(frames: &'a [Frame], callee: u32) -> CallEvent<'a> {
        CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(callee)),
            clock: 0,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(frames),
        }
    }

    #[test]
    fn counts_every_call_exactly() {
        let mut p = ExhaustiveProfiler::new();
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..7 {
            p.on_entry(&ev(&frames, 1));
        }
        for _ in 0..3 {
            p.on_entry(&ev(&frames, 2));
        }
        assert_eq!(p.dcg().total_weight(), 10.0);
        assert_eq!(p.overhead_cycles(), 0, "ground truth is free");
    }

    #[test]
    fn instrumented_mode_charges_per_call() {
        let costs = ProfilingCosts::default();
        let per_call = costs.instrument_millicycles;
        let mut p = ExhaustiveProfiler::with_mode(ExhaustiveMode::Instrumented, costs);
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..1000 {
            p.on_entry(&ev(&frames, 1));
        }
        assert_eq!(p.overhead_cycles(), 1000 * per_call / 1000);
        assert_eq!(p.name(), "pic-counters");
    }
}

/// Ground-truth *context-sensitive* profiling: records the full calling
/// context of every dynamic call into a [`CallingContextTree`].
///
/// Used as the reference the context-sensitive CBS extension is scored
/// against. Like [`ExhaustiveProfiler`], it is a measurement artifact and
/// charges no simulated overhead.
///
/// [`CallingContextTree`]: cbs_dcg::CallingContextTree
#[derive(Debug, Default)]
pub struct ExhaustiveCctProfiler {
    cct: cbs_dcg::CallingContextTree,
    calls: u64,
}

impl ExhaustiveCctProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The complete context tree.
    pub fn cct(&self) -> &cbs_dcg::CallingContextTree {
        &self.cct
    }

    /// Consumes the tree.
    pub fn take_cct(&mut self) -> cbs_dcg::CallingContextTree {
        std::mem::take(&mut self.cct)
    }

    /// Dynamic calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl Profiler for ExhaustiveCctProfiler {
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        self.calls += 1;
        self.cct.add_sample_iter(event.stack.context_steps());
    }
}

#[cfg(test)]
mod cct_tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;
    use cbs_vm::{Vm, VmConfig};

    #[test]
    fn exhaustive_cct_counts_every_call_in_context() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let g = b
            .function("g", cls, 0, 0, |c| {
                c.const_(1).ret();
            })
            .unwrap();
        let f = b
            .function("f", cls, 0, 0, |c| {
                c.call(g).ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 10, |c| {
                    c.call(f).pop();
                });
                c.call(g).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let mut prof = ExhaustiveCctProfiler::new();
        Vm::new(&p, VmConfig::default())
            .run_with(&mut prof)
            .unwrap();
        assert_eq!(prof.calls(), 21, "10×(f+g) + 1 direct g");
        // Contexts: main->f (10), main->f->g (10), main->g (1).
        assert_eq!(prof.cct().total_weight(), 21.0);
        assert_eq!(prof.cct().max_depth(), 3);
        let _ = (f, g, main);
    }
}
