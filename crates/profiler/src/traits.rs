//! The profiler result interface shared by every mechanism.

use cbs_dcg::DynamicCallGraph;
use cbs_vm::Profiler;

/// A call-graph profiler: a VM [`Profiler`] hook that accumulates a
/// [`DynamicCallGraph`] and accounts for its own simulated overhead.
///
/// This trait is object-safe so heterogeneous profiler sets can be
/// attached to one run through [`MultiProfiler`](crate::MultiProfiler).
pub trait CallGraphProfiler: Profiler {
    /// Short, stable mechanism name (e.g. `"cbs(3,16)"`) for reports.
    fn name(&self) -> String;

    /// The profile accumulated so far.
    fn dcg(&self) -> &DynamicCallGraph;

    /// Consumes the accumulated profile, leaving an empty one.
    fn take_dcg(&mut self) -> DynamicCallGraph;

    /// Simulated cycles this profiler's actions would have cost the VM.
    fn overhead_cycles(&self) -> u64;

    /// Number of call-stack samples taken (0 for exhaustive mechanisms,
    /// which count rather than sample).
    fn samples_taken(&self) -> u64;

    /// Whether `on_tick` reads the stack it is shown. A profiler whose
    /// tick reads only the thread can replay a timer of its own against
    /// another run's events
    /// ([`MultiProfiler::attach_with_timer`](crate::MultiProfiler::attach_with_timer));
    /// one that reads the stack at the tick cannot.
    fn tick_reads_stack(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Object safety: this must compile.
    fn _assert_object_safe(_p: &dyn CallGraphProfiler) {}

    struct Dummy(DynamicCallGraph);
    impl Profiler for Dummy {}
    impl CallGraphProfiler for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn dcg(&self) -> &DynamicCallGraph {
            &self.0
        }
        fn take_dcg(&mut self) -> DynamicCallGraph {
            std::mem::take(&mut self.0)
        }
        fn overhead_cycles(&self) -> u64 {
            0
        }
        fn samples_taken(&self) -> u64 {
            0
        }
    }

    #[test]
    fn take_dcg_leaves_empty() {
        let mut d = Dummy(DynamicCallGraph::new());
        d.0.record(
            cbs_dcg::CallEdge::new(
                cbs_bytecode::MethodId::new(0),
                cbs_bytecode::CallSiteId::new(0),
                cbs_bytecode::MethodId::new(1),
            ),
            1.0,
        );
        let g = d.take_dcg();
        assert_eq!(g.num_edges(), 1);
        assert!(d.dcg().is_empty());
    }
}
