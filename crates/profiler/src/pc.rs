//! Whaley-style PC sampling (§3.3).
//!
//! A separate sampling thread periodically observes each program thread's
//! program counter and stack and records what it sees; the program threads
//! do no profiling work and are unaware they were sampled. The mechanism
//! reports *where time is spent*, which is the wrong quantity for call
//! *frequency*: in the Figure 1 program it finds `M()` perpetually at the
//! top of the stack and misses almost every call to `call_1`/`call_2`.
//!
//! Each sample records the full stack: the path goes into a
//! [`CallingContextTree`] (Whaley's system built a context tree) and every
//! edge on the path gets one count in the flat DCG view.

use crate::traits::CallGraphProfiler;
use cbs_dcg::{CallEdge, CallingContextTree, DynamicCallGraph};
use cbs_vm::{Profiler, StackSlice, ThreadId};

/// The asynchronous top-of-stack sampler.
#[derive(Debug, Default)]
pub struct PcSampler {
    cct: CallingContextTree,
    dcg: DynamicCallGraph,
    samples: u64,
}

impl PcSampler {
    /// Creates a sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling context tree built from the samples.
    pub fn cct(&self) -> &CallingContextTree {
        &self.cct
    }
}

impl Profiler for PcSampler {
    fn on_tick(&mut self, _clock: u64, _thread: ThreadId, stack: StackSlice<'_>) {
        self.samples += 1;
        let path = stack.context_path();
        self.cct.add_sample(&path);
        for pair in path.windows(2) {
            self.dcg
                .record_sample(CallEdge::new(pair[0].method, pair[1].site, pair[1].method));
        }
    }
}

impl CallGraphProfiler for PcSampler {
    fn name(&self) -> String {
        "pc-sampling".to_owned()
    }

    fn dcg(&self) -> &DynamicCallGraph {
        &self.dcg
    }

    fn take_dcg(&mut self) -> DynamicCallGraph {
        self.cct = CallingContextTree::new();
        std::mem::take(&mut self.dcg)
    }

    fn overhead_cycles(&self) -> u64 {
        // The program threads perform no profiling work; the sampling
        // thread's cost lands on another core. (Whaley reports <1%.)
        0
    }

    fn samples_taken(&self) -> u64 {
        self.samples
    }

    /// The tick *is* the sample: it walks the interrupted stack.
    fn tick_reads_stack(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_vm::Frame;

    fn stack(methods: &[u32]) -> Vec<Frame> {
        let inner = methods.len() - 1;
        (methods.iter().enumerate())
            .map(|(i, &m)| {
                let site = (i < inner).then(|| CallSiteId::new(i as u32));
                Frame::new(MethodId::new(m), 0, site)
            })
            .collect()
    }

    #[test]
    fn tick_records_full_stack() {
        let mut s = PcSampler::new();
        let frames = stack(&[0, 1, 2]);
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        assert_eq!(s.samples_taken(), 1);
        assert_eq!(s.cct().max_depth(), 3);
        // Edges m0->m1 and m1->m2 each witnessed once.
        assert_eq!(s.dcg().num_edges(), 2);
        assert_eq!(s.dcg().total_weight(), 2.0);
    }

    #[test]
    fn flat_dcg_matches_cct_collapse() {
        let mut s = PcSampler::new();
        for methods in [&[0, 1, 2][..], &[0, 1][..], &[0, 3][..]] {
            let frames = stack(methods);
            s.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        }
        let collapsed = s.cct().to_dcg();
        assert!((cbs_dcg::overlap(s.dcg(), &collapsed) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_top_of_stack_biases_dcg() {
        // Simulates Figure 1: ticks always land while M (m1) is running;
        // the short calls are never on the stack at tick time.
        let mut s = PcSampler::new();
        let frames = stack(&[0, 1]);
        for _ in 0..10 {
            s.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        }
        assert_eq!(s.dcg().num_edges(), 1, "only main->M observed");
        assert_eq!(s.dcg().total_weight(), 10.0);
    }

    #[test]
    fn take_dcg_resets() {
        let mut s = PcSampler::new();
        let frames = stack(&[0, 1]);
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        let g = s.take_dcg();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(s.cct().num_nodes(), 1, "tree reset to root");
        assert!(s.dcg().is_empty());
    }

    #[test]
    fn zero_overhead_on_program_threads() {
        let s = PcSampler::new();
        assert_eq!(s.overhead_cycles(), 0);
    }
}
