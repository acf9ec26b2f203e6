//! Code-patching burst profiling — the Suganuma et al. baseline (§3.2).
//!
//! A method is not profiled during its early executions (skipping
//! initialization behavior, as their system skips methods below the first
//! optimization level). Once a method's invocation count crosses the
//! warmup threshold, a listener is installed in its prologue by code
//! patching; the listener records the caller–callee edge on every
//! invocation until a fixed number of samples have been collected, then
//! uninstalls itself by patching the prologue back.
//!
//! The paper's two criticisms are directly observable here: profiling is
//! delayed (short-running programs exit before methods warm up), and the
//! whole sample budget is collected in one rapid burst (a non-representative
//! phase can dominate the profile).

use crate::costs::{OverheadMeter, ProfilingCosts};
use crate::traits::CallGraphProfiler;
use cbs_bytecode::MethodId;
use cbs_dcg::DynamicCallGraph;
use cbs_vm::{CallEvent, Profiler};
use std::collections::HashMap;

/// Configuration of a [`CodePatchingProfiler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchingConfig {
    /// Invocations of a method before its listener is installed (models
    /// "reached a certain level of optimization").
    pub warmup_invocations: u64,
    /// Samples the listener collects before uninstalling itself.
    pub burst_samples: u32,
    /// Cost model.
    pub costs: ProfilingCosts,
}

impl Default for PatchingConfig {
    fn default() -> Self {
        Self {
            warmup_invocations: 500,
            burst_samples: 100,
            costs: ProfilingCosts::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum MethodState {
    /// Still warming up: invocation count so far.
    Cold(u64),
    /// Listener installed: samples remaining.
    Listening(u32),
    /// Listener uninstalled; never re-installed.
    Done,
}

/// The burst listener profiler.
#[derive(Debug, Default)]
pub struct CodePatchingProfiler {
    config: PatchingConfig,
    states: HashMap<MethodId, MethodState>,
    dcg: DynamicCallGraph,
    meter: OverheadMeter,
    samples: u64,
}

impl CodePatchingProfiler {
    /// Creates a profiler with the default warmup/burst parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler with an explicit configuration.
    pub fn with_config(config: PatchingConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PatchingConfig {
        &self.config
    }
}

impl Profiler for CodePatchingProfiler {
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        let callee = event.edge.callee;
        let state = self.states.entry(callee).or_insert(MethodState::Cold(0));
        match *state {
            MethodState::Cold(n) => {
                let n = n + 1;
                if n >= self.config.warmup_invocations {
                    // Install the listener by patching the prologue.
                    self.meter.charge(self.config.costs.patch_millicycles);
                    *state = MethodState::Listening(self.config.burst_samples);
                } else {
                    *state = MethodState::Cold(n);
                }
            }
            MethodState::Listening(left) => {
                // The listener runs on every invocation while installed.
                self.meter.charge(self.config.costs.instrument_millicycles);
                self.dcg.record_sample(event.edge);
                self.samples += 1;
                if left <= 1 {
                    // Uninstall by patching the prologue back.
                    self.meter.charge(self.config.costs.patch_millicycles);
                    *state = MethodState::Done;
                } else {
                    *state = MethodState::Listening(left - 1);
                }
            }
            MethodState::Done => {}
        }
    }
}

impl CallGraphProfiler for CodePatchingProfiler {
    fn name(&self) -> String {
        format!(
            "patching(warmup={},burst={})",
            self.config.warmup_invocations, self.config.burst_samples
        )
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
    use cbs_bytecode::CallSiteId;
    use cbs_dcg::CallEdge;
    use cbs_vm::{Frame, StackSlice, ThreadId};

    fn ev<'a>(frames: &'a [Frame], caller: u32, callee: u32) -> CallEvent<'a> {
        CallEvent {
            edge: CallEdge::new(
                MethodId::new(caller),
                CallSiteId::new(caller),
                MethodId::new(callee),
            ),
            clock: 0,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(frames),
        }
    }

    fn profiler(warmup: u64, burst: u32) -> CodePatchingProfiler {
        CodePatchingProfiler::with_config(PatchingConfig {
            warmup_invocations: warmup,
            burst_samples: burst,
            costs: ProfilingCosts::default(),
        })
    }

    #[test]
    fn cold_methods_not_profiled() {
        let mut p = profiler(10, 5);
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..9 {
            p.on_entry(&ev(&frames, 0, 1));
        }
        assert!(p.dcg().is_empty(), "still warming up");
        assert_eq!(p.samples_taken(), 0);
    }

    #[test]
    fn burst_collects_then_uninstalls() {
        let mut p = profiler(10, 5);
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..50 {
            p.on_entry(&ev(&frames, 0, 1));
        }
        assert_eq!(p.samples_taken(), 5, "exactly the burst budget");
        // Further invocations after uninstall are free and unrecorded.
        let before = p.overhead_cycles();
        for _ in 0..100 {
            p.on_entry(&ev(&frames, 0, 1));
        }
        assert_eq!(p.overhead_cycles(), before);
        assert_eq!(p.samples_taken(), 5);
    }

    #[test]
    fn burst_captures_phase_bias() {
        // During the burst, only caller m2 is active; afterwards m3 calls
        // the method a thousand times. The burst profile misattributes
        // everything to m2 — the paper's "short profiling window" hazard.
        let mut p = profiler(5, 10);
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..15 {
            p.on_entry(&ev(&frames, 2, 1));
        }
        for _ in 0..1000 {
            p.on_entry(&ev(&frames, 3, 1));
        }
        let edges = p.dcg().edges_by_weight();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].0.caller, MethodId::new(2));
    }

    #[test]
    fn per_method_states_are_independent() {
        let mut p = profiler(3, 2);
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for _ in 0..10 {
            p.on_entry(&ev(&frames, 0, 1));
        }
        for _ in 0..2 {
            p.on_entry(&ev(&frames, 0, 2));
        }
        // m1 spent its whole burst; m2 is still cold.
        assert_eq!(p.samples_taken(), 2);
        assert_eq!(p.dcg().incoming_weight(MethodId::new(2)), 0.0);
    }
}
