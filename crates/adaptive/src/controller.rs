//! The adaptive optimization controller.
//!
//! Drives the feedback loop of a Jikes-RVM-style adaptive optimization
//! system over repeated program iterations (modeling the steady-state
//! methodology of §6.3: iterate the workload, let the system warm up,
//! measure late iterations):
//!
//! 1. run the program with a [`HotMethodSampler`] (where is time spent?)
//!    and a DCG profiler (where do calls go?);
//! 2. promote methods whose sample counts justify recompilation, using a
//!    cost/benefit test in the spirit of Arnold–Hind;
//! 3. recompile: `Opt1` runs the local optimizer on the method, `Opt2`
//!    additionally applies profile-directed inlining into it;
//! 4. repeat — later iterations execute the *transformed* program, so
//!    speedups are computed, not asserted.

use crate::levels::OptLevel;
use crate::sampler::HotMethodSampler;
use cbs_bytecode::{MethodId, Program};
use cbs_dcg::DynamicCallGraph;
use cbs_inliner::{
    apply_round, plan_round, CompileTimeModel, InlineBudget, InlinePolicy, InlineReport,
    NewLinearPolicy,
};
use cbs_opt::Optimizer;
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler};
use cbs_vm::{ExecReport, Vm, VmConfig, VmError};
use std::collections::HashSet;

/// Configuration of the adaptive system.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// VM configuration used for every iteration.
    pub vm: VmConfig,
    /// DCG profiler configuration (the paper's CBS feeds the inliner).
    pub cbs: CbsConfig,
    /// Timer samples a method needs before promotion to `Opt1`.
    pub promote_o1_samples: u64,
    /// Timer samples a method needs before promotion to `Opt2`.
    pub promote_o2_samples: u64,
    /// Inlining policy used at `Opt2`.
    pub inline_policy: NewLinearPolicy,
    /// Inlining budget at `Opt2`.
    pub inline_budget: InlineBudget,
    /// Compile-time model for the cost side of the ledger.
    pub compile_model: CompileTimeModel,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            vm: VmConfig::default(),
            cbs: CbsConfig::default(),
            promote_o1_samples: 2,
            promote_o2_samples: 8,
            inline_policy: NewLinearPolicy::default(),
            inline_budget: InlineBudget::default(),
            compile_model: CompileTimeModel::default(),
        }
    }
}

/// Result of one adaptive iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Execution report for this iteration (of the program as compiled at
    /// iteration start).
    pub exec: ExecReport,
    /// Methods promoted after this iteration, with their new levels.
    pub promotions: Vec<(MethodId, OptLevel)>,
    /// Simulated cycles spent recompiling after this iteration.
    pub compile_cycles: f64,
    /// Profiling overhead cycles accrued this iteration.
    pub profile_overhead_cycles: u64,
}

/// The adaptive optimization system: owns an evolving program.
#[derive(Debug)]
pub struct AdaptiveSystem {
    program: Program,
    config: AdaptiveConfig,
    levels: Vec<OptLevel>,
    samples: Vec<u64>,
    dcg: DynamicCallGraph,
    guarded_sites: HashSet<cbs_bytecode::CallSiteId>,
    iterations_run: usize,
    total_compile_cycles: f64,
    /// The pass pipeline every recompilation runs.
    optimizer: Optimizer,
}

impl AdaptiveSystem {
    /// Creates a system around a program; all methods start at baseline.
    pub fn new(program: Program, config: AdaptiveConfig) -> Self {
        let n = program.num_methods();
        Self {
            program,
            config,
            levels: vec![OptLevel::Baseline; n],
            samples: vec![0; n],
            dcg: DynamicCallGraph::new(),
            guarded_sites: HashSet::new(),
            iterations_run: 0,
            total_compile_cycles: 0.0,
            optimizer: Optimizer::new(),
        }
    }

    /// The program as currently compiled.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A method's current level.
    pub fn level(&self, method: MethodId) -> OptLevel {
        self.levels.get(method.index()).copied().unwrap_or_default()
    }

    /// The accumulated dynamic call graph.
    pub fn dcg(&self) -> &DynamicCallGraph {
        &self.dcg
    }

    /// Iterations run so far.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Total simulated recompilation cycles so far.
    pub fn total_compile_cycles(&self) -> f64 {
        self.total_compile_cycles
    }

    /// Runs one iteration: execute, sample, promote, recompile.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] trap from the program.
    pub fn run_iteration(&mut self) -> Result<IterationReport, VmError> {
        // 1. Execute with both profilers attached.
        let mut profilers = IterationProfilers {
            hot: HotMethodSampler::new(),
            cbs: CounterBasedSampler::new(self.config.cbs.clone()),
        };
        let exec = Vm::new(&self.program, self.config.vm.clone()).run_with(&mut profilers)?;

        let profile_overhead = profilers.cbs.overhead_cycles();
        // Merge this iteration's DCG into the continuous profile (the
        // paper's mechanism profiles continuously; old data decays).
        self.dcg.decay(0.9, 1e-6);
        self.dcg.merge(&profilers.cbs.take_dcg());
        let hot = profilers.hot;

        // 2. Accumulate method samples and decide promotions.
        for (m, n) in hot.hot_methods(1) {
            self.samples[m.index()] += n;
        }
        let mut promotions = Vec::new();
        let mut compile_cycles = 0.0;
        for i in 0..self.program.num_methods() {
            let m = MethodId::new(i as u32);
            let s = self.samples[i];
            let target = if s >= self.config.promote_o2_samples {
                OptLevel::Opt2
            } else if s >= self.config.promote_o1_samples {
                OptLevel::Opt1
            } else {
                OptLevel::Baseline
            };
            while self.levels[i] < target {
                let next = self.levels[i].next().expect("target above current");
                compile_cycles += self.recompile(m, next);
                self.levels[i] = next;
                promotions.push((m, next));
            }
        }

        self.iterations_run += 1;
        self.total_compile_cycles += compile_cycles;
        Ok(IterationReport {
            exec,
            promotions,
            compile_cycles,
            profile_overhead_cycles: profile_overhead,
        })
    }

    /// Recompiles `method` at `level`, returning the simulated compile
    /// cost.
    fn recompile(&mut self, method: MethodId, level: OptLevel) -> f64 {
        match level {
            OptLevel::Baseline => {}
            OptLevel::Opt1 => {
                self.optimizer.optimize_method(&mut self.program, method);
            }
            OptLevel::Opt2 => {
                // Profile-directed inlining into this method only.
                let decisions = plan_round(
                    &self.program,
                    Some(&self.dcg),
                    &self.config.inline_policy as &dyn InlinePolicy,
                    &self.config.inline_budget,
                    &self.guarded_sites,
                )
                .into_iter()
                .filter(|d| d.caller == method)
                .collect();
                apply_round(
                    &mut self.program,
                    decisions,
                    &mut self.guarded_sites,
                    &mut InlineReport::default(),
                );
                self.optimizer.optimize_method(&mut self.program, method);
            }
        }
        self.config
            .compile_model
            .method_cost(self.program.method(method).size_bytes())
            * level.compile_expense()
    }
}

/// The pair of profilers one adaptive iteration runs with: a hot-method
/// sampler for recompilation decisions and a CBS sampler for the DCG.
#[derive(Debug)]
struct IterationProfilers {
    hot: HotMethodSampler,
    cbs: CounterBasedSampler,
}

impl cbs_vm::Profiler for IterationProfilers {
    fn on_tick(&mut self, clock: u64, thread: cbs_vm::ThreadId, stack: cbs_vm::StackSlice<'_>) {
        self.hot.on_tick(clock, thread, stack);
        self.cbs.on_tick(clock, thread, stack);
    }
    fn on_entry(&mut self, event: &cbs_vm::CallEvent<'_>) {
        self.cbs.on_entry(event);
    }
    fn on_exit(&mut self, event: &cbs_vm::CallEvent<'_>) {
        self.cbs.on_exit(event);
    }
    /// Only CBS takes entries and exits; the hot-method sampler reads ticks.
    fn armed(&self, thread: cbs_vm::ThreadId) -> bool {
        self.cbs.armed(thread)
    }
    fn on_finish(&mut self, clock: u64) {
        self.hot.on_finish(clock);
        self.cbs.on_finish(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;

    fn hot_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 1);
        let getter = b
            .function("getter", cls, 1, 0, |c| {
                c.load(0).get_field(0).ret();
            })
            .unwrap();
        let work = b
            .function("work", cls, 1, 1, |c| {
                c.load(0).call(getter).const_(3).mul().store(1);
                c.load(1).const_(1).add().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 3, |c| {
                c.new_object(cls).store(1);
                c.counted_loop(0, 300_000, |c| {
                    c.load(1).call(work).store(2);
                });
                c.load(2).ret();
            })
            .unwrap();
        b.set_entry(main);
        let _ = work;
        b.build().unwrap()
    }

    #[test]
    fn adaptive_system_promotes_and_speeds_up() {
        let mut sys = AdaptiveSystem::new(hot_loop_program(), AdaptiveConfig::default());
        let first = sys.run_iteration().unwrap();
        // Enough ticks must have occurred to find the hot loop.
        assert!(first.exec.ticks > 10);
        let mut last = first.exec.cycles;
        for _ in 0..3 {
            last = sys.run_iteration().unwrap().exec.cycles;
        }
        assert!(sys.iterations_run() == 4);
        let main = sys.program().entry();
        assert!(
            sys.level(main) >= OptLevel::Opt1,
            "hot entry method promoted, got {}",
            sys.level(main)
        );
        assert!(
            last < first.exec.cycles,
            "steady state must be faster: first={} last={last}",
            first.exec.cycles
        );
        assert!(sys.total_compile_cycles() > 0.0);
    }

    #[test]
    fn results_stay_correct_across_recompilation() {
        let mut sys = AdaptiveSystem::new(hot_loop_program(), AdaptiveConfig::default());
        let first = sys.run_iteration().unwrap().exec.return_values;
        for _ in 0..3 {
            let r = sys.run_iteration().unwrap();
            assert_eq!(
                r.exec.return_values, first,
                "recompilation changed semantics"
            );
        }
    }

    /// `IterationProfilers::armed` spares only events neither sampler
    /// acts on: the pair on its own and the same pair behind a forwarder
    /// that keeps the default `armed` end bit-identical, and the gate did
    /// spare events.
    #[test]
    fn armed_gating_changes_nothing_an_iteration_keeps() {
        use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId, VmFlavor};
        struct AlwaysArmed(IterationProfilers, u64);
        impl Profiler for AlwaysArmed {
            fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
                self.0.on_tick(clock, thread, stack);
            }
            fn on_entry(&mut self, event: &CallEvent<'_>) {
                self.1 += u64::from(!self.0.armed(event.thread));
                self.0.on_entry(event);
            }
            fn on_exit(&mut self, event: &CallEvent<'_>) {
                self.1 += u64::from(!self.0.armed(event.thread));
                self.0.on_exit(event);
            }
            fn on_finish(&mut self, clock: u64) {
                self.0.on_finish(clock);
            }
        }
        let residue = |p: &IterationProfilers| {
            let dcg = p.cbs.dcg();
            (
                dcg.iter()
                    .map(|(e, w)| (*e, w.to_bits()))
                    .collect::<Vec<_>>(),
                dcg.total_weight().to_bits(),
                p.cbs.samples_taken(),
                p.cbs.overhead_cycles(),
                p.hot.hot_methods(1),
            )
        };
        let mk = || IterationProfilers {
            hot: HotMethodSampler::new(),
            cbs: CounterBasedSampler::new(CbsConfig::new(3, 16)),
        };
        let program = hot_loop_program();
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let config = VmConfig {
                flavor,
                num_threads: 2,
                timer_hz: 2_000,
                ..VmConfig::default()
            };
            let vm = Vm::new(&program, config);
            let mut gated = mk();
            let mut ungated = AlwaysArmed(mk(), 0);
            assert_eq!(
                vm.run_with(&mut gated).unwrap(),
                vm.run_with(&mut ungated).unwrap(),
                "{flavor:?}"
            );
            assert_eq!(residue(&gated), residue(&ungated.0), "{flavor:?}");
            assert!(gated.cbs.samples_taken() > 0 && gated.hot.total() > 0);
            assert!(ungated.1 > 0, "{flavor:?}: the gate spared events");
        }
    }

    #[test]
    fn cold_methods_stay_at_baseline() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let cold = b
            .function("cold", cls, 0, 0, |c| {
                c.const_(1).ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.call(cold).pop();
                c.counted_loop(0, 100_000, |c| {
                    c.const_(1).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let mut sys = AdaptiveSystem::new(b.build().unwrap(), AdaptiveConfig::default());
        for _ in 0..2 {
            sys.run_iteration().unwrap();
        }
        assert_eq!(sys.level(cold), OptLevel::Baseline);
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;

    #[test]
    fn promotion_thresholds_are_respected() {
        // With an unreachable O2 threshold, nothing passes Opt1.
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 400_000, |c| {
                    c.const_(1).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let config = AdaptiveConfig {
            promote_o1_samples: 1,
            promote_o2_samples: u64::MAX,
            ..AdaptiveConfig::default()
        };
        let mut sys = AdaptiveSystem::new(b.build().unwrap(), config);
        for _ in 0..3 {
            sys.run_iteration().unwrap();
        }
        assert_eq!(sys.level(main), OptLevel::Opt1);
    }

    #[test]
    fn iteration_report_accounts_profiling_overhead() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 0, 0, |c| {
                c.const_(1).ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 200_000, |c| {
                    c.call(f).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let mut sys = AdaptiveSystem::new(b.build().unwrap(), AdaptiveConfig::default());
        let r = sys.run_iteration().unwrap();
        assert!(
            r.profile_overhead_cycles > 0,
            "CBS sampled, so it cost something"
        );
        assert!(
            (r.profile_overhead_cycles as f64) < r.exec.cycles as f64 * 0.02,
            "profiling stays under 2%: {} of {}",
            r.profile_overhead_cycles,
            r.exec.cycles
        );
    }
}
