//! The fleet-plan consumption mode of the adaptive system.
//!
//! Where [`AdaptiveSystem`](crate::AdaptiveSystem) closes the loop
//! locally — profile this VM, inline from this VM's call graph — the
//! [`FleetAdaptiveController`] closes it against the *fleet*: the VM
//! pulls a versioned [`InlinePlan`] (built server-side from the pooled
//! profile by `cbs-profiled`) and applies it with
//! [`cbs_inliner::apply_plan`], which runs the inliner's one round
//! planner and rounds loop with the plan in place of a local call graph.
//! Size thresholds and growth budgets are re-checked here against the
//! actual program; the plan only supplies the pooled edge weights and
//! the 40%-rule receiver selections.

use crate::controller::AdaptiveConfig;
use cbs_bytecode::Program;
use cbs_inliner::{apply_plan, InlinePlan, InlinePolicy, InlineReport};
use cbs_vm::{ExecReport, Vm, VmError};

/// An adaptive controller in fleet mode: owns an evolving program that
/// is transformed by pulled fleet plans instead of a local DCG.
#[derive(Debug)]
pub struct FleetAdaptiveController {
    program: Program,
    config: AdaptiveConfig,
    applied_generation: Option<u64>,
    last_report: Option<InlineReport>,
}

impl FleetAdaptiveController {
    /// Creates a controller around an untransformed program.
    pub fn new(program: Program, config: AdaptiveConfig) -> Self {
        Self {
            program,
            config,
            applied_generation: None,
            last_report: None,
        }
    }

    /// The program as currently compiled.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The generation of the last plan applied, if any.
    pub fn applied_generation(&self) -> Option<u64> {
        self.applied_generation
    }

    /// The report of the last plan application, if any.
    pub fn last_report(&self) -> Option<&InlineReport> {
        self.last_report.as_ref()
    }

    /// Applies a pulled fleet plan to the program via the shared
    /// inlining pipeline, using the controller's configured policy and
    /// budget.
    ///
    /// Idempotent per generation: re-offering the plan generation that
    /// is already applied is a no-op (plans are deterministic per
    /// generation, and the splices already happened), so a VM can poll
    /// `pull_plan` freely and hand every answer here.
    ///
    /// Returns whether the plan was applied (false for the
    /// same-generation no-op).
    pub fn apply_fleet_plan(&mut self, plan: &InlinePlan) -> bool {
        if self.applied_generation == Some(plan.generation) {
            return false;
        }
        let report = apply_plan(
            &mut self.program,
            plan,
            &self.config.inline_policy as &dyn InlinePolicy,
            &self.config.inline_budget,
            true,
        );
        self.applied_generation = Some(plan.generation);
        self.last_report = Some(report);
        true
    }

    /// Runs the (transformed) program unprofiled, returning the
    /// execution report.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] trap from the program.
    pub fn run(&self) -> Result<ExecReport, VmError> {
        Vm::new(&self.program, self.config.vm.clone()).run_unprofiled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;
    use cbs_dcg::DynamicCallGraph;
    use cbs_inliner::{build_plan, NewLinearPolicy};

    fn chain_program() -> Program {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 1);
        let getter = b
            .function("getter", cls, 1, 0, |c| {
                c.load(0).get_field(0).ret();
            })
            .unwrap();
        let helper = b
            .function("helper", cls, 1, 0, |c| {
                c.load(0).call(getter).const_(1).add().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 3, |c| {
                c.new_object(cls).store(1);
                c.counted_loop(0, 100, |c| {
                    c.load(1).call(helper).store(2);
                });
                c.load(2).ret();
            })
            .unwrap();
        b.set_entry(main);
        b.build().unwrap()
    }

    fn profile_of(program: &Program) -> DynamicCallGraph {
        #[derive(Default)]
        struct Exhaustive {
            dcg: DynamicCallGraph,
        }
        impl cbs_vm::Profiler for Exhaustive {
            fn on_entry(&mut self, event: &cbs_vm::CallEvent<'_>) {
                self.dcg.record_sample(event.edge);
            }
        }
        let mut ex = Exhaustive::default();
        Vm::new(program, cbs_vm::VmConfig::default())
            .run_with(&mut ex)
            .unwrap();
        ex.dcg
    }

    #[test]
    fn fleet_plan_speeds_up_the_program_and_preserves_results() {
        let program = chain_program();
        let dcg = profile_of(&program);
        let plan = build_plan(&dcg, &NewLinearPolicy::default(), 5);

        let mut ctl = FleetAdaptiveController::new(program, AdaptiveConfig::default());
        let before = ctl.run().unwrap();
        assert!(ctl.apply_fleet_plan(&plan));
        assert_eq!(ctl.applied_generation(), Some(5));
        let report = ctl.last_report().unwrap();
        assert!(report.total_inlines() >= 2, "report: {report:?}");
        let after = ctl.run().unwrap();
        assert_eq!(before.return_values, after.return_values);
        assert!(
            after.cycles < before.cycles,
            "fleet inlining must reduce simulated time: {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn reapplying_the_same_generation_is_a_no_op() {
        let program = chain_program();
        let dcg = profile_of(&program);
        let plan = build_plan(&dcg, &NewLinearPolicy::default(), 1);
        let mut ctl = FleetAdaptiveController::new(program, AdaptiveConfig::default());
        assert!(ctl.apply_fleet_plan(&plan));
        let cycles = ctl.run().unwrap().cycles;
        assert!(!ctl.apply_fleet_plan(&plan), "same generation: no-op");
        assert_eq!(ctl.run().unwrap().cycles, cycles);
        // A new generation is applied again (even if the entries match).
        let plan2 = build_plan(&dcg, &NewLinearPolicy::default(), 2);
        assert!(ctl.apply_fleet_plan(&plan2));
    }
}
