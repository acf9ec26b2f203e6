//! Whole-program inlining: plan, apply, optimize.
//!
//! Each round scans every call instruction in the current program, asks
//! the policy for a decision, enforces the global [`InlineBudget`], and
//! applies the surviving decisions (highest pc first within each caller so
//! earlier indices stay valid). Multiple rounds give bounded transitive
//! inlining: sites spliced in by round *n* are candidates in round *n+1*,
//! and because call-site identities survive splicing, profile lookups keep
//! working on transformed code.

use crate::policy::{DirectContext, InlineBudget, InlinePolicy, VirtualContext, VirtualTarget};
use crate::transform::{apply_decision, InlineDecision, InlineKind};
use cbs_bytecode::{CallSiteId, ClassId, MethodId, Op, Program, VirtualSlot};
use cbs_dcg::DynamicCallGraph;
use cbs_opt::{OptStats, Optimizer};
use std::collections::{HashMap, HashSet};

/// The calling-sequence size under which a method is *trivial* and always
/// inlined, matching the §6.2 baseline configuration.
pub const TRIVIAL_SIZE: u32 = 12;

/// Summary of one whole-program inlining run.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineReport {
    /// Policy that produced the plan.
    pub policy: String,
    /// Direct/devirtualized splices applied.
    pub direct_inlines: usize,
    /// Guarded splices applied (counting one per site, not per guard).
    pub guarded_inlines: usize,
    /// Statically monomorphic virtual calls devirtualized.
    pub devirtualized: usize,
    /// Planning rounds that ran (≤ budget.rounds).
    pub rounds_run: u32,
    /// Total program size before, in bytecode bytes.
    pub size_before: u64,
    /// Total program size after inlining and optimization.
    pub size_after: u64,
    /// Optimizer statistics, when post-optimization ran.
    pub opt_stats: Option<OptStats>,
}

impl InlineReport {
    /// Total inlining actions applied.
    pub fn total_inlines(&self) -> usize {
        self.direct_inlines + self.guarded_inlines
    }

    /// Code growth factor (`size_after / size_before`).
    pub fn growth(&self) -> f64 {
        if self.size_before == 0 {
            1.0
        } else {
            self.size_after as f64 / self.size_before as f64
        }
    }
}

/// All classes whose vtable maps `slot` to `method` — the exact-class
/// guards that devirtualize this target.
pub(crate) fn guard_classes(
    program: &Program,
    slot: VirtualSlot,
    method: MethodId,
) -> Vec<ClassId> {
    program
        .classes()
        .iter()
        .filter(|c| c.resolve(slot) == Some(method))
        .map(|c| c.id())
        .collect()
}

/// Computes one round of inlining decisions against the current program.
///
/// `already_guarded` lists virtual sites that received a guard chain in an
/// earlier round; their slow-path dispatch keeps the original site id and
/// must not be guarded again.
pub fn plan_round(
    program: &Program,
    dcg: Option<&DynamicCallGraph>,
    policy: &dyn InlinePolicy,
    budget: &InlineBudget,
    already_guarded: &HashSet<CallSiteId>,
) -> Vec<InlineDecision> {
    let profiled = dcg.is_some_and(|g| !g.is_empty());
    let total_weight = dcg.map(|g| g.total_weight()).unwrap_or(0.0);
    let site_pct = |site| -> f64 {
        match dcg {
            Some(g) if total_weight > 0.0 => 100.0 * g.site_weight(site) / total_weight,
            _ => 0.0,
        }
    };

    let mut decisions = Vec::new();
    for caller in program.methods() {
        let caller_size = caller.size_bytes();
        // Candidates are gathered first, then admitted greedily hottest-
        // first under the caller-growth budget: the inliner spends its
        // budget according to the profile's own ranking, so a *biased*
        // profile wastes budget on the wrong sites — which is exactly how
        // inaccuracy costs performance in a real system.
        let mut candidates: Vec<(f64, u32, InlineDecision)> = Vec::new();
        for (pc, site, op) in caller.call_instructions() {
            match *op {
                Op::Call { target, .. } => {
                    if target == caller.id() {
                        continue; // direct recursion
                    }
                    let callee = program.method(target);
                    let callee_size = callee.size_bytes();
                    if callee_size > budget.max_inlined_body {
                        continue;
                    }
                    let ctx = DirectContext {
                        callee: target,
                        callee_size,
                        callee_is_trivial: callee.is_trivial(TRIVIAL_SIZE),
                        caller_size,
                        site_weight_pct: site_pct(site),
                        profiled,
                    };
                    if policy.should_inline_direct(&ctx) {
                        candidates.push((
                            site_pct(site),
                            callee_size,
                            InlineDecision {
                                caller: caller.id(),
                                pc,
                                kind: InlineKind::Direct { callee: target },
                            },
                        ));
                    }
                }
                Op::CallVirtual { slot, .. } => {
                    let static_targets = program.virtual_targets(slot);
                    if static_targets.len() == 1 {
                        // Statically monomorphic: devirtualize without a
                        // guard under the direct rules.
                        let target = static_targets[0];
                        if target == caller.id() {
                            continue;
                        }
                        let callee = program.method(target);
                        let callee_size = callee.size_bytes();
                        if callee_size > budget.max_inlined_body {
                            continue;
                        }
                        let ctx = DirectContext {
                            callee: target,
                            callee_size,
                            callee_is_trivial: callee.is_trivial(TRIVIAL_SIZE),
                            caller_size,
                            site_weight_pct: site_pct(site),
                            profiled,
                        };
                        if policy.should_inline_direct(&ctx) {
                            candidates.push((
                                site_pct(site),
                                callee_size,
                                InlineDecision {
                                    caller: caller.id(),
                                    pc,
                                    kind: InlineKind::Devirtualized { callee: target },
                                },
                            ));
                        }
                        continue;
                    }
                    // Polymorphic: consult the observed receiver
                    // distribution. A site that already carries a guard
                    // chain is its own slow path — leave it alone.
                    if already_guarded.contains(&site) {
                        continue;
                    }
                    let Some(g) = dcg else { continue };
                    let dist = g.site_distribution(site);
                    let site_total: f64 = dist.iter().map(|(_, w)| *w).sum();
                    if site_total <= 0.0 {
                        continue;
                    }
                    let ctx = VirtualContext {
                        targets: dist
                            .iter()
                            .map(|(m, w)| VirtualTarget {
                                callee: *m,
                                callee_size: program.method(*m).size_bytes(),
                                fraction: w / site_total,
                            })
                            .collect(),
                        site_weight_pct: site_pct(site),
                        caller_size,
                        profiled,
                    };
                    let chosen = policy.guarded_targets(&ctx);
                    if chosen.is_empty() {
                        continue;
                    }
                    let mut pairs: Vec<(ClassId, MethodId)> = Vec::new();
                    for m in chosen {
                        if m == caller.id() {
                            continue;
                        }
                        let classes = guard_classes(program, slot, m);
                        if classes.is_empty() || pairs.len() + classes.len() > budget.max_guards {
                            continue;
                        }
                        pairs.extend(classes.into_iter().map(|k| (k, m)));
                    }
                    if pairs.is_empty()
                        || pairs
                            .iter()
                            .any(|(_, m)| program.method(*m).size_bytes() > budget.max_inlined_body)
                    {
                        continue;
                    }
                    let added: u32 = pairs
                        .iter()
                        .map(|(_, m)| program.method(*m).size_bytes() + 8)
                        .sum();
                    candidates.push((
                        site_pct(site),
                        added,
                        InlineDecision {
                            caller: caller.id(),
                            pc,
                            kind: InlineKind::Guarded { targets: pairs },
                        },
                    ));
                }
                _ => {}
            }
        }
        // Greedy admission by descending claimed hotness (pc order breaks
        // ties deterministically). (f64 keys: sort_by with partial_cmp.)
        #[allow(clippy::unnecessary_sort_by)]
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("weights are finite")
                .then(a.2.pc.cmp(&b.2.pc))
        });
        let mut projected = caller_size;
        let growth_cap = caller_size.saturating_add(budget.max_caller_growth);
        for (_, added, decision) in candidates {
            let new_size = projected + added;
            if new_size <= budget.max_caller_size && new_size <= growth_cap {
                projected = new_size;
                decisions.push(decision);
            }
        }
    }
    decisions
}

/// Runs the full plan/apply/optimize pipeline with a policy.
///
/// When `optimize` is set, the `cbs-opt` pipeline runs once after all
/// rounds, collapsing the argument-marshalling traffic the splices
/// introduced.
pub fn inline_program(
    program: &mut Program,
    dcg: Option<&DynamicCallGraph>,
    policy: &dyn InlinePolicy,
    budget: &InlineBudget,
    optimize: bool,
) -> InlineReport {
    let size_before = program.total_size_bytes();
    let mut report = InlineReport {
        policy: policy.name(),
        direct_inlines: 0,
        guarded_inlines: 0,
        devirtualized: 0,
        rounds_run: 0,
        size_before,
        size_after: size_before,
        opt_stats: None,
    };

    let mut guarded_sites: HashSet<CallSiteId> = HashSet::new();
    for round in 1..=budget.rounds {
        let decisions = plan_round(program, dcg, policy, budget, &guarded_sites);
        if decisions.is_empty() {
            break;
        }
        report.rounds_run = round;
        apply_round(program, decisions, &mut guarded_sites, &mut report);
    }

    if optimize {
        report.opt_stats = Some(Optimizer::new().optimize_program(program));
    }
    report.size_after = program.total_size_bytes();
    report
}

/// Applies one round's worth of decisions, updating `guarded_sites` and
/// the report counters.
///
/// Shared by [`inline_program`] and the fleet-plan pipeline
/// ([`apply_plan`](crate::apply_plan)): guarded sites are recorded
/// before any splice moves them, then decisions group by caller and
/// apply highest pc first so earlier indices stay valid.
pub(crate) fn apply_round(
    program: &mut Program,
    decisions: Vec<InlineDecision>,
    guarded_sites: &mut HashSet<CallSiteId>,
    report: &mut InlineReport,
) {
    for d in &decisions {
        if let InlineKind::Guarded { .. } = d.kind {
            if let Some(op) = program.method(d.caller).code().get(d.pc as usize) {
                if let Some(site) = op.call_site() {
                    guarded_sites.insert(site);
                }
            }
        }
    }
    let mut by_caller: HashMap<MethodId, Vec<InlineDecision>> = HashMap::new();
    for d in decisions {
        by_caller.entry(d.caller).or_default().push(d);
    }
    let mut callers: Vec<MethodId> = by_caller.keys().copied().collect();
    callers.sort_unstable();
    for caller in callers {
        let mut ds = by_caller.remove(&caller).expect("key exists");
        ds.sort_unstable_by_key(|d| std::cmp::Reverse(d.pc));
        for d in ds {
            match apply_decision(program, &d) {
                Ok(()) => match d.kind {
                    InlineKind::Direct { .. } => report.direct_inlines += 1,
                    InlineKind::Devirtualized { .. } => {
                        report.direct_inlines += 1;
                        report.devirtualized += 1;
                    }
                    InlineKind::Guarded { .. } => report.guarded_inlines += 1,
                },
                Err(e) => {
                    // A decision invalidated by an earlier splice in
                    // the same round (should not happen with the
                    // ordering above) — surface loudly in debug.
                    debug_assert!(false, "inline decision failed: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{NewLinearPolicy, TrivialOnlyPolicy};
    use cbs_bytecode::ProgramBuilder;
    use cbs_dcg::CallEdge;
    use cbs_vm::{Value, Vm, VmConfig};

    /// main calls a small helper in a loop; helper calls a trivial getter.
    fn layered_program() -> (Program, MethodId, MethodId, MethodId) {
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
        (b.build().unwrap(), main, helper, getter)
    }

    fn profile(program: &Program) -> DynamicCallGraph {
        let mut ex = cbs_profiler_stub::Exhaustive::default();
        Vm::new(program, VmConfig::default()).run(&mut ex).unwrap();
        ex.dcg
    }

    /// Local exhaustive profiler to avoid a circular dev-dependency on
    /// cbs-profiler.
    mod cbs_profiler_stub {
        use cbs_dcg::DynamicCallGraph;
        use cbs_vm::{CallEvent, Profiler};

        #[derive(Debug, Default)]
        pub(super) struct Exhaustive {
            pub(super) dcg: DynamicCallGraph,
        }

        impl Profiler for Exhaustive {
            fn on_entry(&mut self, event: &CallEvent<'_>) {
                self.dcg.record_sample(event.edge);
            }
        }
    }

    #[test]
    fn trivial_only_inlines_just_the_getter() {
        let (mut p, main, helper, getter) = layered_program();
        let before = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        let report = inline_program(
            &mut p,
            None,
            &TrivialOnlyPolicy,
            &InlineBudget::default(),
            true,
        );
        assert!(report.direct_inlines >= 1);
        let after = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(before.return_values, after.return_values);
        // getter calls disappeared; helper calls remain.
        assert_eq!(after.invocations_of(getter), 0);
        assert_eq!(after.invocations_of(helper), 100);
        let _ = main;
    }

    #[test]
    fn profiled_linear_policy_flattens_the_whole_chain() {
        let (mut p, _main, helper, getter) = layered_program();
        let dcg = profile(&p);
        assert!(dcg.num_edges() >= 2);
        let before = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        let report = inline_program(
            &mut p,
            Some(&dcg),
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );
        assert!(report.rounds_run >= 1);
        let after = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(before.return_values, after.return_values);
        assert_eq!(after.invocations_of(helper), 0, "helper fully inlined");
        assert_eq!(after.invocations_of(getter), 0, "getter fully inlined");
        assert!(
            after.cycles < before.cycles,
            "inlining must reduce simulated time: {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn budget_caps_caller_growth() {
        let (mut p, _main, _helper, _getter) = layered_program();
        let dcg = profile(&p);
        let tight = InlineBudget {
            max_caller_size: 1, // nothing fits
            ..InlineBudget::default()
        };
        let report = inline_program(
            &mut p,
            Some(&dcg),
            &NewLinearPolicy::default(),
            &tight,
            false,
        );
        assert_eq!(report.total_inlines(), 0);
        assert_eq!(report.size_before, report.size_after);
    }

    #[test]
    fn devirtualizes_statically_monomorphic_virtual_calls() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 1);
        let only = b
            .function("C.get", cls, 1, 0, |c| {
                c.load(0).get_field(0).ret();
            })
            .unwrap();
        b.set_vtable(cls, cbs_bytecode::VirtualSlot::new(0), only);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.new_object(cls).store(0);
                c.load(0)
                    .call_virtual(cbs_bytecode::VirtualSlot::new(0), 1)
                    .ret();
            })
            .unwrap();
        b.set_entry(main);
        let mut p = b.build().unwrap();
        let report = inline_program(
            &mut p,
            None,
            &TrivialOnlyPolicy,
            &InlineBudget::default(),
            true,
        );
        assert_eq!(report.devirtualized, 1);
        let after = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(after.calls, 0);
        assert_eq!(after.return_values, vec![Value::Int(0)]);
    }

    #[test]
    fn guarded_inlining_from_profile_distribution() {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 1);
        let f_base = b
            .function("Base.f", base, 1, 0, |c| {
                c.load(0).get_field(0).const_(1).add().ret();
            })
            .unwrap();
        b.set_vtable(base, cbs_bytecode::VirtualSlot::new(0), f_base);
        let sub = b.add_subclass("Sub", base, 0);
        let f_sub = b
            .function("Sub.f", sub, 1, 0, |c| {
                c.load(0).get_field(0).const_(2).add().ret();
            })
            .unwrap();
        b.set_vtable(sub, cbs_bytecode::VirtualSlot::new(0), f_sub);
        let main = b
            .function("main", base, 0, 3, |c| {
                c.new_object(base).store(1);
                c.counted_loop(0, 50, |c| {
                    c.load(1)
                        .call_virtual(cbs_bytecode::VirtualSlot::new(0), 1)
                        .store(2);
                });
                c.load(2).ret();
            })
            .unwrap();
        b.set_entry(main);
        let _ = f_sub;
        let mut p = b.build().unwrap();
        let dcg = profile(&p);
        let report = inline_program(
            &mut p,
            Some(&dcg),
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );
        assert_eq!(report.guarded_inlines, 1, "report: {report:?}");
        let after = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(after.return_values, vec![Value::Int(1)]);
        assert_eq!(after.calls, 0, "guard always hits: dispatch gone");
    }

    #[test]
    fn report_growth_and_edge_profile_survive() {
        let (mut p, _main, _helper, _getter) = layered_program();
        let dcg = profile(&p);
        // Site-keyed weights still resolve after transformation because
        // sites keep their ids — spot-check via a second plan round.
        let report = inline_program(
            &mut p,
            Some(&dcg),
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            false,
        );
        assert!(report.growth() >= 1.0);
        let edge = CallEdge::new(
            MethodId::new(0),
            cbs_bytecode::CallSiteId::new(0),
            MethodId::new(0),
        );
        let _ = dcg.weight(&edge); // lookups remain valid
    }
}
