//! Fleet inlining plans: policy decisions computed from a *pooled*
//! profile, shipped to VMs that re-apply them locally.
//!
//! The fleet daemon holds the merged dynamic call graph but not the
//! program, so the split of responsibilities is:
//!
//! * [`build_plan`] (server side) runs the receiver-distribution half of
//!   the policy — the paper's 40% guarded-inlining rule — against the
//!   pooled graph and records, per `(caller, site)`, which callees
//!   justified inlining and with what edge weights;
//! * [`apply_plan`] (VM side) replays the plan against the actual
//!   program through the one planner and rounds loop that
//!   [`inline_program`](crate::inline_program) also runs, re-checking
//!   every size threshold and growth budget that needs method bodies.
//!
//! Plans are deterministic: entries are sorted by `(caller, site)`, all
//! weights come from the merged snapshot, and the builder never consults
//! ambient state. Two builds against the same graph are identical, which
//! is what lets the daemon cache the encoded plan keyed on its snapshot
//! generation counter.

use crate::planner::{run_rounds, InlineReport, ProfileSource};
use crate::policy::{InlineBudget, InlinePolicy, VirtualContext, VirtualTarget};
use cbs_bytecode::{CallSiteId, MethodId, Program};
use cbs_dcg::DynamicCallGraph;
use std::fmt::Write as _;
use std::ops::Range;

/// What the fleet policy decided for one call site.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// The pooled profile observed exactly one callee at this site.
    Direct {
        /// The only observed callee.
        callee: MethodId,
    },
    /// The 40% rule selected a single dominant receiver out of several.
    Devirtualize {
        /// The dominant callee.
        callee: MethodId,
        /// Pooled edge weight that justified it.
        weight: f64,
    },
    /// The 40% rule selected multiple receivers for a guard chain.
    Guarded {
        /// Chosen callees with the pooled edge weights that justified
        /// them, heaviest first.
        targets: Vec<(MethodId, f64)>,
    },
}

/// One per-site decision in a fleet plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Method containing the call site (as observed in the profile).
    pub caller: MethodId,
    /// The call site the decision applies to.
    pub site: CallSiteId,
    /// Total pooled weight of the site across all observed callees.
    pub site_weight: f64,
    /// The decision.
    pub kind: PlanKind,
}

/// A versioned, deterministic fleet inlining plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InlinePlan {
    /// Aggregator snapshot generation the plan was built from.
    pub generation: u64,
    /// Total weight of the source graph (denominator for site
    /// percentages on the applying VM).
    pub total_weight: f64,
    /// Per-site decisions, sorted by `(caller, site)`.
    pub entries: Vec<PlanEntry>,
}

impl InlinePlan {
    /// True when the plan carries no decisions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the plan as deterministic human-readable text (the
    /// `dcgtool plan` output format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# cbs-inline-plan v1 generation={} total_weight={} entries={}",
            self.generation,
            self.total_weight,
            self.entries.len()
        );
        for e in &self.entries {
            let _ = write!(out, "{} {} weight={} ", e.caller, e.site, e.site_weight);
            match &e.kind {
                PlanKind::Direct { callee } => {
                    let _ = writeln!(out, "direct {callee}");
                }
                PlanKind::Devirtualize { callee, weight } => {
                    let _ = writeln!(out, "devirtualize {callee} weight={weight}");
                }
                PlanKind::Guarded { targets } => {
                    let _ = write!(out, "guarded");
                    for (m, w) in targets {
                        let _ = write!(out, " {m}:{w}");
                    }
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

/// Builds a fleet plan from a pooled call graph.
///
/// Runs the receiver-distribution half of `policy` (the 40% rule) per
/// site. Size thresholds cannot be checked here — the daemon has no
/// program — so target sizes are reported as 0 and the applying VM
/// re-runs the policy with real sizes. Sites whose pooled weight is not
/// positive, and polymorphic sites where the policy selects no target,
/// are omitted.
///
/// The sites are planned in the halves
/// [`DynamicCallGraph::read_halves`] cuts, on two cores for a large
/// graph. The cut falls between call sites, so each half plans whole
/// sites, and its entries, concatenated in order, are the ones one pass
/// makes.
pub fn build_plan(
    graph: &DynamicCallGraph,
    policy: &dyn InlinePolicy,
    generation: u64,
) -> InlinePlan {
    let total_weight = graph.total_weight();
    let plan = |range| plan_sites(graph, range, policy, total_weight);
    let (mut entries, tail) = graph.read_halves(plan, plan);
    entries.extend(tail.into_iter().flatten());
    InlinePlan {
        generation,
        total_weight,
        entries,
    }
}

/// The plan entries of the call sites at positions `range` of the
/// graph's ascending edge order, which must hold whole sites.
///
/// A polymorphic site's receivers are shown to the policy heaviest
/// first, but only those whose fraction is not below its
/// [`guard_floor`](InlinePolicy::guard_floor): fractions fall along the
/// heaviest-first order, so they are that order's prefix, and the policy
/// picks from the prefix what it would pick from the whole list. Only
/// the prefix is sorted — under the 40% rule, at most two receivers of
/// a site.
fn plan_sites(
    graph: &DynamicCallGraph,
    range: Range<usize>,
    policy: &dyn InlinePolicy,
    total_weight: f64,
) -> Vec<PlanEntry> {
    let mut entries = Vec::new();
    let floor = policy.guard_floor();
    // `iter_range` is ascending in `(caller, site, callee)`, so every
    // call site is one contiguous run, runs arrive in `(caller, site)`
    // order and each run's callees are ascending and distinct.
    let mut edges = graph.iter_range(range).filter(|&(_, w)| w > 0.0).peekable();
    // One site's receivers, in callee order.
    let mut receivers: Vec<(MethodId, f64)> = Vec::new();
    // The receivers the policy can pick, with their fractions, keyed by
    // the weight's bits inverted above the callee id. Weights are
    // positive, so their bits order as their values, and callees are
    // distinct within a site, so ascending keys are heaviest first, ties
    // by ascending callee — a total order, the one order a stable sort
    // by that comparison gives.
    let mut candidates: Vec<(u128, f64)> = Vec::new();
    // One context for every site: its target buffer is refilled, never
    // reallocated once it has grown to the widest candidate list.
    let mut ctx = VirtualContext {
        targets: Vec::new(),
        site_weight_pct: 0.0,
        caller_size: 0,
        profiled: true,
    };
    while let Some(&(first, _)) = edges.peek() {
        let (caller, site) = (first.caller, first.site);
        receivers.clear();
        while let Some((e, w)) = edges.next_if(|(e, _)| e.caller == caller && e.site == site) {
            receivers.push((e.callee, w));
        }
        // Summed in callee order.
        let site_weight: f64 = receivers.iter().map(|&(_, w)| w).sum();
        let kind = if let [(callee, _)] = receivers[..] {
            PlanKind::Direct { callee }
        } else {
            candidates.clear();
            candidates.extend(receivers.iter().filter_map(|&(callee, w)| {
                let fraction = w / site_weight;
                // An infinite weight's NaN fraction is shown, as the
                // full list showed it.
                (fraction >= floor || fraction.is_nan()).then(|| {
                    let key = u128::from(!w.to_bits()) << 32 | u128::from(u32::from(callee));
                    (key, fraction)
                })
            }));
            candidates.sort_unstable_by_key(|&(key, _)| key);
            ctx.targets.clear();
            ctx.targets
                .extend(candidates.iter().map(|&(key, fraction)| VirtualTarget {
                    callee: MethodId::new(key as u32),
                    callee_size: 0, // no program on the server
                    fraction,
                }));
            ctx.site_weight_pct = if total_weight > 0.0 {
                100.0 * site_weight / total_weight
            } else {
                0.0
            };
            let chosen = policy.guarded_targets(&ctx);
            let weight_of = |m: MethodId| {
                receivers
                    .binary_search_by_key(&m, |&(c, _)| c)
                    .map_or(0.0, |i| receivers[i].1)
            };
            match chosen.len() {
                0 => continue,
                1 => PlanKind::Devirtualize {
                    callee: chosen[0],
                    weight: weight_of(chosen[0]),
                },
                _ => PlanKind::Guarded {
                    targets: chosen.into_iter().map(|m| (m, weight_of(m))).collect(),
                },
            }
        };
        entries.push(PlanEntry {
            caller,
            site,
            site_weight,
            kind,
        });
    }
    entries
}

/// Runs the full plan/apply/optimize pipeline driven by a fleet plan.
///
/// The counterpart of [`inline_program`](crate::inline_program) for a
/// VM consuming pooled-profile decisions: the same planner, bounded
/// transitive rounds, growth budgets and post-pass optimizer, with the
/// plan as the profile source.
pub fn apply_plan(
    program: &mut Program,
    plan: &InlinePlan,
    policy: &dyn InlinePolicy,
    budget: &InlineBudget,
    optimize: bool,
) -> InlineReport {
    run_rounds(
        program,
        &ProfileSource::plan(plan),
        policy,
        budget,
        optimize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::NewLinearPolicy;
    use cbs_bytecode::{ProgramBuilder, VirtualSlot};
    use cbs_dcg::CallEdge;
    use cbs_vm::{Value, Vm, VmConfig};

    fn edge(caller: u32, site: u32, callee: u32) -> CallEdge {
        CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(site),
            MethodId::new(callee),
        )
    }

    #[test]
    fn build_plan_classifies_sites_by_observed_arity_and_40pct_rule() {
        let mut g = DynamicCallGraph::new();
        // Site 0: monomorphic.
        g.record(edge(0, 0, 1), 50.0);
        // Site 1: dominant receiver (90%) plus a cold one → devirtualize.
        g.record(edge(0, 1, 2), 90.0);
        g.record(edge(0, 1, 3), 10.0);
        // Site 2: two receivers above 40% → guard chain.
        g.record(edge(1, 2, 4), 55.0);
        g.record(edge(1, 2, 5), 45.0);
        // Site 3: flat distribution, nothing above 40% → omitted.
        g.record(edge(1, 3, 6), 34.0);
        g.record(edge(1, 3, 7), 33.0);
        g.record(edge(1, 3, 8), 33.0);
        let plan = build_plan(&g, &NewLinearPolicy::default(), 7);
        assert_eq!(plan.generation, 7);
        assert_eq!(plan.total_weight, g.total_weight());
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(
            plan.entries[0].kind,
            PlanKind::Direct {
                callee: MethodId::new(1)
            }
        );
        assert_eq!(
            plan.entries[1].kind,
            PlanKind::Devirtualize {
                callee: MethodId::new(2),
                weight: 90.0
            }
        );
        assert_eq!(
            plan.entries[2].kind,
            PlanKind::Guarded {
                targets: vec![(MethodId::new(4), 55.0), (MethodId::new(5), 45.0)]
            }
        );
        // Entries sorted by (caller, site).
        assert!(plan
            .entries
            .windows(2)
            .all(|w| (w[0].caller, w[0].site) < (w[1].caller, w[1].site)));
    }

    #[test]
    fn build_plan_is_deterministic_and_empty_graph_yields_empty_plan() {
        let mut g = DynamicCallGraph::new();
        g.record(edge(2, 9, 3), 5.0);
        g.record(edge(1, 4, 2), 7.0);
        let a = build_plan(&g, &NewLinearPolicy::default(), 1);
        let b = build_plan(&g, &NewLinearPolicy::default(), 1);
        assert_eq!(a, b);
        let empty = build_plan(&DynamicCallGraph::new(), &NewLinearPolicy::default(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.total_weight, 0.0);
    }

    #[test]
    fn render_is_stable_and_mentions_every_entry() {
        let mut g = DynamicCallGraph::new();
        g.record(edge(0, 0, 1), 50.0);
        g.record(edge(0, 1, 2), 90.0);
        g.record(edge(0, 1, 3), 70.0);
        let plan = build_plan(&g, &NewLinearPolicy::default(), 3);
        let text = plan.render();
        assert!(text.starts_with("# cbs-inline-plan v1 generation=3"));
        assert!(text.contains("m0 s0 weight=50 direct m1"));
        assert!(text.contains("guarded m2:90 m3:70"));
        assert_eq!(text, plan.render());
    }

    /// main → helper → getter; a plan built from an exhaustive profile of
    /// the program must flatten the chain exactly like `inline_program`
    /// with the local graph does.
    #[test]
    fn apply_plan_matches_local_inlining_on_a_direct_chain() {
        let build = || {
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
        };
        let program = build();
        let mut ex = Exhaustive::default();
        Vm::new(&program, VmConfig::default())
            .run_with(&mut ex)
            .unwrap();

        let mut local = build();
        let local_report = crate::inline_program(
            &mut local,
            Some(&ex.dcg),
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );

        let plan = build_plan(&ex.dcg, &NewLinearPolicy::default(), 1);
        let mut fleet = build();
        let fleet_report = apply_plan(
            &mut fleet,
            &plan,
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );

        assert_eq!(local_report.direct_inlines, fleet_report.direct_inlines);
        assert_eq!(local_report.guarded_inlines, fleet_report.guarded_inlines);
        let a = Vm::new(&local, VmConfig::default())
            .run_unprofiled()
            .unwrap();
        let b = Vm::new(&fleet, VmConfig::default())
            .run_unprofiled()
            .unwrap();
        assert_eq!(a.return_values, b.return_values);
        assert_eq!(a.cycles, b.cycles);
    }

    /// A polymorphic site whose profile is concentrated on one receiver
    /// gets a guard chain from the plan, and the transformed program
    /// still computes the same result.
    #[test]
    fn apply_plan_guards_polymorphic_sites_from_pooled_weights() {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 1);
        let f_base = b
            .function("Base.f", base, 1, 0, |c| {
                c.load(0).get_field(0).const_(1).add().ret();
            })
            .unwrap();
        b.set_vtable(base, VirtualSlot::new(0), f_base);
        let sub = b.add_subclass("Sub", base, 0);
        let f_sub = b
            .function("Sub.f", sub, 1, 0, |c| {
                c.load(0).get_field(0).const_(2).add().ret();
            })
            .unwrap();
        b.set_vtable(sub, VirtualSlot::new(0), f_sub);
        let main = b
            .function("main", base, 0, 3, |c| {
                c.new_object(base).store(1);
                c.counted_loop(0, 50, |c| {
                    c.load(1).call_virtual(VirtualSlot::new(0), 1).store(2);
                });
                c.load(2).ret();
            })
            .unwrap();
        b.set_entry(main);
        let _ = f_sub;
        let mut p = b.build().unwrap();
        let mut ex = Exhaustive::default();
        Vm::new(&p, VmConfig::default()).run_with(&mut ex).unwrap();
        let plan = build_plan(&ex.dcg, &NewLinearPolicy::default(), 2);
        let report = apply_plan(
            &mut p,
            &plan,
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );
        assert_eq!(report.guarded_inlines, 1, "report: {report:?}");
        let after = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(after.return_values, vec![Value::Int(1)]);
        assert_eq!(after.calls, 0, "guard always hits: dispatch gone");
    }

    /// Local exhaustive profiler to avoid a circular dev-dependency on
    /// cbs-profiler.
    #[derive(Debug, Default)]
    struct Exhaustive {
        dcg: DynamicCallGraph,
    }

    impl cbs_vm::Profiler for Exhaustive {
        fn on_entry(&mut self, event: &cbs_vm::CallEvent<'_>) {
            self.dcg.record_sample(event.edge);
        }
    }
}
