//! Property test for the one-pass [`build_plan`]: it must produce the
//! plan of the map-grouped builder it replaced, bit for bit.
//!
//! The oracle below is that previous builder, kept verbatim: it groups
//! edges into `BTreeMap<(caller, site), BTreeMap<callee, weight>>` and
//! never relies on the graph's iteration order being the grouping
//! order, which is the one thing the one-pass builder assumes.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{
    build_plan, InlinePlan, InlinePolicy, NewLinearPolicy, PlanEntry, PlanKind, VirtualContext,
    VirtualTarget,
};
use cbs_prng::prop::run_cases;
use std::collections::BTreeMap;

fn build_plan_map_grouped(
    graph: &DynamicCallGraph,
    policy: &dyn InlinePolicy,
    generation: u64,
) -> InlinePlan {
    let total_weight = graph.total_weight();
    let mut sites: BTreeMap<(MethodId, CallSiteId), BTreeMap<MethodId, f64>> = BTreeMap::new();
    for (e, w) in graph.iter() {
        if w <= 0.0 {
            continue;
        }
        *sites
            .entry((e.caller, e.site))
            .or_default()
            .entry(e.callee)
            .or_insert(0.0) += w;
    }
    let mut entries = Vec::new();
    for ((caller, site), callees) in sites {
        let site_weight: f64 = callees.values().sum();
        if site_weight <= 0.0 {
            continue;
        }
        let mut dist: Vec<(MethodId, f64)> = callees.into_iter().collect();
        dist.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        let kind = if dist.len() == 1 {
            PlanKind::Direct { callee: dist[0].0 }
        } else {
            let ctx = VirtualContext {
                targets: dist
                    .iter()
                    .map(|(m, w)| VirtualTarget {
                        callee: *m,
                        callee_size: 0,
                        fraction: w / site_weight,
                    })
                    .collect(),
                site_weight_pct: if total_weight > 0.0 {
                    100.0 * site_weight / total_weight
                } else {
                    0.0
                },
                caller_size: 0,
                profiled: true,
            };
            let chosen = policy.guarded_targets(&ctx);
            let weight_of =
                |m: MethodId| dist.iter().find(|(c, _)| *c == m).map_or(0.0, |(_, w)| *w);
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
    InlinePlan {
        generation,
        total_weight,
        entries,
    }
}

/// Every weight a plan carries, as bits, in entry order.
fn weight_bits(plan: &InlinePlan) -> Vec<u64> {
    let mut bits = vec![plan.total_weight.to_bits()];
    for e in &plan.entries {
        bits.push(e.site_weight.to_bits());
        match &e.kind {
            PlanKind::Direct { .. } => {}
            PlanKind::Devirtualize { weight, .. } => bits.push(weight.to_bits()),
            PlanKind::Guarded { targets } => bits.extend(targets.iter().map(|(_, w)| w.to_bits())),
        }
    }
    bits
}

#[test]
fn one_pass_build_plan_matches_the_map_grouped_builder() {
    let policy = NewLinearPolicy::default();
    let mut kinds = [0usize; 3];
    run_cases("one_pass_build_plan_matches_map_grouped", 256, |rng| {
        // Few site ids under many callers: the same site id recurs under
        // different callers, adjacent in nothing but number. Few callees
        // with skewed fractional weights: monomorphic, dominated, guarded
        // and flat (omitted) sites all occur.
        let arb_record = |rng: &mut cbs_prng::SmallRng| {
            let edge = CallEdge::new(
                MethodId::new(rng.gen_range(0u32..9)),
                CallSiteId::new(rng.gen_range(0u32..3)),
                MethodId::new(rng.gen_range(0u32..5)),
            );
            let skew = [0.5, 3.0, 40.0, 900.0][rng.gen_range(0usize..4)];
            (edge, rng.gen_f64() * skew + 0.01)
        };
        let mut g = DynamicCallGraph::new();
        for _ in 0..rng.gen_range(0usize..60) {
            let (e, w) = arb_record(rng);
            g.record(e, w);
        }
        if rng.gen_bool(0.3) {
            // Zero every weight recorded so far, then record some more:
            // sites left all-zero must vanish from the plan, and zero
            // edges inside live sites must not count as receivers.
            g.decay(0.0, 0.0);
            for _ in 0..rng.gen_range(0usize..30) {
                let (e, w) = arb_record(rng);
                g.record(e, w);
            }
        }
        let generation = rng.next_u64();
        let plan = build_plan(&g, &policy, generation);
        let oracle = build_plan_map_grouped(&g, &policy, generation);
        assert_eq!(plan, oracle);
        assert_eq!(weight_bits(&plan), weight_bits(&oracle));
        for e in &plan.entries {
            kinds[match e.kind {
                PlanKind::Direct { .. } => 0,
                PlanKind::Devirtualize { .. } => 1,
                PlanKind::Guarded { .. } => 2,
            }] += 1;
        }
    });
    assert!(
        kinds.iter().all(|&n| n > 0),
        "the generator must reach every plan kind: {kinds:?}"
    );
}
