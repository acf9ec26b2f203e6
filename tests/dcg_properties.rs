//! Property tests on the DCG metric layer: the overlap metric's bounds,
//! symmetry, and identity behavior, over randomized weighted graphs
//! (driven by the in-repo `cbs_prng::prop` harness).

use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_repro::dcg::{overlap, CallEdge, DynamicCallGraph};
use cbs_repro::prelude::*;

const CASES: u64 = 48;

fn arb_dcg(rng: &mut SmallRng, max_edges: usize) -> DynamicCallGraph {
    let n = rng.gen_range(1..=max_edges);
    let mut g = DynamicCallGraph::new();
    for _ in 0..n {
        let caller = rng.gen_range(0u32..20);
        let site = rng.gen_range(0u32..40);
        let callee = rng.gen_range(0u32..20);
        let w = rng.gen_range(1u32..1000);
        g.record(
            CallEdge::new(
                cbs_repro::bytecode::MethodId::new(caller),
                cbs_repro::bytecode::CallSiteId::new(site),
                cbs_repro::bytecode::MethodId::new(callee),
            ),
            f64::from(w),
        );
    }
    g
}

#[test]
fn overlap_is_bounded() {
    run_cases("overlap_is_bounded", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        let b = arb_dcg(rng, 30);
        let o = overlap(&a, &b);
        assert!((0.0..=100.0 + 1e-9).contains(&o), "overlap {o}");
    });
}

#[test]
fn overlap_is_symmetric() {
    run_cases("overlap_is_symmetric", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        let b = arb_dcg(rng, 30);
        assert!((overlap(&a, &b) - overlap(&b, &a)).abs() < 1e-9);
    });
}

#[test]
fn self_overlap_is_100() {
    run_cases("self_overlap_is_100", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        assert!((overlap(&a, &a) - 100.0).abs() < 1e-9);
    });
}

#[test]
fn overlap_is_scale_invariant() {
    run_cases("overlap_is_scale_invariant", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        let k = rng.gen_range(1u32..100);
        let mut scaled = DynamicCallGraph::new();
        for (e, w) in a.iter() {
            scaled.record(*e, w * f64::from(k));
        }
        assert!((overlap(&a, &scaled) - 100.0).abs() < 1e-9);
    });
}

#[test]
fn merge_total_is_sum() {
    run_cases("merge_total_is_sum", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        let b = arb_dcg(rng, 30);
        let mut m = a.clone();
        m.merge(&b);
        assert!((m.total_weight() - (a.total_weight() + b.total_weight())).abs() < 1e-6);
        assert!(m.num_edges() <= a.num_edges() + b.num_edges());
    });
}

#[test]
fn merged_graphs_self_overlap_at_100() {
    // Regression property for the parallel runner's reduction step: the
    // weight_percent denominator stays consistent after merge/merge_all.
    run_cases("merged_graphs_self_overlap_at_100", CASES, |rng| {
        let shards: Vec<DynamicCallGraph> = (0..rng.gen_range(2usize..6))
            .map(|_| arb_dcg(rng, 20))
            .collect();
        let merged = DynamicCallGraph::merge_all(&shards);
        assert!((overlap(&merged, &merged) - 100.0).abs() < 1e-9);
        let reversed = DynamicCallGraph::merge_all(shards.iter().rev());
        assert_eq!(merged, reversed, "integer-weight merges are order-exact");
    });
}

/// Everything observable about a graph, as bits: iteration order, each
/// weight, the running total, and the point-lookup index.
fn graph_bits(g: &DynamicCallGraph) -> (Vec<(CallEdge, u64)>, u64) {
    let edges: Vec<(CallEdge, u64)> = g.iter().map(|(e, w)| (*e, w.to_bits())).collect();
    assert_eq!(edges.len(), g.num_edges());
    for (e, w) in &edges {
        assert_eq!(g.weight(e).to_bits(), *w, "index disagrees with iteration");
    }
    (edges, g.total_weight().to_bits())
}

fn arb_edge(rng: &mut SmallRng, callers: std::ops::Range<u32>) -> CallEdge {
    use cbs_repro::bytecode::{CallSiteId, MethodId};
    CallEdge::new(
        MethodId::new(rng.gen_range(callers)),
        CallSiteId::new(rng.gen_range(0u32..4)),
        MethodId::new(rng.gen_range(0u32..6)),
    )
}

#[test]
fn merge_all_is_the_left_fold_of_merge_bit_for_bit() {
    // `merge_all` is one k-way merge of the inputs' sorted runs; the
    // fold of `merge` is its definition. Fractional weights make the
    // summation order of an edge shared by several inputs visible.
    run_cases("merge_all_is_the_left_fold_of_merge", 256, |rng| {
        let k = rng.gen_range(0usize..=9);
        let inputs: Vec<DynamicCallGraph> = (0..k as u32)
            .map(|i| {
                let mut g = DynamicCallGraph::new();
                let (callers, edges) = match rng.gen_range(0u32..4) {
                    0 => (0..0, 0),                    // empty
                    1 => (i * 8..i * 8 + 8, 30),       // disjoint from every other input
                    _ => (0..6, rng.gen_range(1..40)), // overlapping
                };
                for _ in 0..edges {
                    g.record(arb_edge(rng, callers.clone()), rng.gen_f64() * 100.0 + 0.01);
                }
                if rng.gen_bool(0.2) {
                    // Every edge survives with weight zero: `merge`
                    // skips them, and so must the k-way merge.
                    g.decay(0.0, 0.0);
                }
                g
            })
            .collect();
        let mut fold = DynamicCallGraph::new();
        for g in &inputs {
            fold.merge(g);
        }
        let mut merged = DynamicCallGraph::merge_all(&inputs);
        assert_eq!(graph_bits(&merged), graph_bits(&fold), "k={k}");
        // The merged store is a live graph: later records splice in
        // exactly as they do into the fold's.
        for _ in 0..8 {
            let (e, w) = (arb_edge(rng, 0..80), f64::from(rng.gen_range(1u32..9)));
            merged.record(e, w);
            fold.record(e, w);
        }
        assert_eq!(
            graph_bits(&merged),
            graph_bits(&fold),
            "k={k} after records"
        );
    });
}

#[test]
fn record_order_does_not_change_the_graph() {
    // Ascending input rides `record`'s append fast path, descending
    // input always splices at the front, shuffled input mixes both.
    // Integral weights keep the running total exact in any order.
    run_cases("record_order_does_not_change_the_graph", CASES, |rng| {
        let mut records: Vec<(CallEdge, f64)> = (0..rng.gen_range(1usize..120))
            .map(|_| (arb_edge(rng, 0..10), f64::from(rng.gen_range(1u32..1000))))
            .collect();
        let build = |records: &[(CallEdge, f64)]| {
            // Half the needed room: pre-sized storage that still regrows.
            let mut g = DynamicCallGraph::with_capacity(records.len() / 2);
            for &(e, w) in records {
                g.record(e, w);
            }
            graph_bits(&g)
        };
        let shuffled = build(&records);
        records.sort_by_key(|r| r.0);
        let ascending = build(&records);
        records.reverse();
        let descending = build(&records);
        assert_eq!(ascending, shuffled);
        assert_eq!(ascending, descending);
    });
}

#[test]
fn decay_scales_weights() {
    run_cases("decay_scales_weights", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        let factor = 0.1 + 0.9 * rng.gen_f64();
        let mut d = a.clone();
        d.decay(factor, 0.0);
        assert!((d.total_weight() - a.total_weight() * factor).abs() < 1e-6);
    });
}

#[test]
fn site_distribution_sums_to_site_weight() {
    run_cases("site_distribution_sums_to_site_weight", CASES, |rng| {
        let a = arb_dcg(rng, 30);
        for site in a.sites() {
            let dist_sum: f64 = a.site_distribution(site).iter().map(|(_, w)| w).sum();
            assert!((dist_sum - a.site_weight(site)).abs() < 1e-9);
        }
    });
}

#[test]
fn sampling_more_converges_toward_truth() {
    // Statistical (but deterministic, seeded) check: on a fixed workload,
    // increasing samples-per-tick monotonically-ish improves accuracy.
    let program = Benchmark::Mtrt
        .spec(InputSize::Small)
        .scaled(0.3)
        .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
    let m = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 1))),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 8))),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 64))),
        ],
    )
    .unwrap();
    let acc: Vec<f64> = m.outcomes.iter().map(|o| o.accuracy).collect();
    assert!(
        acc[2] > acc[0] + 5.0,
        "64 samples/tick must clearly beat 1: {acc:?}"
    );
    assert!(
        acc[1] >= acc[0] - 2.0,
        "8 should not be worse than 1: {acc:?}"
    );
}

trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}
