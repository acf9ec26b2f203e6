//! The aggregator lays its graph's slots out in edge order at every
//! read. Random histories of pushes (new and repeated edges), reads,
//! epochs with decay and pruning show that the served snapshot and plan
//! bytes are exactly those of a reference graph fed the same history
//! and never laid out.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{build_plan, NewLinearPolicy};
use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_profiled::{AggregatorConfig, DcgCodec, DcgFrame, FrameKind, ShardedAggregator};

fn random_edge(rng: &mut SmallRng) -> CallEdge {
    CallEdge::new(
        MethodId::new(rng.gen_range(0..30u32)),
        CallSiteId::new(rng.gen_range(0..4u32)),
        MethodId::new(rng.gen_range(0..12u32)),
    )
}

/// What the aggregator must serve for `reference`, read at `generation`.
/// An identity decay re-sums the total in edge order, as a read does,
/// without moving a slot.
fn expected(reference: &mut DynamicCallGraph, generation: u64) -> (Vec<u8>, Vec<u8>) {
    reference.decay(1.0, 0.0);
    let plan = build_plan(reference, &NewLinearPolicy::default(), generation);
    (
        DcgCodec::encode_snapshot(reference),
        DcgCodec::encode_plan(&plan),
    )
}

#[test]
fn served_bytes_match_a_graph_never_laid_out() {
    run_cases("served_bytes_layout_invisible", 48, |rng| {
        let config = AggregatorConfig {
            decay_factor: [1.0, 0.5, 0.9][rng.gen_range(0..3usize)],
            min_weight: [0.0, 0.3, 4.0][rng.gen_range(0..3usize)],
        };
        let agg = ShardedAggregator::new(config);
        let mut reference = DynamicCallGraph::new();
        let mut seen: Vec<CallEdge> = Vec::new();
        for step in 0..rng.gen_range(1..30usize) {
            match rng.gen_range(0..5u32) {
                0 | 1 => {
                    let mut edges: Vec<(CallEdge, f64)> = (0..rng.gen_range(1..40usize))
                        .map(|_| {
                            let edge = match seen.len() {
                                n if n > 0 && rng.gen_bool(0.6) => seen[rng.gen_range(0..n)],
                                _ => random_edge(rng),
                            };
                            seen.push(edge);
                            (edge, f64::from(rng.gen_range(1..2000u32)) * 0.01)
                        })
                        .collect();
                    edges.sort_by_key(|r| r.0);
                    edges.dedup_by_key(|r| r.0);
                    agg.ingest(&DcgFrame {
                        kind: FrameKind::Delta,
                        edges: edges.clone(),
                    });
                    reference.record_all_deferred(&edges);
                }
                2 => {
                    agg.advance_epoch();
                    if config.decay_factor != 1.0 {
                        reference.decay(config.decay_factor, config.min_weight);
                    }
                }
                _ => {
                    let (snapshot, plan) = expected(&mut reference, agg.generation());
                    // Either read first: each settles the aggregate.
                    if rng.gen_bool(0.5) {
                        assert_eq!(*agg.encoded_plan(), plan, "step {step}: plan");
                        assert_eq!(*agg.encoded_snapshot(), snapshot, "step {step}: pull");
                    } else {
                        assert_eq!(*agg.encoded_snapshot(), snapshot, "step {step}: pull");
                        assert_eq!(*agg.encoded_plan(), plan, "step {step}: plan");
                    }
                }
            }
        }
        let (snapshot, plan) = expected(&mut reference, agg.generation());
        assert_eq!(*agg.encoded_snapshot(), snapshot, "final pull");
        assert_eq!(*agg.encoded_plan(), plan, "final plan");
        let pulled = agg.merged_snapshot();
        for edge in &seen {
            assert_eq!(
                pulled.weight(edge).to_bits(),
                reference.weight(edge).to_bits(),
                "weight of {edge:?}"
            );
        }
    });
}
