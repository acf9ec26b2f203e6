//! Edges whose weight decayed to zero stay in a graph (a zero floor
//! prunes nothing), but no decoder accepts a weight-0 record: the
//! snapshot encoder and the aggregator's served bytes must treat them
//! as absent, exactly as `merge_all` does.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{build_plan, NewLinearPolicy};
use cbs_profiled::{AggregatorConfig, DcgCodec, DcgFrame, FrameKind, ShardedAggregator};

fn e(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// Regression: `encode_snapshot` used to write zero-weight edges out as
/// weight-0 records that `decode_snapshot` refuses with `BadWeight`.
#[test]
fn zero_weight_edges_encode_as_absent() {
    let mut g = DynamicCallGraph::new();
    g.record(e(0, 0, 1), 3.0);
    g.record(e(2, 1, 3), 0.125);
    g.decay(0.0, 0.0);
    assert_eq!(g.num_edges(), 2, "a zero floor keeps zero weights");
    let bytes = DcgCodec::encode_snapshot(&g);
    assert_eq!(bytes, DcgCodec::encode_snapshot(&DynamicCallGraph::new()));
    assert_eq!(
        DcgCodec::decode_snapshot(&bytes),
        Ok(DynamicCallGraph::new())
    );

    // Partly decayed: only the edge that underflowed to zero is dropped,
    // from the header count too.
    let mut g = DynamicCallGraph::new();
    g.record(e(0, 0, 1), 3.0);
    g.record(e(2, 1, 3), 5e-324);
    g.decay(0.5, 0.0);
    let decoded = DcgCodec::decode_snapshot(&DcgCodec::encode_snapshot(&g)).unwrap();
    assert_eq!(decoded, DynamicCallGraph::merge_all([&g]));
    assert_eq!(decoded.num_edges(), 1);
}

/// A `0.0` decay leaves every aggregated edge at weight zero. The pull
/// and the plan after one epoch must still equal their `merge_all`
/// reference: an empty snapshot and an empty plan.
#[test]
fn zero_decay_serves_an_empty_snapshot_and_plan() {
    let records = vec![(e(0, 0, 1), 4.0), (e(0, 0, 2), 0.3), (e(5, 1, 2), 1.0)];
    let agg = ShardedAggregator::new(AggregatorConfig {
        decay_factor: 0.0,
        min_weight: 0.0,
    });
    agg.ingest(&DcgFrame {
        kind: FrameKind::Delta,
        edges: records.clone(),
    });
    agg.advance_epoch();

    let mut eager: DynamicCallGraph = records.into_iter().collect();
    eager.decay(0.0, 0.0);
    let reference = DynamicCallGraph::merge_all([&eager]);
    assert!(reference.is_empty());
    let plan = build_plan(&reference, &NewLinearPolicy::default(), agg.generation());
    assert!(plan.entries.is_empty());
    assert_eq!(*agg.encoded_plan(), DcgCodec::encode_plan(&plan));
    assert_eq!(
        *agg.encoded_snapshot(),
        DcgCodec::encode_snapshot(&reference)
    );
    assert_eq!(agg.merged_snapshot(), reference, "the pull decodes");
    assert_eq!(agg.stats().edges, 3, "a zero floor prunes nothing");
}
