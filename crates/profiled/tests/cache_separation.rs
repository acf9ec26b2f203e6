//! The snapshot and plan caches are separate: a cold `OP_PLAN` builds
//! its plan straight off the aggregate without encoding a snapshot, and
//! a cold `OP_PULL` encodes without building a plan.
//!
//! The cache counters live in the process-wide telemetry registry, so
//! this check has a test binary of its own: no other test can bump them
//! between its reads.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::CallEdge;
use cbs_profiled::{
    AggregatorConfig, DcgCodec, DcgFrame, FrameKind, ProfiledMetrics, ShardedAggregator,
};

#[test]
fn a_plan_pull_builds_no_snapshot() {
    let m = ProfiledMetrics::get();
    let agg = ShardedAggregator::new(AggregatorConfig::default());
    let e = |caller, callee| {
        CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(0),
            MethodId::new(callee),
        )
    };
    agg.ingest(&DcgFrame {
        kind: FrameKind::Delta,
        edges: vec![(e(0, 1), 3.0), (e(0, 2), 1.0), (e(4, 5), 2.0)],
    });

    let (pulls, plans) = (m.agg_cache_misses.get(), m.plan_cache_misses.get());
    let plan = DcgCodec::decode_plan(&agg.encoded_plan()).expect("plan decodes");
    assert_eq!(plan.entries.len(), 2);
    assert_eq!(m.plan_cache_misses.get(), plans + 1);
    assert_eq!(
        m.agg_cache_misses.get(),
        pulls,
        "a cold plan encodes no snapshot"
    );

    agg.advance_epoch();
    let (pulls, plans) = (m.agg_cache_misses.get(), m.plan_cache_misses.get());
    let snapshot = DcgCodec::decode_snapshot(&agg.encoded_snapshot()).expect("pull decodes");
    assert_eq!(snapshot.num_edges(), 3);
    assert_eq!(m.agg_cache_misses.get(), pulls + 1);
    assert_eq!(
        m.plan_cache_misses.get(),
        plans,
        "a cold pull builds no plan"
    );
}
