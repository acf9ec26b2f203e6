//! Concurrency and cache-consistency acceptance for the streaming
//! ingest / cached-snapshot server paths:
//!
//! * pulls racing a storm of pushes always decode to *valid* snapshots
//!   (every intermediate pull is a well-formed frame whose totals are
//!   a prefix of the push history);
//! * after the storm, the final pull is bit-identical to a serial
//!   ingest of the same frames;
//! * push → pull → push → pull observes the new data (the cache never
//!   serves a pre-push snapshot after the push's ack);
//! * `advance_epoch` over the wire invalidates the cached encoding.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{build_plan, NewLinearPolicy};
use cbs_profiled::{
    serve, AggregatorConfig, DcgCodec, DcgFrame, FrameKind, NetConfig, ProfileClient,
    ShardedAggregator,
};
use std::sync::Arc;

fn e(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// Deterministic synthetic frames: `pushers × frames_per_pusher`
/// snapshot frames with unit weights (unit weights make aggregation
/// exactly commutative, so any interleaving must converge to the same
/// graph).
fn storm_frames(pushers: u32, frames_per_pusher: u32) -> Vec<Vec<Vec<u8>>> {
    (0..pushers)
        .map(|p| {
            (0..frames_per_pusher)
                .map(|f| {
                    let mut g = DynamicCallGraph::new();
                    for i in 0..40u32 {
                        g.record(e((p * 7 + i) % 19, i % 5, (f + i) % 11), 1.0);
                    }
                    DcgCodec::encode_snapshot(&g)
                })
                .collect()
        })
        .collect()
}

#[test]
fn pulls_racing_a_push_storm_always_decode_valid_snapshots() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server = serve("127.0.0.1:0", Arc::clone(&agg), NetConfig::default()).expect("binds");
    let addr = server.addr();
    let frames = storm_frames(4, 24);

    // Serial reference: the same frames through one fresh aggregator.
    let serial = ShardedAggregator::new(AggregatorConfig::default());
    for pusher in &frames {
        for bytes in pusher {
            serial.ingest(&DcgCodec::decode(bytes).unwrap());
        }
    }
    let expected = serial.merged_snapshot();
    let expected_bytes = DcgCodec::encode_snapshot(&expected);
    let total_records: usize = frames
        .iter()
        .flatten()
        .map(|b| DcgCodec::decode(b).unwrap().edges.len())
        .sum();

    std::thread::scope(|scope| {
        for pusher in &frames {
            scope.spawn(move || {
                let mut c = ProfileClient::connect(addr, NetConfig::default()).expect("connects");
                for bytes in pusher {
                    c.push_frame(bytes).expect("push");
                }
            });
        }
        // Two pullers race the storm; every snapshot they see must be
        // valid and monotone (total weight only grows under unit-weight
        // pushes with decay disabled).
        for _ in 0..2 {
            scope.spawn(move || {
                let mut c = ProfileClient::connect(addr, NetConfig::default()).expect("connects");
                let mut last_total = 0.0f64;
                for _ in 0..30 {
                    let snap = c.pull().expect("mid-storm pull decodes");
                    let total = snap.total_weight();
                    assert!(
                        total >= last_total,
                        "snapshot went backwards: {total} < {last_total}"
                    );
                    assert!(total <= total_records as f64 + 0.5, "over-counted");
                    last_total = total;
                }
            });
        }
        // A plan puller races it too. Plans are built under the
        // aggregate lock, between pushes: every one decodes, and their
        // generations never go backwards.
        scope.spawn(move || {
            let mut c = ProfileClient::connect(addr, NetConfig::default()).expect("connects");
            let mut last_generation = 0;
            for _ in 0..30 {
                let plan = c.pull_plan().expect("mid-storm plan decodes");
                assert!(
                    plan.generation >= last_generation,
                    "plan went backwards: {} < {last_generation}",
                    plan.generation
                );
                assert!(
                    plan.total_weight <= total_records as f64 + 0.5,
                    "over-counted"
                );
                last_generation = plan.generation;
            }
        });
    });

    // Quiesced: the final pull is bit-identical to the serial ingest.
    let mut c = ProfileClient::connect(addr, NetConfig::default()).expect("connects");
    let final_pull = c.pull().expect("final pull");
    assert_eq!(final_pull, expected);
    assert_eq!(
        DcgCodec::encode_snapshot(&final_pull),
        expected_bytes,
        "final snapshot encoding must be byte-identical to serial ingest"
    );
    // The chunked path serves the same capture.
    assert_eq!(c.pull_chunked().expect("chunked pull").0, expected);
    // And the final plan is the serial ingest's plan.
    assert_eq!(
        DcgCodec::encode_plan(&c.pull_plan().expect("final plan")),
        *serial.encoded_plan()
    );
    server.shutdown();
}

#[test]
fn pull_observes_every_push_and_epoch_invalidates_the_cache() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig {
        decay_factor: 0.5,
        min_weight: 0.0,
    }));
    let server = serve("127.0.0.1:0", Arc::clone(&agg), NetConfig::default()).expect("binds");
    let mut c = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");

    // push → pull → push → pull: the second pull must see the second
    // push (an ack'd push is never hidden by the snapshot cache).
    c.push_delta(&[(e(1, 0, 2), 8.0)]).expect("push 1");
    let first = c.pull().expect("pull 1");
    assert_eq!(first.weight(&e(1, 0, 2)), 8.0);
    c.push_delta(&[(e(1, 0, 2), 4.0), (e(3, 1, 4), 2.0)])
        .expect("push 2");
    let second = c.pull().expect("pull 2");
    assert_eq!(second.weight(&e(1, 0, 2)), 12.0);
    assert_eq!(second.weight(&e(3, 1, 4)), 2.0);

    // With no interleaving mutation, repeated pulls serve the *same*
    // cached encoding object (O(1) hit path, no rebuild).
    let enc1 = agg.encoded_snapshot();
    let enc2 = agg.encoded_snapshot();
    assert!(
        Arc::ptr_eq(&enc1, &enc2),
        "repeated pulls must hit the cache"
    );

    // advance_epoch over the wire invalidates: the cached encoding is
    // rebuilt and the decayed weights show up in the next pull.
    let epoch = c.advance_epoch().expect("epoch");
    assert_eq!(epoch, 1);
    let enc3 = agg.encoded_snapshot();
    assert!(
        !Arc::ptr_eq(&enc1, &enc3),
        "advance_epoch must invalidate the cached encoding"
    );
    let decayed = c.pull().expect("pull 3");
    assert!(
        (decayed.weight(&e(1, 0, 2)) - 6.0).abs() < 1e-12,
        "12 × 0.5 after one epoch"
    );
    server.shutdown();
}

#[test]
fn served_bytes_match_an_eagerly_built_reference() {
    // What the daemon serves — `OP_PULL` and `OP_PLAN` bytes — must be
    // the canonical encodings of what an eager fold holds: a plain graph
    // fed record by record, decayed once per epoch, copied through
    // `merge_all`. Checked at each read boundary the deferred aggregate
    // can be in: the first pull (one seal of everything ingested), new
    // edges recorded deferred since the previous pull (seal merges them
    // into the sorted run), and a decay epoch that prunes some edges but
    // not all (the store is rebuilt around the survivors).
    //
    // The weights are not dyadic and arrive out of edge order, so the
    // aggregate's running total differs from the edge-ordered sum the
    // plan's total must be: a read that skips the re-sum fails here.
    let frame = |range: std::ops::Range<u32>, stride: u32| DcgFrame {
        kind: FrameKind::Delta,
        edges: range
            .map(|i| {
                let weight = 0.1 + f64::from(i % 7) / 3.0;
                (e(i * stride % 997, i % 13, i % 31), weight)
            })
            .collect(),
    };
    let first = frame(0..6000, 1);
    // Mostly edges the first frame never saw, landing between its keys.
    let second = frame(6000..9000, 5);
    let agg = ShardedAggregator::new(AggregatorConfig {
        decay_factor: 0.9,
        min_weight: 1.0,
    });
    let mut eager = DynamicCallGraph::new();
    let check = |eager: &DynamicCallGraph, generation: u64| {
        let merged = DynamicCallGraph::merge_all([eager]);
        let plan = DcgCodec::encode_plan(&build_plan(
            &merged,
            &NewLinearPolicy::default(),
            generation,
        ));
        assert_eq!(agg.generation(), generation);
        // The plan is read both before and after the snapshot, so
        // neither read can lean on the other to settle the total.
        assert!(
            *agg.encoded_plan() == plan,
            "generation {generation}: plan before the snapshot"
        );
        assert!(
            *agg.encoded_snapshot() == DcgCodec::encode_snapshot(&merged),
            "generation {generation}: snapshot"
        );
        assert!(
            *agg.encoded_plan() == plan,
            "generation {generation}: plan after the snapshot"
        );
    };
    for (f, generation) in [(&first, 1), (&second, 2)] {
        agg.ingest(f);
        for &(edge, w) in &f.edges {
            eager.record(edge, w);
        }
        check(&eager, generation);
    }
    let edges_before = agg.stats().edges;
    agg.advance_epoch();
    eager.decay(0.9, 1.0);
    check(&eager, 3);
    assert!(
        (1..edges_before).contains(&agg.stats().edges),
        "the epoch must prune some edges but not all"
    );
}
