//! Full-service loopback tests: a live TCP server, a streaming VM
//! client, and bit-exact reconstruction of the merged fleet profile.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_prng::SmallRng;
use cbs_profiled::{
    serve, AggregatorConfig, ClientError, NetConfig, ProfileClient, ShardedAggregator,
};
use std::sync::Arc;

fn edge(rng: &mut SmallRng) -> CallEdge {
    CallEdge::new(
        MethodId::new(rng.gen_range(0..4000u32)),
        CallSiteId::new(rng.gen_range(0..8u32)),
        MethodId::new(rng.gen_range(0..4000u32)),
    )
}

/// The PR's acceptance scenario: one VM streams a 10k-edge snapshot and
/// then 100 incremental delta flushes; the client's pulled fleet profile
/// is bit-identical to the server's own merged snapshot.
#[test]
fn snapshot_plus_100_deltas_reconstructs_bit_identically() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server = serve("127.0.0.1:0", agg, NetConfig::default()).expect("binds");
    let mut client = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");

    let mut rng = SmallRng::seed_from_u64(0x10AD_BA11);
    let mut vm = DynamicCallGraph::new();
    while vm.num_edges() < 10_000 {
        // Integral weights: counter-based sampling produces counts, and
        // they keep additive splits across frames bit-exact.
        vm.record(edge(&mut rng), rng.gen_range(1..1000u64) as f64);
    }
    client.push_snapshot(&vm).expect("snapshot accepted");
    vm.drain_delta(); // align the flush mark with what was pushed

    for _ in 0..100 {
        for _ in 0..rng.gen_range(1..40usize) {
            vm.record(edge(&mut rng), rng.gen_range(1..1000u64) as f64);
        }
        let increments = vm.drain_delta();
        assert!(!increments.is_empty());
        client.push_delta(&increments).expect("delta accepted");
    }

    let pulled = client.pull().expect("pull succeeds");
    let merged = server.aggregator().merged_snapshot();
    assert_eq!(pulled, merged);
    assert_eq!(pulled.num_edges(), merged.num_edges());
    for (e, w) in merged.iter() {
        assert_eq!(pulled.weight(e).to_bits(), w.to_bits(), "edge {e}");
    }
    assert_eq!(
        pulled.total_weight().to_bits(),
        merged.total_weight().to_bits(),
        "totals accumulate in the same canonical edge order on both sides"
    );
    // The stream was lossless, so the server graph equals the VM's own.
    assert_eq!(merged, vm);

    let stats = server.aggregator().stats();
    assert_eq!(stats.frames, 101);
    server.shutdown();
}

/// Many VMs pushing concurrently over their own connections converge to
/// the union of their graphs, and the server survives a malformed frame
/// and an oversized frame arriving mid-stream.
#[test]
fn concurrent_vms_and_hostile_clients() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let config = NetConfig {
        max_frame_bytes: 1 << 16,
        ..NetConfig::default()
    };
    let server = serve("127.0.0.1:0", agg, config).expect("binds");
    let addr = server.addr();

    let graphs: Vec<DynamicCallGraph> = (0..8u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(0xF1EE7 + i);
            let mut g = DynamicCallGraph::new();
            for _ in 0..200 {
                g.record(edge(&mut rng), rng.gen_range(1..100u64) as f64);
            }
            g
        })
        .collect();

    std::thread::scope(|scope| {
        for g in &graphs {
            scope.spawn(move || {
                let mut client = ProfileClient::connect(addr, config).expect("connects");
                client.push_snapshot(g).expect("accepted");
            });
        }
        // A hostile client pushes garbage; the server must reject the
        // frame, keep the connection, and keep serving everyone else.
        scope.spawn(|| {
            let mut client = ProfileClient::connect(addr, config).expect("connects");
            match client.push_frame(b"CBSPgarbage") {
                Err(ClientError::Server(msg)) => assert!(msg.contains("bad frame"), "{msg}"),
                other => panic!("garbage must be rejected server-side: {other:?}"),
            }
            // The same connection still works after the rejection.
            let mut g = DynamicCallGraph::new();
            g.record(
                CallEdge::new(MethodId::new(1), CallSiteId::new(0), MethodId::new(2)),
                7.0,
            );
            client.push_snapshot(&g).expect("connection survived");
        });
    });

    let merged = server.aggregator().merged_snapshot();
    let mut expected = DynamicCallGraph::merge_all(&graphs);
    expected.record(
        CallEdge::new(MethodId::new(1), CallSiteId::new(0), MethodId::new(2)),
        7.0,
    );
    // Concurrent arrival order varies, so compare weights per edge (the
    // integral weights make addition order-independent here).
    assert_eq!(merged.num_edges(), expected.num_edges());
    for (e, w) in expected.iter() {
        assert_eq!(merged.weight(e), w, "edge {e}");
    }

    // An oversized frame draws an error reply, not a dead server.
    let mut big_rng = SmallRng::seed_from_u64(99);
    let mut big = DynamicCallGraph::new();
    for _ in 0..20_000 {
        big.record(edge(&mut big_rng), 1e18 + 0.5); // raw-bits weights, ~14 B/edge
    }
    let mut client = ProfileClient::connect(addr, config).expect("connects");
    match client.push_snapshot(&big) {
        Err(ClientError::Server(_) | ClientError::Io(_)) => {}
        other => panic!("oversized push must fail: {other:?}"),
    }
    let mut client = ProfileClient::connect(addr, config).expect("server still accepts");
    assert!(client
        .stats_text()
        .expect("still serving")
        .contains("frames="));
    server.shutdown();
}

/// `OP_PLAN` end to end: the daemon builds the 40%-rule inlining plan
/// from its merged snapshot, serves it versioned by snapshot
/// generation, answers repeated pulls from the cache byte-identically,
/// and rebuilds after the aggregate changes.
#[test]
fn op_plan_serves_versioned_plans_from_the_generation_keyed_cache() {
    use cbs_inliner::PlanKind;

    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server = serve("127.0.0.1:0", Arc::clone(&agg), NetConfig::default()).expect("binds");
    let mut client = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");

    let e = |caller: u32, site: u32, callee: u32| {
        CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(site),
            MethodId::new(callee),
        )
    };
    // One polymorphic site where only one receiver clears the 40% rule,
    // and one monomorphic site.
    client
        .push_delta(&[
            (e(0, 0, 2), 60.0),
            (e(0, 0, 3), 35.0),
            (e(0, 0, 4), 5.0),
            (e(1, 1, 5), 50.0),
        ])
        .expect("accepted");

    let plan = client.pull_plan().expect("plan pulled");
    assert_eq!(plan.generation, 1, "one ingested frame");
    assert_eq!(plan.total_weight, 150.0);
    assert_eq!(plan.entries.len(), 2, "plan: {}", plan.render());
    let poly = &plan.entries[0];
    assert_eq!(
        (poly.caller, poly.site),
        (MethodId::new(0), CallSiteId::new(0))
    );
    match &poly.kind {
        PlanKind::Devirtualize { callee, weight } => {
            assert_eq!(*callee, MethodId::new(2), "only m2 clears 40%");
            assert_eq!(*weight, 60.0);
        }
        other => panic!("60/35/5 must devirtualize to the majority receiver: {other:?}"),
    }
    let mono = &plan.entries[1];
    assert_eq!(
        (mono.caller, mono.site),
        (MethodId::new(1), CallSiteId::new(1))
    );
    match &mono.kind {
        PlanKind::Direct { callee } => assert_eq!(*callee, MethodId::new(5)),
        other => panic!("a single observed receiver is a direct entry: {other:?}"),
    }

    // Unchanged aggregate: repeated pulls serve the *same* cached
    // encoding object (O(1) hit path, no rebuild), so the wire answer
    // is bit-identical.
    let enc1 = agg.encoded_plan();
    let enc2 = agg.encoded_plan();
    assert!(
        Arc::ptr_eq(&enc1, &enc2),
        "repeated plan pulls must hit the cache"
    );
    let again = client.pull_plan().expect("second pull");
    assert_eq!(again.render(), plan.render());

    // New weight flips the 40% outcome: the cache is invalidated and
    // the next plan carries the new generation and a guarded entry.
    client.push_delta(&[(e(0, 0, 3), 40.0)]).expect("accepted");
    let enc3 = agg.encoded_plan();
    assert!(
        !Arc::ptr_eq(&enc1, &enc3),
        "an ingested frame must invalidate the cached plan"
    );
    let updated = client.pull_plan().expect("rebuilt plan");
    assert_eq!(updated.generation, 2);
    match &updated.entries[0].kind {
        PlanKind::Guarded { targets } => {
            assert_eq!(
                targets,
                &vec![(MethodId::new(3), 75.0), (MethodId::new(2), 60.0)],
                "60/75/5: both heavy receivers now clear 40%, heaviest first"
            );
        }
        other => panic!("both receivers above 40% must guard: {other:?}"),
    }
    server.shutdown();
}

/// Epoch advance over the wire applies decay to later pulls.
#[test]
fn epoch_advance_decays_the_fleet_profile() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig {
        decay_factor: 0.5,
        min_weight: 0.0,
    }));
    let server = serve("127.0.0.1:0", agg, NetConfig::default()).expect("binds");
    let mut client = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");

    let mut g = DynamicCallGraph::new();
    g.record(
        CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1)),
        16.0,
    );
    client.push_snapshot(&g).expect("accepted");
    assert_eq!(client.pull().expect("pull").total_weight(), 16.0);
    assert_eq!(client.advance_epoch().expect("epoch"), 1);
    assert_eq!(client.advance_epoch().expect("epoch"), 2);
    assert_eq!(client.pull().expect("pull").total_weight(), 4.0);
    server.shutdown();
}
