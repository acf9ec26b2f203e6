//! OP_METRICS loopback acceptance: a live server scraped over the wire
//! reports exact, deterministic counters for the traffic it served, and
//! telemetry never changes a profile byte.
//!
//! The whole scenario lives in one `#[test]` so this binary owns the
//! process-global registry: absolute counter values can be pinned
//! without interference from sibling tests.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_profiled::{
    serve, AggregatorConfig, DcgCodec, NetConfig, ProfileClient, PushOutcome, ShardedAggregator,
};
use cbs_telemetry::parse_counter;
use std::sync::Arc;

fn edge(caller: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(0),
        MethodId::new(callee),
    )
}

fn pin(exposition: &str, name: &str, want: u64) {
    assert_eq!(
        parse_counter(exposition, name),
        Some(want),
        "counter {name} in:\n{exposition}"
    );
}

#[test]
fn op_metrics_scrape_reports_exact_counters_and_is_inert() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server = serve("127.0.0.1:0", agg, NetConfig::default()).expect("binds");
    let mut client = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");

    // One snapshot push, one dedup'd seq push pair, one pull, one stats.
    let mut vm = DynamicCallGraph::new();
    vm.record(edge(1, 2), 3.0);
    vm.record(edge(1, 3), 5.0);
    vm.record(edge(2, 3), 7.0);
    client.push_snapshot(&vm).expect("snapshot accepted");

    let delta = DcgCodec::encode_delta(&[(edge(3, 4), 11.0)]);
    assert_eq!(
        client.push_seq(7, 1, &delta).expect("first push applies"),
        PushOutcome::Applied
    );
    assert_eq!(
        client.push_seq(7, 1, &delta).expect("retry is absorbed"),
        PushOutcome::Duplicate
    );

    let pulled = client.pull().expect("pull succeeds");
    assert_eq!(pulled.num_edges(), 4);

    let stats = client.stats_text().expect("stats succeed");
    assert!(stats.contains("stats_version=2"), "stats:\n{stats}");
    assert!(stats.contains("dedup_clients=1"), "stats:\n{stats}");

    // The scrape counts itself (the op counter increments before the
    // registry is rendered), so op.metrics pins at 1 on first scrape.
    let text = client.metrics_text().expect("metrics succeed");
    assert!(text.starts_with("# cbs-telemetry v1\n"), "got:\n{text}");
    pin(&text, "profiled.server.connections", 1);
    pin(&text, "profiled.server.op.push", 1);
    pin(&text, "profiled.server.op.push_seq", 2);
    pin(&text, "profiled.server.op.pull", 1);
    pin(&text, "profiled.server.op.stats", 1);
    pin(&text, "profiled.server.op.metrics", 1);
    pin(&text, "profiled.server.dedup_hits", 1);
    pin(&text, "profiled.server.err_replies", 0);
    pin(&text, "profiled.server.bad_frames", 0);
    pin(&text, "profiled.agg.frames", 2);
    // Snapshot records 3 edges, the applied delta 1; the duplicate adds 0.
    pin(&text, "profiled.agg.records", 4);
    // Scrape-time gauges are published by the handler itself.
    assert!(text.contains("gauge profiled.agg.edges 4"), "got:\n{text}");
    assert!(
        text.contains("gauge profiled.server.dedup_clients 1"),
        "got:\n{text}"
    );

    // A second scrape moves only the scrape's own bookkeeping.
    let text2 = client.metrics_text().expect("metrics succeed");
    pin(&text2, "profiled.server.op.metrics", 2);
    pin(&text2, "profiled.server.op.push", 1);
    server.shutdown();

    // Inertness: the same traffic against a telemetry-disabled process
    // yields a bit-identical pulled profile.
    cbs_telemetry::global().set_enabled(false);
    let agg2 = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server2 = serve("127.0.0.1:0", agg2, NetConfig::default()).expect("binds");
    let mut client2 =
        ProfileClient::connect(server2.addr(), NetConfig::default()).expect("connects");
    client2.push_snapshot(&vm).expect("snapshot accepted");
    assert_eq!(
        client2.push_seq(7, 1, &delta).expect("push applies"),
        PushOutcome::Applied
    );
    let pulled2 = client2.pull().expect("pull succeeds");
    cbs_telemetry::global().set_enabled(true);

    assert_eq!(pulled, pulled2, "telemetry changed the merged profile");
    for (e, w) in pulled.iter() {
        assert_eq!(pulled2.weight(e).to_bits(), w.to_bits(), "edge {e}");
    }

    // And the disabled run left every counter where the first scrape's
    // follow-up put it: disabled registries are frozen, not just quiet.
    let text3 = cbs_telemetry::global().render();
    pin(&text3, "profiled.server.op.push", 1);
    pin(&text3, "profiled.server.op.push_seq", 2);
    pin(&text3, "profiled.server.connections", 1);
    server2.shutdown();
}
