//! Static telemetry handles for the profile-service crate.
//!
//! Every metric the server, aggregator, and resilient client emit is
//! registered once — lazily, on first use — in the process-wide
//! [`cbs_telemetry::global`] registry and cached in a [`OnceLock`]
//! struct, so hot paths touch only pre-resolved lock-free handles.
//!
//! Naming convention: `profiled.<subsystem>.<metric>`. Counters and
//! size histograms are deterministic for a deterministic workload
//! (event sums commute across threads); only the handler-latency and
//! dedup-lock-wait histograms are wall-clock-dependent and tagged
//! [`Stability::Wallclock`].

use cbs_telemetry::{
    global, Counter, Gauge, Histogram, Stability, LATENCY_BUCKETS_US, SIZE_BUCKETS,
};
use std::sync::OnceLock;

/// Dedup-lock wait buckets (microseconds), 1 µs … 100 ms: an
/// uncontended lock lands in the first bucket, a convoy behind another
/// connection's apply in the hundreds.
const LOCK_WAIT_BUCKETS_US: &[u64] = &[
    1, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 100_000,
];

/// The profile-service metric handles (see the module docs for the
/// naming scheme). Obtain via [`ProfiledMetrics::get`].
#[derive(Debug)]
pub struct ProfiledMetrics {
    // -- server --------------------------------------------------------
    /// Connections admitted to a handler thread.
    pub server_connections: Counter,
    /// Connections refused with `ST_ERR busy` (backpressure).
    pub server_busy_refusals: Counter,
    /// Connections refused during drain-and-refuse shutdown.
    pub server_shutdown_refusals: Counter,
    /// `OP_PUSH` requests handled.
    pub server_op_push: Counter,
    /// `OP_PUSH_SEQ` requests handled.
    pub server_op_push_seq: Counter,
    /// `OP_PULL` requests handled.
    pub server_op_pull: Counter,
    /// `OP_PULL_CHUNK` requests handled.
    pub server_op_pull_chunk: Counter,
    /// `OP_STATS` requests handled.
    pub server_op_stats: Counter,
    /// `OP_EPOCH` requests handled.
    pub server_op_epoch: Counter,
    /// `OP_METRICS` requests handled.
    pub server_op_metrics: Counter,
    /// `OP_PLAN` requests handled.
    pub server_op_plan: Counter,
    /// Requests answered `ST_ERR` (malformed frames, unknown ops,
    /// out-of-range pages, oversized snapshots).
    pub server_err_replies: Counter,
    /// Frames rejected because the DCG payload failed to decode.
    pub server_bad_frames: Counter,
    /// `OP_PUSH_SEQ` frames acknowledged as duplicates (dedup hits).
    pub server_dedup_hits: Counter,
    /// Times the seq-dedup mutex was recovered from poisoning.
    pub server_seq_lock_recovered: Counter,
    /// Clients evicted from the bounded dedup table (least recently
    /// applied first).
    pub server_dedup_evictions: Counter,
    /// Request frame sizes, bytes (body, excluding the length prefix).
    pub server_frame_bytes_in: Histogram,
    /// Reply frame sizes, bytes (body, excluding the length prefix).
    pub server_frame_bytes_out: Histogram,
    /// Per-request handler latency, microseconds (wall-clock; excluded
    /// from deterministic renders).
    pub server_handler_latency_us: Histogram,
    /// Per-`OP_PUSH_SEQ` wait for `MemJournal`'s dedup lock,
    /// microseconds (wall-clock; excluded from deterministic renders).
    pub server_dedup_lock_wait_us: Histogram,
    /// Scrape-time gauge: entries in the `OP_PUSH_SEQ` dedup table.
    pub server_dedup_clients: Gauge,

    // -- aggregator ----------------------------------------------------
    /// Frames folded into the aggregator.
    pub agg_frames: Counter,
    /// Edge records folded into the aggregator.
    pub agg_records: Counter,
    /// Lazy decay catch-ups applied to the aggregate.
    pub agg_decay_catchups: Counter,
    /// Edges pruned by decay (weight fell below the floor).
    pub agg_pruned_edges: Counter,
    /// Snapshot-cache hits: encoded snapshot served without locking
    /// the aggregate.
    pub agg_cache_hits: Counter,
    /// Snapshot-cache misses: the aggregate was re-encoded (cold cache
    /// or stale generation).
    pub agg_cache_misses: Counter,
    /// Snapshot-cache invalidations observed: a rebuild found a cached
    /// snapshot whose generation stamp had been outrun by ingest or an
    /// epoch advance.
    pub agg_cache_invalidations: Counter,
    /// Scrape-time gauge: current decay epoch.
    pub agg_epoch: Gauge,
    /// Scrape-time gauge: live edges in the aggregate.
    pub agg_edges: Gauge,

    // -- fleet plan builder --------------------------------------------
    /// Plan-cache hits: encoded plan served without rebuilding.
    pub plan_cache_hits: Counter,
    /// Plan-cache misses: a plan was (re)built (cold cache or stale
    /// generation).
    pub plan_cache_misses: Counter,
    /// Plan-cache invalidations observed: a rebuild found a cached plan
    /// whose generation stamp had been outrun.
    pub plan_cache_invalidations: Counter,
    /// Fleet plans built from the aggregate.
    pub plan_builds: Counter,
    /// Per-site decisions emitted across all plan builds.
    pub plan_decisions: Counter,

    // -- resilient client ---------------------------------------------
    /// Exchanges retried after a fault.
    pub client_retries: Counter,
    /// Reconnects after the first successful connect.
    pub client_reconnects: Counter,
    /// Batches requeued into the outbox after a send fault.
    pub client_requeued_batches: Counter,
    /// Outbox batches merged into an already-queued batch.
    pub client_coalesced_batches: Counter,
    /// Server-acknowledged duplicate deliveries (`OP_PUSH_SEQ` retries
    /// that had in fact landed).
    pub client_duplicates: Counter,
    /// Total backoff slept, milliseconds (deterministic: delays come
    /// from the seeded jitter RNG, not from observed time).
    pub client_backoff_ms: Counter,
    /// Base-client connections that became poisoned mid-protocol.
    pub client_poisoned: Counter,
}

impl ProfiledMetrics {
    /// The process-wide handles, registered on first call.
    pub fn get() -> &'static ProfiledMetrics {
        static HANDLES: OnceLock<ProfiledMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let r = global();
            ProfiledMetrics {
                server_connections: r.counter(
                    "profiled.server.connections",
                    "connections admitted to a handler thread",
                ),
                server_busy_refusals: r.counter(
                    "profiled.server.busy_refusals",
                    "connections refused with ST_ERR busy",
                ),
                server_shutdown_refusals: r.counter(
                    "profiled.server.shutdown_refusals",
                    "connections refused during shutdown drain",
                ),
                server_op_push: r.counter("profiled.server.op.push", "OP_PUSH requests handled"),
                server_op_push_seq: r.counter(
                    "profiled.server.op.push_seq",
                    "OP_PUSH_SEQ requests handled",
                ),
                server_op_pull: r.counter("profiled.server.op.pull", "OP_PULL requests handled"),
                server_op_pull_chunk: r.counter(
                    "profiled.server.op.pull_chunk",
                    "OP_PULL_CHUNK requests handled",
                ),
                server_op_stats: r.counter("profiled.server.op.stats", "OP_STATS requests handled"),
                server_op_epoch: r.counter("profiled.server.op.epoch", "OP_EPOCH requests handled"),
                server_op_metrics: r
                    .counter("profiled.server.op.metrics", "OP_METRICS requests handled"),
                server_op_plan: r.counter("profiled.server.op.plan", "OP_PLAN requests handled"),
                server_err_replies: r
                    .counter("profiled.server.err_replies", "requests answered ST_ERR"),
                server_bad_frames: r.counter(
                    "profiled.server.bad_frames",
                    "frames whose DCG payload failed to decode",
                ),
                server_dedup_hits: r.counter(
                    "profiled.server.dedup_hits",
                    "OP_PUSH_SEQ frames acknowledged as duplicates",
                ),
                server_seq_lock_recovered: r.counter(
                    "profiled.server.seq_lock_recovered",
                    "seq-dedup mutex poisonings recovered",
                ),
                server_dedup_evictions: r.counter(
                    "profiled.server.dedup_evictions",
                    "clients evicted from the bounded dedup table",
                ),
                server_frame_bytes_in: r.histogram(
                    "profiled.server.frame_bytes_in",
                    "request frame sizes (bytes)",
                    SIZE_BUCKETS,
                    Stability::Deterministic,
                ),
                server_frame_bytes_out: r.histogram(
                    "profiled.server.frame_bytes_out",
                    "reply frame sizes (bytes)",
                    SIZE_BUCKETS,
                    Stability::Deterministic,
                ),
                server_handler_latency_us: r.histogram(
                    "profiled.server.handler_latency_us",
                    "per-request handler latency (µs)",
                    LATENCY_BUCKETS_US,
                    Stability::Wallclock,
                ),
                server_dedup_lock_wait_us: r.histogram(
                    "profiled.server.dedup_lock_wait_us",
                    "per-push wait for the in-memory journal's dedup lock (µs)",
                    LOCK_WAIT_BUCKETS_US,
                    Stability::Wallclock,
                ),
                server_dedup_clients: r.gauge(
                    "profiled.server.dedup_clients",
                    "entries in the OP_PUSH_SEQ dedup table (scrape-time)",
                ),
                agg_frames: r.counter("profiled.agg.frames", "frames folded into the aggregator"),
                agg_records: r.counter("profiled.agg.records", "edge records folded in"),
                agg_decay_catchups: r.counter(
                    "profiled.agg.decay_catchups",
                    "lazy decay catch-ups applied to the aggregate",
                ),
                agg_pruned_edges: r.counter(
                    "profiled.agg.pruned_edges",
                    "edges pruned by decay below the weight floor",
                ),
                agg_cache_hits: r.counter(
                    "profiled.agg.cache_hits",
                    "snapshot encodings served from the generation-stamped cache",
                ),
                agg_cache_misses: r.counter(
                    "profiled.agg.cache_misses",
                    "snapshots re-encoded on a cold or stale cache",
                ),
                agg_cache_invalidations: r.counter(
                    "profiled.agg.cache_invalidations",
                    "cached snapshots found stale at rebuild time",
                ),
                plan_cache_hits: r.counter(
                    "profiled.plan.cache_hits",
                    "encoded plans served from the generation-stamped cache",
                ),
                plan_cache_misses: r.counter(
                    "profiled.plan.cache_misses",
                    "plans rebuilt on a cold or stale cache",
                ),
                plan_cache_invalidations: r.counter(
                    "profiled.plan.cache_invalidations",
                    "cached plans found stale at rebuild time",
                ),
                plan_builds: r.counter(
                    "profiled.plan.builds",
                    "fleet plans built from the aggregate",
                ),
                plan_decisions: r.counter(
                    "profiled.plan.decisions",
                    "per-site decisions emitted across plan builds",
                ),
                agg_epoch: r.gauge("profiled.agg.epoch", "current decay epoch (scrape-time)"),
                agg_edges: r.gauge(
                    "profiled.agg.edges",
                    "live edges in the aggregate (scrape-time)",
                ),
                client_retries: r
                    .counter("profiled.client.retries", "exchanges retried after a fault"),
                client_reconnects: r.counter(
                    "profiled.client.reconnects",
                    "reconnects after the first successful connect",
                ),
                client_requeued_batches: r.counter(
                    "profiled.client.requeued_batches",
                    "batches requeued into the outbox after a send fault",
                ),
                client_coalesced_batches: r.counter(
                    "profiled.client.coalesced_batches",
                    "outbox batches merged into an already-queued batch",
                ),
                client_duplicates: r.counter(
                    "profiled.client.duplicates",
                    "server-acknowledged duplicate deliveries",
                ),
                client_backoff_ms: r.counter(
                    "profiled.client.backoff_ms",
                    "total backoff slept (ms; deterministic, from the seeded jitter RNG)",
                ),
                client_poisoned: r.counter(
                    "profiled.client.poisoned",
                    "base-client connections poisoned mid-protocol",
                ),
            }
        })
    }
}
