//! Static telemetry handles for the durable store, registered in the
//! process-wide [`cbs_telemetry::global`] registry (naming scheme
//! `store.<subsystem>.<metric>`). Counters of *applied work* are
//! deterministic for a deterministic workload; the ack-path sync shape
//! (how many syncs, how large each batch) depends on thread timing and
//! is registered as wall-clock.

use cbs_telemetry::{global, Counter, Histogram, Stability};
use std::sync::OnceLock;

/// Batch-size buckets (tickets made durable per ack-path sync).
const BATCH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The store's metric handles. Obtain via [`StoreMetrics::get`].
#[derive(Debug)]
pub struct StoreMetrics {
    /// WAL records appended (frames, sequenced frames, epoch advances).
    pub wal_appends: Counter,
    /// WAL bytes written (framing included).
    pub wal_bytes: Counter,
    /// WAL syncs on the ack path (registered under its older name,
    /// `store.wal.group_commits`, which the repo benchmark reads).
    pub wal_ack_syncs: Counter,
    /// Tickets made durable per ack-path sync.
    pub wal_batch_size: Histogram,
    /// Dirty WAL tails synced by a graceful-shutdown flush.
    pub wal_shutdown_syncs: Counter,
    /// Checkpoints committed.
    pub checkpoints: Counter,
    /// Post-commit segment-GC failures (the checkpoint itself was
    /// installed; the next checkpoint retries the deletion).
    pub checkpoint_gc_errors: Counter,
    /// Frames re-applied from the WAL during recovery.
    pub recovery_replayed_frames: Counter,
    /// WAL log bytes recovery replayed: headers and intact records up
    /// to the cut, zero reserves excluded.
    pub recovery_wal_bytes: Counter,
    /// Recoveries that truncated a torn or corrupt WAL tail.
    pub recovery_truncated_tail: Counter,
}

impl StoreMetrics {
    /// The process-wide handles, registered on first call.
    pub fn get() -> &'static StoreMetrics {
        static HANDLES: OnceLock<StoreMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let r = global();
            StoreMetrics {
                wal_appends: r.counter("store.wal.appends", "WAL records appended"),
                wal_bytes: r.counter("store.wal.bytes", "WAL bytes written (framing included)"),
                wal_ack_syncs: r.counter("store.wal.group_commits", "WAL syncs on the ack path"),
                wal_batch_size: r.histogram(
                    "store.wal.batch_size",
                    "tickets made durable per ack-path sync",
                    BATCH_BUCKETS,
                    Stability::Wallclock,
                ),
                wal_shutdown_syncs: r.counter(
                    "store.wal.shutdown_syncs",
                    "dirty WAL tails synced by a graceful-shutdown flush",
                ),
                checkpoints: r.counter("store.checkpoints", "checkpoints committed"),
                checkpoint_gc_errors: r.counter(
                    "store.checkpoint.gc_errors",
                    "post-commit segment-GC failures (retried next checkpoint)",
                ),
                recovery_replayed_frames: r.counter(
                    "store.recovery.replayed_frames",
                    "frames re-applied from the WAL during recovery",
                ),
                recovery_wal_bytes: r.counter(
                    "store.recovery.wal_bytes",
                    "WAL log bytes replayed during recovery",
                ),
                recovery_truncated_tail: r.counter(
                    "store.recovery.truncated_tail",
                    "recoveries that truncated a torn or corrupt WAL tail",
                ),
            }
        })
    }
}
