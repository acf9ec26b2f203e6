//! # cbs-store
//!
//! The durable profile store for `cbs-profiled`: a CRC-framed
//! write-ahead log, periodic checkpoints, and bit-identical crash
//! recovery for the fleet profile server.
//!
//! The server's write path is the [`cbs_profiled::ProfileJournal`]
//! trait; this crate's [`ProfileStore`] is its durable implementation:
//!
//! * [`wal`] — sequence-numbered segment files of length-prefixed,
//!   CRC-32-framed records carrying the raw CBSP wire bytes of every
//!   accepted operation, written *before* the ack into a zero-filled
//!   reserve the segment already owns;
//! * [`checkpoint`] — atomic snapshots (graph, epoch, counters, dedup
//!   table) that bound replay time and let the subsumed log prefix be
//!   deleted;
//! * [`store`] — [`ProfileStore::open`] recovery: load the checkpoint,
//!   replay the WAL tail through the very same
//!   `ShardedAggregator::ingest_frame_bytes` path live ingest uses, and
//!   truncate — never half-apply — a torn tail. The recovered server's
//!   encoded snapshot, decay epoch, and dedup table are byte-identical
//!   to an uninterrupted server that ingested exactly the durable
//!   operations;
//! * [`lock`] — the advisory data-directory lockfile that makes a
//!   second concurrent opener fail fast instead of corrupting the WAL;
//! * [`inspect()`] — the read-only directory summary behind
//!   `dcgtool store inspect`.
//!
//! Writes flow through a staged path — a short append critical section,
//! one sync mutex through which every WAL `sync_all` runs (a
//! [`FsyncPolicy::Always`] ack that queued behind an in-flight sync is
//! covered by the next one), and a ticket-ordered apply turnstile — so
//! concurrent pushers overlap instead of convoying (see [`store`]).
//!
//! The write path carries no crash hooks. A crash's only lasting effect
//! is the data directory it leaves — the WAL cut at or inside a record,
//! or a checkpoint temp file never renamed — so the tests write those
//! states directly, reopen them, and assert the recovery invariant
//! byte-for-byte. A failed WAL sync poisons the store until it is
//! reopened.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod crc;
pub mod inspect;
pub mod lock;
pub mod metrics;
pub mod store;
pub mod wal;

#[cfg(test)]
mod test_dir;
#[cfg(test)]
mod tests;

pub use checkpoint::Checkpoint;
pub use crc::crc32;
pub use inspect::{inspect, CheckpointInfo, SegmentInfo, StoreInspection};
pub use lock::StoreLock;
pub use metrics::StoreMetrics;
pub use store::{FsyncPolicy, ProfileStore, RecoveryReport, StoreConfig};
