//! The ingest journal seam: where durability plugs into the server.
//!
//! Every state-changing request the server acknowledges — `OP_PUSH`,
//! `OP_PUSH_SEQ`, `OP_EPOCH` — flows through a [`ProfileJournal`]
//! before the `ST_OK` goes out. The trait owns the whole
//! check–journal–apply–record sequence so that an implementation can
//! make it atomic with respect to its own persistence:
//!
//! * [`MemJournal`] (the default) applies straight to the
//!   [`ShardedAggregator`] and keeps the [`DedupTable`] under its own
//!   mutex — exactly the pre-durability server behavior;
//! * `cbs-store`'s `ProfileStore` appends each accepted operation to a
//!   CRC-framed write-ahead log first, so a restart can replay the
//!   journal and reproduce the aggregator (and the dedup table)
//!   bit-for-bit.
//!
//! The dedup table lives *inside* the journal because sequenced ingest
//! must hold one lock across check-apply-record (a retry racing a
//! half-applied original must observe the pair atomically), and a
//! durable journal must additionally capture the table in the same
//! critical section its checkpoints snapshot the graph.

use crate::aggregator::{IngestScratch, ShardedAggregator};
use crate::codec::{CodecError, FrameKind};
use crate::dedup::DedupTable;
use crate::metrics::ProfiledMetrics;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Why a journaled operation was not applied.
#[derive(Debug)]
pub enum JournalError {
    /// The frame payload failed codec validation; nothing was applied
    /// or journaled.
    Frame(CodecError),
    /// The journal's backing storage failed; nothing was applied (the
    /// client may retry once the storage recovers).
    Storage(std::io::Error),
    /// The store is poisoned: an earlier WAL sync failed, a lock was
    /// poisoned by a panic, or an apply diverged from its journaled
    /// record, so the disk state is unknown. The store refuses every
    /// operation until it is reopened, and reopening recovers from disk.
    Poisoned,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Frame(e) => write!(f, "bad frame: {e}"),
            JournalError::Storage(e) => write!(f, "journal storage: {e}"),
            JournalError::Poisoned => write!(f, "journal poisoned (store must be reopened)"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Frame(e) => Some(e),
            JournalError::Storage(e) => Some(e),
            JournalError::Poisoned => None,
        }
    }
}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Frame(e)
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Storage(e)
    }
}

/// Outcome of a sequenced ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqIngest {
    /// The frame was new and has been journaled and applied.
    Applied {
        /// Snapshot or delta.
        kind: FrameKind,
        /// Records applied.
        records: usize,
    },
    /// The sequence was already applied; the (validated) retransmission
    /// was acknowledged without being re-applied.
    Duplicate,
}

/// Point-in-time dedup-table usage, for `OP_STATS` / `OP_METRICS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupUsage {
    /// Clients currently tracked.
    pub clients: usize,
    /// Highest applied sequence across clients.
    pub max_seq: u64,
}

/// The server's write path: everything that mutates aggregator state
/// goes through here before it is acknowledged.
///
/// Implementations must be safe to share across connection threads
/// (`&self` methods) and must keep the invariant that an operation
/// returning `Ok` has been made exactly as durable as the
/// implementation promises *before* returning — the server sends the
/// `ST_OK` immediately after.
pub trait ProfileJournal: Send + Sync + fmt::Debug {
    /// Validates, journals, and applies one unsequenced frame
    /// (`OP_PUSH`), returning its kind and record count.
    ///
    /// # Errors
    ///
    /// [`JournalError::Frame`] for invalid payloads (nothing applied),
    /// [`JournalError::Storage`] / [`JournalError::Poisoned`] for
    /// journal failures (nothing applied).
    fn ingest_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), JournalError>;

    /// Exactly-once sequenced ingest (`OP_PUSH_SEQ`): applies the frame
    /// if `seq` is new for `client_id` and records the pair in the
    /// dedup table atomically; acknowledges a duplicate without
    /// re-applying, but only after validating the retransmission ("bad
    /// frame beats duplicate").
    ///
    /// # Errors
    ///
    /// As [`ingest_frame`](Self::ingest_frame).
    fn ingest_sequenced(
        &self,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<SeqIngest, JournalError>;

    /// Journals and applies one epoch advance (`OP_EPOCH`), returning
    /// the new epoch.
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] / [`JournalError::Poisoned`]; the epoch
    /// is not advanced on error.
    fn advance_epoch(&self) -> Result<u64, JournalError>;

    /// Current dedup-table usage.
    fn dedup_usage(&self) -> DedupUsage;

    /// Makes every acknowledged operation as durable as the backend
    /// can: a durable journal syncs its WAL tail; the in-memory journal
    /// (the default implementation) has nothing to flush. Called by
    /// `ServerHandle::shutdown` so a graceful exit under a lazy fsync
    /// policy does not leave acked frames exposed to a power loss.
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] / [`JournalError::Poisoned`] when the
    /// backend cannot sync.
    fn flush(&self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// The in-memory journal: no durability, aggregator semantics identical
/// to the pre-durability server. Used whenever no data directory is
/// configured.
#[derive(Debug)]
pub struct MemJournal {
    aggregator: Arc<ShardedAggregator>,
    dedup: Mutex<DedupTable>,
}

impl MemJournal {
    /// Wraps `aggregator` with a dedup table of the default capacity.
    pub fn new(aggregator: Arc<ShardedAggregator>) -> Self {
        Self::with_capacity(aggregator, DedupTable::DEFAULT_CAPACITY)
    }

    /// Wraps `aggregator` with a dedup table capped at
    /// `dedup_capacity` clients (`0` = unbounded).
    pub fn with_capacity(aggregator: Arc<ShardedAggregator>, dedup_capacity: usize) -> Self {
        Self {
            aggregator,
            dedup: Mutex::new(DedupTable::new(dedup_capacity)),
        }
    }

    /// The shared dedup-table mutex (exposed for tests that script
    /// poisoning; production code goes through the trait).
    pub fn dedup(&self) -> &Mutex<DedupTable> {
        &self.dedup
    }

    /// Locks the dedup table, recovering from poisoning.
    ///
    /// A handler that panics mid-update leaves the table *valid*:
    /// either the frame was applied and its sequence recorded, or
    /// neither happened. Treating the poison as fatal would turn one
    /// crashed connection into a permanent outage of every later
    /// `OP_PUSH_SEQ` exchange.
    fn lock_dedup(&self) -> MutexGuard<'_, DedupTable> {
        self.dedup.lock().unwrap_or_else(|e: PoisonError<_>| {
            ProfiledMetrics::get().server_seq_lock_recovered.inc();
            e.into_inner()
        })
    }
}

impl ProfileJournal for MemJournal {
    fn ingest_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), JournalError> {
        Ok(self.aggregator.ingest_frame_bytes(bytes, scratch)?)
    }

    fn ingest_sequenced(
        &self,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<SeqIngest, JournalError> {
        // Hold the table lock across check-apply-record: a retry of the
        // same batch arriving on a fresh connection while a zombie
        // thread is mid-apply must observe apply+record atomically, or
        // it could double-count the frame.
        let mut table = self.lock_dedup();
        let last = table.last_seq(client_id).unwrap_or(0);
        if seq > last {
            let (kind, records) = self.aggregator.ingest_frame_bytes(bytes, scratch)?;
            table.record(client_id, seq);
            Ok(SeqIngest::Applied { kind, records })
        } else {
            drop(table);
            // Bad frame beats duplicate: the retransmission is
            // acknowledged only if it is well-formed. It decodes into the
            // connection scratch, as in the durable store, and is never
            // applied.
            self.aggregator.partition_frame(bytes, scratch)?;
            Ok(SeqIngest::Duplicate)
        }
    }

    fn advance_epoch(&self) -> Result<u64, JournalError> {
        Ok(self.aggregator.advance_epoch())
    }

    fn dedup_usage(&self) -> DedupUsage {
        let table = self.lock_dedup();
        DedupUsage {
            clients: table.len(),
            max_seq: table.max_seq(),
        }
    }
}
