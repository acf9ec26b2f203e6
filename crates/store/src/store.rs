//! [`ProfileStore`]: the durable [`ProfileJournal`] implementation.
//!
//! ## Staged write path
//!
//! Every accepted operation passes through three stages, so concurrent
//! pusher connections overlap instead of convoying on one store-wide
//! lock:
//!
//! 1. **Append** — a short critical section under the append lock:
//!    write one WAL record and take a *ticket*. The lock serializes
//!    appends, so ticket order **is** WAL record order.
//! 2. **Commit** — durability per [`FsyncPolicy`]. Under `Always`, the
//!    ack takes the one sync mutex: if an earlier sync already covered
//!    its ticket it returns at once, otherwise it runs `sync_all` on the
//!    live segment and marks every ticket appended before that sync
//!    durable. Acks that queued on the mutex while a sync was in flight
//!    are covered by the next one, so batches form from overlap alone.
//! 3. **Apply** — a ticket-ordered turnstile folds each op into the
//!    aggregator in exactly WAL order. (f64 accumulation is not
//!    associative: replaying the log must reproduce the aggregator
//!    bit-for-bit, so applies may pipeline against appends and fsyncs
//!    but never reorder against each other.)
//!
//! Frames are decoded and partitioned *before* the append
//! (`ShardedAggregator::partition_frame`, which accepts exactly the
//! inputs the eager codec does), because with concurrent appenders a
//! failed apply can no longer truncate its record back off the log —
//! later appends already landed behind it. The partitioned buckets
//! then feed the apply stage directly, so each record is decoded once.
//!
//! ## Recovery invariant
//!
//! After `open`, the store's observable state — the encoded snapshot,
//! the decay epoch, the dedup table (entries *and* recency counter),
//! and the lifetime frame/record counters — is byte-identical to an
//! uninterrupted store that ingested exactly the durable prefix of
//! operations *in WAL record order*. A torn or corrupt WAL tail is
//! detected by CRC, truncated away, and reported; it is never an error
//! and never half-applied. The zero reserve a segment keeps past its
//! last record is the log's clean end: recovery leaves it in place and
//! does not report it.
//!
//! The data directory is guarded by an advisory lockfile
//! ([`crate::lock::StoreLock`]): a second opener fails fast instead of
//! corrupting the WAL, and a dead holder's lock is swept automatically
//! so crash recovery is never blocked.
//!
//! ## Poisoning
//!
//! A failed WAL sync, a store lock poisoned by a panic, or an apply that
//! diverges from its journaled record leaves the disk state unknown. The
//! store then sets a poisoned flag and fails every later operation with
//! [`JournalError::Poisoned`] until the directory is reopened; waiters
//! in the apply turnstile poll the flag, so none is stranded. Operations
//! already past their own checks may still complete.
//!
//! The write path has no crash hooks. A crash only leaves a data
//! directory for recovery to read — the WAL cut at or inside a record,
//! or a checkpoint temp file never renamed — so the tests write those
//! states directly and reopen them.

use crate::checkpoint::{Checkpoint, CKPT_TMP_FILE};
use crate::lock::StoreLock;
use crate::metrics::StoreMetrics;
use crate::wal::{
    self, decode_op, encode_epoch, encode_frame, encode_seq_frame, list_segments, scan_segment,
    SegmentWriter, WalOp, RECORD_OVERHEAD, WAL_HEADER_LEN,
};
use cbs_profiled::{
    CodecError, DedupEntry, DedupTable, DedupUsage, FrameKind, IngestScratch, JournalError,
    ProfileJournal, SeqIngest, ShardedAggregator,
};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Defensive wake-up interval for the apply turnstile's condvar waits:
/// every waiter also polls the poisoned flag, so a poisoned store can
/// never strand a sleeper even if a notification is lost to a panicking
/// thread.
const POISON_POLL: Duration = Duration::from_millis(50);

/// Largest WAL record payload accepted (a guard against a misconfigured
/// frame limit upstream).
const MAX_RECORD_BYTES: usize = 64 << 20;

/// When the WAL file is fsynced relative to the acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync before every ack: an acked operation survives power loss.
    /// Concurrent acks share a sync when they overlap one.
    Always,
    /// Never sync explicitly: an acked operation survives a process
    /// crash (the write reached the kernel) but not a power loss.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses the `--fsync` value; the error names the flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(Self::Always),
            "never" => Ok(Self::Never),
            _ => Err(format!("--fsync must be 'always' or 'never', got `{s}`")),
        }
    }
}

/// Durable-store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Applied frames between automatic checkpoints (`0` = only
    /// explicit [`ProfileStore::checkpoint_now`] calls).
    pub checkpoint_every: u64,
    /// Dedup-table client cap (`0` = unbounded).
    pub dedup_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1024,
            dedup_capacity: DedupTable::DEFAULT_CAPACITY,
        }
    }
}

/// What recovery found and did while opening the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The committed checkpoint's epoch, when one was loaded.
    pub checkpoint_epoch: Option<u64>,
    /// WAL segments scanned (checkpoint-subsumed leftovers excluded).
    pub segments_scanned: usize,
    /// Stale segments (subsumed by the checkpoint) deleted.
    pub stale_segments_removed: usize,
    /// Frames re-applied from the WAL.
    pub replayed_frames: u64,
    /// Edge records those frames carried.
    pub replayed_records: u64,
    /// Epoch advances re-applied from the WAL.
    pub replayed_epochs: u64,
    /// `true` when a torn/corrupt tail was truncated away (a clean zero
    /// reserve past the last record is neither).
    pub truncated_tail: bool,
    /// Where the truncation happened: (segment seq, byte offset).
    pub truncated_at: Option<(u64, u64)>,
}

/// Append-stage state: everything the short WAL critical section needs.
/// Holding this lock serializes WAL writes, so ticket order is record
/// order.
#[derive(Debug)]
struct AppendState {
    wal: SegmentWriter,
    dedup: DedupTable,
    frames_since_checkpoint: u64,
    /// Tickets issued so far; the next append takes `next_ticket + 1`.
    next_ticket: u64,
    /// The epoch the next `advance_epoch` will journal. Tracked here
    /// (not read from the aggregator) because earlier epoch tickets may
    /// still be in flight between append and apply.
    next_epoch: u64,
}

/// Apply-stage turnstile: `next` is the only ticket allowed to apply.
#[derive(Debug)]
struct ApplyState {
    next: u64,
}

/// Commit-stage state, guarded by the sync mutex: held across every
/// WAL sync, so at most one is ever in flight.
#[derive(Debug)]
struct SyncState {
    /// Highest ticket covered by a completed sync.
    durable: u64,
    /// The live segment's file handle, so a sync need not hold the
    /// append lock. Swapped on rotation *after* the old segment was
    /// synced, so tickets above `durable` are always in this file.
    file: Arc<File>,
}

/// The durable profile journal. See the module docs.
#[derive(Debug)]
pub struct ProfileStore {
    dir: PathBuf,
    /// Advisory data-directory lock; held for the store's lifetime and
    /// released (deleted) on drop.
    _lock: StoreLock,
    aggregator: Arc<ShardedAggregator>,
    config: StoreConfig,
    recovery: RecoveryReport,
    /// Set by a failed WAL sync, a lock poisoned mid-operation, or an
    /// apply that diverged from its record; every later operation fails
    /// with [`JournalError::Poisoned`].
    poisoned: AtomicBool,
    append: Mutex<AppendState>,
    /// Highest ticket whose WAL record is written. Stored under the
    /// append lock after the write returns, so a sync that starts after
    /// reading it covers every ticket up to the value read.
    appended: AtomicU64,
    sync: Mutex<SyncState>,
    apply: Mutex<ApplyState>,
    apply_cv: Condvar,
    /// Test-only fault seam: the next WAL sync fails as if `fsync` had
    /// reported a writeback error.
    #[cfg(test)]
    pub(crate) fail_next_sync: AtomicBool,
}

impl ProfileStore {
    /// Opens (or initializes) the store in `dir`, recovering
    /// checkpoint + WAL tail into `aggregator` — which must be fresh
    /// (zero frames, epoch zero): recovery rebuilds it from disk.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt checkpoint (`InvalidData`), a non-fresh
    /// aggregator (`InvalidInput`), or a directory locked by another
    /// live process (`AddrInUse`). A torn/corrupt WAL tail is *not* an
    /// error — it is truncated and reported in the [`RecoveryReport`].
    pub fn open(
        dir: impl Into<PathBuf>,
        aggregator: Arc<ShardedAggregator>,
        config: StoreConfig,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let lock = StoreLock::acquire(&dir)?;
        let stats = aggregator.stats();
        if stats.frames != 0 || stats.epoch != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ProfileStore::open requires a fresh aggregator (recovery rebuilds it)",
            ));
        }
        // A crash can leave a prepared-but-uncommitted checkpoint temp
        // behind; it was never acknowledged as installed, so drop it.
        let _ = fs::remove_file(dir.join(CKPT_TMP_FILE));

        let mut report = RecoveryReport::default();
        let mut dedup = DedupTable::new(config.dedup_capacity);
        let mut scratch = IngestScratch::new();
        let (mut base_frames, mut base_records) = (0u64, 0u64);
        let mut min_seq = 0u64;

        if let Some(ckpt) = Checkpoint::load(&dir)? {
            // Ingest the snapshot at epoch zero (undecayed — the bytes
            // are post-catch-up), then stamp the clock without decaying.
            aggregator
                .ingest_frame_bytes(&ckpt.snapshot, &mut scratch)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("checkpoint snapshot failed to decode: {e}"),
                    )
                })?;
            aggregator.restore_clock(ckpt.epoch);
            dedup.restore(ckpt.next_touch, &ckpt.dedup);
            base_frames = ckpt.frames;
            base_records = ckpt.records;
            min_seq = ckpt.wal_seq;
            report.checkpoint_epoch = Some(ckpt.epoch);
        }

        let mut max_seq_seen = min_seq;
        let mut live = Vec::new();
        for (seq, path) in list_segments(&dir)? {
            max_seq_seen = max_seq_seen.max(seq);
            if seq < min_seq {
                // Subsumed by the checkpoint: a crash between the
                // checkpoint rename and segment deletion left it here.
                fs::remove_file(&path)?;
                report.stale_segments_removed += 1;
            } else {
                live.push((seq, path));
            }
        }

        let mut cut: Option<(usize, u64, PathBuf)> = None; // (live idx, offset, path)
        'segments: for (idx, (_seq, path)) in live.iter().enumerate() {
            report.segments_scanned += 1;
            let scan = scan_segment(path)?;
            for record in &scan.records {
                let applied = match decode_op(&record.payload) {
                    Some(WalOp::Frame(frame)) => {
                        Some(aggregator.ingest_frame_bytes(frame, &mut scratch))
                    }
                    Some(WalOp::SeqFrame { client, seq, frame }) => {
                        // The writer only journals applied sequences, so
                        // a replayed pair is always new relative to the
                        // restored table; the guard is pure defense.
                        if dedup.last_seq(client).is_none_or(|last| seq > last) {
                            let applied = aggregator.ingest_frame_bytes(frame, &mut scratch);
                            if applied.is_ok() {
                                dedup.record(client, seq);
                            }
                            Some(applied)
                        } else {
                            None
                        }
                    }
                    Some(WalOp::Epoch(_)) => {
                        aggregator.advance_epoch();
                        report.replayed_epochs += 1;
                        None
                    }
                    None => {
                        // CRC-intact but undecodable: corruption. Cut
                        // here.
                        cut = Some((idx, record.offset, path.clone()));
                        break 'segments;
                    }
                };
                match applied {
                    Some(Ok((_, records))) => {
                        report.replayed_frames += 1;
                        report.replayed_records += records as u64;
                    }
                    Some(Err(_)) => {
                        // Same policy as an undecodable payload.
                        cut = Some((idx, record.offset, path.clone()));
                        break 'segments;
                    }
                    None => {}
                }
            }
            if scan.corrupt {
                cut = Some((idx, scan.valid_len, path.clone()));
                break 'segments;
            }
        }

        if let Some((idx, offset, path)) = cut {
            let seq = live[idx].0;
            if offset < WAL_HEADER_LEN {
                // Even the header is gone; nothing in the file is real.
                fs::remove_file(&path)?;
            } else {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset)?;
                f.sync_all()?;
            }
            // Anything after the cut never became durable in order;
            // later segments (if any) are unreachable tail too.
            for (_, later) in &live[idx + 1..] {
                fs::remove_file(later)?;
            }
            wal::sync_dir(&dir)?;
            report.truncated_tail = true;
            report.truncated_at = Some((seq, offset));
            StoreMetrics::get().recovery_truncated_tail.inc();
        }

        aggregator.restore_counters(
            base_frames + report.replayed_frames,
            base_records + report.replayed_records,
        );
        StoreMetrics::get()
            .recovery_replayed_frames
            .add(report.replayed_frames);

        let wal = SegmentWriter::create(&dir, max_seq_seen + 1)?;
        let file = wal.file();
        let next_epoch = aggregator.epoch();
        Ok(Self {
            dir,
            _lock: lock,
            config,
            poisoned: AtomicBool::new(false),
            append: Mutex::new(AppendState {
                wal,
                dedup,
                // A long replayed tail means the last checkpoint is
                // stale; carry the count so the next ingest can trigger
                // an automatic checkpoint promptly.
                frames_since_checkpoint: report.replayed_frames,
                next_ticket: 0,
                next_epoch,
            }),
            appended: AtomicU64::new(0),
            sync: Mutex::new(SyncState { durable: 0, file }),
            apply: Mutex::new(ApplyState { next: 1 }),
            apply_cv: Condvar::new(),
            #[cfg(test)]
            fail_next_sync: AtomicBool::new(false),
            aggregator,
            recovery: report,
        })
    }

    /// The aggregator this store recovers into and applies onto.
    pub fn aggregator(&self) -> &Arc<ShardedAggregator> {
        &self.aggregator
    }

    /// What recovery found when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The dedup table's entries (sorted by client id) — exposed so
    /// tests can assert bit-identical recovery of the table.
    pub fn dedup_entries(&self) -> Vec<DedupEntry> {
        self.lock_append().dedup.entries()
    }

    /// The dedup table's touch counter.
    pub fn dedup_next_touch(&self) -> u64 {
        self.lock_append().dedup.next_touch()
    }

    /// `true` when acknowledged appends are not yet covered by a sync —
    /// the window [`Self::sync_now`] (and the shutdown flush) closes.
    pub fn wal_dirty(&self) -> bool {
        self.lock_sync().durable < self.appended.load(Ordering::SeqCst)
    }

    /// Fsyncs the WAL tail now, regardless of policy.
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] on I/O failure (which also poisons the
    /// store), [`JournalError::Poisoned`] once the store is poisoned.
    pub fn sync_now(&self) -> Result<(), JournalError> {
        self.check_poisoned()?;
        self.sync_through(self.appended.load(Ordering::SeqCst), false)
    }

    /// Takes a checkpoint now: quiesces applies, rotates the WAL,
    /// snapshots the merged graph + epoch + counters + dedup table,
    /// installs it atomically, and deletes the subsumed segments.
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] on I/O failure, [`JournalError::Poisoned`]
    /// once the store is poisoned.
    pub fn checkpoint_now(&self) -> Result<(), JournalError> {
        let mut a = self.lock_append();
        self.check_poisoned()?;
        self.checkpoint_locked(&mut a)
    }

    fn check_poisoned(&self) -> Result<(), JournalError> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(JournalError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Recovers a poisoned lock result: a panic while a store lock was
    /// held leaves disk state unknown, so poison the store rather than
    /// guess.
    fn recover_poison<T>(&self, result: Result<T, PoisonError<T>>) -> T {
        result.unwrap_or_else(|e| {
            self.poisoned.store(true, Ordering::SeqCst);
            e.into_inner()
        })
    }

    fn lock_append(&self) -> MutexGuard<'_, AppendState> {
        self.recover_poison(self.append.lock())
    }

    fn lock_apply(&self) -> MutexGuard<'_, ApplyState> {
        self.recover_poison(self.apply.lock())
    }

    fn lock_sync(&self) -> MutexGuard<'_, SyncState> {
        self.recover_poison(self.sync.lock())
    }

    /// Appends one record under the append lock: the size check, the
    /// WAL write, and the ticket. Returns the ticket.
    fn append_locked(&self, a: &mut AppendState, payload: &[u8]) -> Result<u64, JournalError> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(JournalError::Storage(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte limit",
                    payload.len()
                ),
            )));
        }
        a.wal.append(payload)?;
        a.next_ticket += 1;
        self.appended.store(a.next_ticket, Ordering::SeqCst);
        Ok(a.next_ticket)
    }

    /// Runs `f` when `ticket`'s turn in the apply turnstile comes:
    /// applies happen in exactly WAL record order.
    fn apply_in_order<T>(
        &self,
        ticket: u64,
        f: impl FnOnce() -> Result<T, CodecError>,
    ) -> Result<T, JournalError> {
        let mut g = self.wait_turn(ticket)?;
        let result = f();
        g.next = ticket + 1;
        self.apply_cv.notify_all();
        drop(g);
        result.map_err(|e| {
            // Unreachable while validate and apply accept identical
            // inputs; if they ever disagree the aggregator may have
            // diverged from the WAL — poison rather than guess.
            self.poisoned.store(true, Ordering::SeqCst);
            e.into()
        })
    }

    /// Waits until every ticket up to and including `upto` has applied.
    fn wait_applied_through(&self, upto: u64) -> Result<(), JournalError> {
        self.wait_turn(upto + 1).map(drop)
    }

    /// The apply turnstile's one wait: blocks until every ticket below
    /// `ticket` has applied, then returns the turnstile's guard. It
    /// polls the poisoned flag, so a ticket that will never apply (its
    /// op failed after the append) cannot strand the waiter.
    fn wait_turn(&self, ticket: u64) -> Result<MutexGuard<'_, ApplyState>, JournalError> {
        let mut g = self.lock_apply();
        while g.next < ticket {
            self.check_poisoned()?;
            let (g2, _) = self.recover_poison(self.apply_cv.wait_timeout(g, POISON_POLL));
            g = g2;
        }
        Ok(g)
    }

    /// The WAL's one sync, behind every durability promise: `Always`
    /// acks (`ack`, counted in the batch metrics), [`Self::sync_now`]
    /// and the checkpoint's pre-rotation sync. Under the sync mutex it
    /// returns at once if an earlier sync already covered `ticket`;
    /// otherwise it fsyncs the live segment outside the append lock and
    /// marks every ticket appended before the sync durable. Callers
    /// queued on the mutex meanwhile find themselves covered by the
    /// next sync, so batches form from overlap alone.
    ///
    /// A failed sync poisons the store before the mutex is released.
    /// Every sync shares one open file, and Linux reports a writeback
    /// error once per open file description: a later sync could return
    /// `Ok` over pages the kernel already dropped.
    fn sync_through(&self, ticket: u64, ack: bool) -> Result<(), JournalError> {
        let mut s = self.lock_sync();
        if s.durable >= ticket {
            return Ok(());
        }
        self.check_poisoned()?;
        let target = self.appended.load(Ordering::SeqCst);
        if let Err(e) = self.sync_file(&s.file) {
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(JournalError::Storage(e));
        }
        if ack {
            let m = StoreMetrics::get();
            m.wal_ack_syncs.inc();
            m.wal_batch_size.observe(target - s.durable);
        }
        s.durable = target;
        Ok(())
    }

    /// `sync_all`, behind the test-only fault seam.
    fn sync_file(&self, file: &File) -> io::Result<()> {
        #[cfg(test)]
        if self.fail_next_sync.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected WAL sync failure"));
        }
        file.sync_all()
    }

    /// The durability stage of the write path, run *between* the append
    /// and the apply: the policy's durability wait. Running it before
    /// the serialized apply is what lets sync batches form — ops waiting
    /// out a sync overlap each other here instead of draining one by one
    /// through the turnstile first.
    fn commit_durable(&self, ticket: u64) -> Result<(), JournalError> {
        match self.config.fsync {
            FsyncPolicy::Always => self.sync_through(ticket, true),
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// The post-apply tail of the write path: metrics and the
    /// auto-checkpoint, which must follow the op's own apply (the
    /// checkpoint quiesces the turnstile through its own ticket).
    fn finish(&self, record_payload_len: usize, checkpoint_due: bool) -> Result<(), JournalError> {
        let m = StoreMetrics::get();
        m.wal_appends.inc();
        m.wal_bytes.add(RECORD_OVERHEAD + record_payload_len as u64);
        if checkpoint_due {
            self.maybe_auto_checkpoint()?;
        }
        Ok(())
    }

    /// Re-checks the auto-checkpoint threshold under the append lock
    /// and checkpoints if still due (a concurrent op may have beaten us
    /// to it).
    fn maybe_auto_checkpoint(&self) -> Result<(), JournalError> {
        let mut a = self.lock_append();
        self.check_poisoned()?;
        if self.config.checkpoint_every > 0
            && a.frames_since_checkpoint >= self.config.checkpoint_every
        {
            self.checkpoint_locked(&mut a)?;
        }
        Ok(())
    }

    fn checkpoint_locked(&self, a: &mut AppendState) -> Result<(), JournalError> {
        // Quiesce: the append lock blocks new tickets; draining the
        // turnstile makes the aggregator equal the WAL prefix exactly,
        // so the snapshot and the rotation point agree.
        self.wait_applied_through(a.next_ticket)?;
        // Rotate first: records appended after this critical section go
        // to the new segment, which is exactly the set the checkpoint
        // does not capture. The old segment's reserve is trimmed before
        // its last sync, which then need not write those zeros out.
        a.wal.trim_reserve()?;
        self.sync_through(a.next_ticket, false)?;
        let new_seq = a.wal.seq() + 1;
        a.wal = SegmentWriter::create(&self.dir, new_seq)?;
        self.lock_sync().file = a.wal.file();

        let stats = self.aggregator.stats();
        let ckpt = Checkpoint {
            epoch: stats.epoch,
            frames: stats.frames,
            records: stats.records,
            next_touch: a.dedup.next_touch(),
            wal_seq: new_seq,
            dedup: a.dedup.entries(),
            snapshot: self.aggregator.encoded_snapshot().as_ref().clone(),
        };
        ckpt.store(&self.dir)?;
        // The checkpoint is installed; from here on nothing can fail
        // it. Deleting subsumed segments is garbage collection — a
        // failure leaves stale segments recovery already knows to skip,
        // and the next checkpoint retries the deletion.
        let mut gc_errors = 0u64;
        match list_segments(&self.dir) {
            Ok(segments) => {
                for (seq, path) in segments {
                    if seq < new_seq && fs::remove_file(&path).is_err() {
                        gc_errors += 1;
                    }
                }
            }
            Err(_) => gc_errors += 1,
        }
        if wal::sync_dir(&self.dir).is_err() {
            // Only the deletions' durability is at stake (`store` synced
            // the rename); stale segments are harmless.
            gc_errors += 1;
        }
        if gc_errors > 0 {
            StoreMetrics::get().checkpoint_gc_errors.add(gc_errors);
        }
        a.frames_since_checkpoint = 0;
        StoreMetrics::get().checkpoints.inc();
        Ok(())
    }
}

impl ProfileJournal for ProfileStore {
    fn ingest_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), JournalError> {
        self.check_poisoned()?;
        // Partition before journaling: with concurrent appenders a bad
        // frame can no longer be truncated back off the log, so it must
        // prove itself before it is written — and the decoded buckets
        // ride along in `scratch` so the apply stage doesn't decode the
        // frame a second time.
        let (kind, _) = self.aggregator.partition_frame(bytes, scratch)?;
        let payload = encode_frame(bytes);
        let (ticket, checkpoint_due) = {
            let mut a = self.lock_append();
            self.check_poisoned()?;
            let ticket = self.append_locked(&mut a, &payload)?;
            a.frames_since_checkpoint += 1;
            let due = self.config.checkpoint_every > 0
                && a.frames_since_checkpoint >= self.config.checkpoint_every;
            (ticket, due)
        };
        self.commit_durable(ticket)?;
        let records =
            self.apply_in_order(ticket, || Ok(self.aggregator.apply_partitioned(scratch)))?;
        self.finish(payload.len(), checkpoint_due)?;
        Ok((kind, records))
    }

    fn ingest_sequenced(
        &self,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<SeqIngest, JournalError> {
        self.check_poisoned()?;
        // Bad frame beats duplicate, as in the in-memory journal. The
        // partition doubles as the apply stage's decoded input.
        let (kind, _) = self.aggregator.partition_frame(bytes, scratch)?;
        let mut a = self.lock_append();
        self.check_poisoned()?;
        let last = a.dedup.last_seq(client_id).unwrap_or(0);
        if seq <= last {
            let issued = a.next_ticket;
            drop(a);
            // A duplicate changes nothing and is not journaled, but its
            // ack carries the original's promise: applied, and (under
            // `Always`) durable — the original may still be in flight
            // between its append and its batch's sync.
            self.wait_applied_through(issued)?;
            if self.config.fsync == FsyncPolicy::Always {
                self.sync_through(issued, true)?;
            }
            return Ok(SeqIngest::Duplicate);
        }
        let payload = encode_seq_frame(client_id, seq, bytes);
        let ticket = self.append_locked(&mut a, &payload)?;
        // Recorded under the same lock as the append, so the dedup
        // check/record pair is atomic against racing pushes of the same
        // client — and the table's touch order is WAL record order,
        // which is what replay reproduces.
        a.dedup.record(client_id, seq);
        a.frames_since_checkpoint += 1;
        let checkpoint_due = self.config.checkpoint_every > 0
            && a.frames_since_checkpoint >= self.config.checkpoint_every;
        drop(a);
        self.commit_durable(ticket)?;
        let records =
            self.apply_in_order(ticket, || Ok(self.aggregator.apply_partitioned(scratch)))?;
        self.finish(payload.len(), checkpoint_due)?;
        Ok(SeqIngest::Applied { kind, records })
    }

    fn advance_epoch(&self) -> Result<u64, JournalError> {
        self.check_poisoned()?;
        let mut a = self.lock_append();
        self.check_poisoned()?;
        // The append lock serializes epoch tickets, and `next_epoch`
        // counts the advances already journaled (applied or not), so
        // the post-advance epoch is knowable at append time.
        let epoch_after = a.next_epoch + 1;
        let payload = encode_epoch(epoch_after);
        let ticket = self.append_locked(&mut a, &payload)?;
        a.next_epoch = epoch_after;
        drop(a);
        self.commit_durable(ticket)?;
        let advanced = self.apply_in_order(ticket, || Ok(self.aggregator.advance_epoch()))?;
        debug_assert_eq!(advanced, epoch_after);
        self.finish(payload.len(), false)?;
        Ok(advanced)
    }

    fn dedup_usage(&self) -> DedupUsage {
        let a = self.lock_append();
        DedupUsage {
            clients: a.dedup.len(),
            max_seq: a.dedup.max_seq(),
        }
    }

    fn flush(&self) -> Result<(), JournalError> {
        if !self.wal_dirty() {
            return Ok(());
        }
        self.sync_now()?;
        StoreMetrics::get().wal_shutdown_syncs.inc();
        Ok(())
    }
}
