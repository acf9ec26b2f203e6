//! Crash-recovery equivalence and WAL-mutilation property tests.
//!
//! The invariant under test everywhere: a reopened store's observable
//! state — encoded snapshot bytes, decay epoch, dedup table (entries
//! and touch counter), lifetime counters — is **byte-identical** to an
//! uninterrupted aggregator that ingested exactly the durable prefix of
//! operations, and recovery never panics or half-applies, whatever the
//! on-disk mutilation.
//!
//! A crash is tested as the data directory it leaves: the tests write
//! that state (a WAL cut at or inside a record, an orphaned checkpoint
//! temp file) and reopen it. The write path has no crash hooks.

use crate::checkpoint::{Checkpoint, CKPT_FILE, CKPT_TMP_FILE};
use crate::store::{FsyncPolicy, ProfileStore, RecoveryReport, StoreConfig};
use crate::test_dir::TestDir;
use crate::wal::{
    self, list_segments, scan_segment, SegmentScan, SegmentWriter, RECORD_OVERHEAD, WAL_HEADER_LEN,
};
use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::CallEdge;
use cbs_profiled::{
    AggregatorConfig, DcgCodec, IngestScratch, JournalError, MemJournal, ProfileJournal, SeqIngest,
    ShardedAggregator,
};
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn agg(config: AggregatorConfig) -> Arc<ShardedAggregator> {
    Arc::new(ShardedAggregator::new(config))
}

fn decaying() -> AggregatorConfig {
    AggregatorConfig {
        decay_factor: 0.9,
        min_weight: 1e-9,
    }
}

fn fast_config() -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0, // only explicit checkpoints
        dedup_capacity: 3,   // small, so eviction determinism is exercised
    }
}

/// A delta frame with two fractional-weight edges derived from `i`.
fn frame(i: u64) -> Vec<u8> {
    let e = |a: u64, s: u64, b: u64| {
        CallEdge::new(
            MethodId::new(a as u32),
            CallSiteId::new(s as u32),
            MethodId::new(b as u32),
        )
    };
    DcgCodec::encode_delta(&[
        (e(i % 5, i % 3, (i * 7) % 11), 1.0 + (i as f64) * 0.37),
        (e((i * 3) % 7, 0, i % 4), 0.25 + (i as f64) * 0.11),
    ])
}

/// One scripted operation, so tests can interleave pushes, sequenced
/// pushes, and epoch advances and replay the identical sequence into a
/// reference aggregator.
#[derive(Debug, Clone)]
enum Op {
    Push(Vec<u8>),
    PushSeq {
        client: u64,
        seq: u64,
        frame: Vec<u8>,
    },
    Epoch,
}

fn mixed_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..12u64 {
        match i % 4 {
            0 => ops.push(Op::Push(frame(i))),
            3 => ops.push(Op::Epoch),
            _ => ops.push(Op::PushSeq {
                client: i % 5,
                seq: i / 4 + 1,
                frame: frame(i),
            }),
        }
    }
    ops
}

fn apply_to_store(store: &ProfileStore, op: &Op) -> Result<(), JournalError> {
    let mut scratch = IngestScratch::new();
    match op {
        Op::Push(f) => store.ingest_frame(f, &mut scratch).map(|_| ()),
        Op::PushSeq { client, seq, frame } => store
            .ingest_sequenced(*client, *seq, frame, &mut scratch)
            .map(|outcome| assert_ne!(outcome, SeqIngest::Duplicate, "scripted seqs are unique")),
        Op::Epoch => store.advance_epoch().map(|_| ()),
    }
}

/// Serially applies `ops` to a fresh uninterrupted reference and
/// returns (aggregator, dedup entries the MemJournal-equivalent would
/// hold). The dedup reference uses the same capped table semantics.
fn reference(config: AggregatorConfig, dedup_cap: usize, ops: &[Op]) -> ReferenceState {
    let aggregator = agg(config);
    let mut scratch = IngestScratch::new();
    let mut dedup = cbs_profiled::DedupTable::new(dedup_cap);
    let mut frames = 0u64;
    for op in ops {
        match op {
            Op::Push(f) => {
                aggregator.ingest_frame_bytes(f, &mut scratch).unwrap();
                frames += 1;
            }
            Op::PushSeq { client, seq, frame } => {
                aggregator.ingest_frame_bytes(frame, &mut scratch).unwrap();
                dedup.record(*client, *seq);
                frames += 1;
            }
            Op::Epoch => {
                aggregator.advance_epoch();
            }
        }
    }
    ReferenceState {
        snapshot: aggregator.encoded_snapshot().as_ref().clone(),
        epoch: aggregator.epoch(),
        frames,
        records: aggregator.stats().records,
        dedup_entries: dedup.entries(),
        dedup_next_touch: dedup.next_touch(),
        aggregator,
    }
}

struct ReferenceState {
    snapshot: Vec<u8>,
    epoch: u64,
    frames: u64,
    records: u64,
    dedup_entries: Vec<cbs_profiled::DedupEntry>,
    dedup_next_touch: u64,
    aggregator: Arc<ShardedAggregator>,
}

fn assert_store_matches(store: &ProfileStore, reference: &ReferenceState) {
    assert_eq!(
        store.aggregator().encoded_snapshot().as_ref(),
        &reference.snapshot,
        "encoded snapshot must be byte-identical"
    );
    assert_eq!(store.aggregator().epoch(), reference.epoch, "epoch");
    let stats = store.aggregator().stats();
    assert_eq!(stats.frames, reference.frames, "lifetime frames");
    assert_eq!(stats.records, reference.records, "lifetime records");
    assert_eq!(
        store.dedup_entries(),
        reference.dedup_entries,
        "dedup entries (including touch stamps)"
    );
    assert_eq!(
        store.dedup_next_touch(),
        reference.dedup_next_touch,
        "dedup touch counter"
    );
}

#[test]
fn reopen_without_checkpoint_is_bit_identical() {
    let dir = TestDir::new("reopen-plain");
    let ops = mixed_ops();
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        for op in &ops {
            apply_to_store(&store, op).unwrap();
        }
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let reference = reference(decaying(), 3, &ops);
    assert_store_matches(&reopened, &reference);
    let report = reopened.recovery_report();
    assert_eq!(report.checkpoint_epoch, None);
    assert_eq!(report.replayed_frames, reference.frames);
    assert!(!report.truncated_tail);

    // Decay state lines up too: the next epoch advance must keep the
    // recovered and uninterrupted worlds in bitwise lockstep.
    reopened.advance_epoch().unwrap();
    reference.aggregator.advance_epoch();
    assert_eq!(
        reopened.aggregator().encoded_snapshot().as_ref(),
        reference.aggregator.encoded_snapshot().as_ref(),
        "post-recovery epoch advance must stay in lockstep"
    );
}

#[test]
fn reopen_after_checkpoint_replays_only_the_tail() {
    let dir = TestDir::new("reopen-ckpt");
    let ops = mixed_ops();
    let (head, tail) = ops.split_at(8);
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        for op in head {
            apply_to_store(&store, op).unwrap();
        }
        store.checkpoint_now().unwrap();
        for op in tail {
            apply_to_store(&store, op).unwrap();
        }
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &ops));
    let report = reopened.recovery_report();
    assert!(report.checkpoint_epoch.is_some());
    let tail_frames = tail.iter().filter(|op| !matches!(op, Op::Epoch)).count() as u64;
    assert_eq!(report.replayed_frames, tail_frames, "only the tail replays");
}

#[test]
fn automatic_checkpoints_fire_and_truncate_the_log() {
    let dir = TestDir::new("auto-ckpt");
    let config = StoreConfig {
        checkpoint_every: 4,
        ..fast_config()
    };
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config.clone()).unwrap();
        let mut scratch = IngestScratch::new();
        for i in 0..10u64 {
            store.ingest_frame(&frame(i), &mut scratch).unwrap();
        }
    }
    let inspection = crate::inspect(dir.path()).unwrap();
    assert_eq!(inspection.tail_frames(), 2, "only frames 8..10 in the tail");
    let ckpt = inspection.checkpoint.expect("auto checkpoint committed");
    assert_eq!(ckpt.frames, 8, "two checkpoints at every 4th frame");
    // Subsumed segments were deleted.
    assert!(inspection.segments.iter().all(|s| s.seq >= ckpt.wal_seq));
}

#[test]
fn bad_frame_is_rolled_back_and_never_journaled() {
    let dir = TestDir::new("bad-frame");
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let mut scratch = IngestScratch::new();
    store.ingest_frame(&frame(0), &mut scratch).unwrap();
    let err = store.ingest_frame(b"not a CBSP frame", &mut scratch);
    assert!(matches!(err, Err(JournalError::Frame(_))));
    store.ingest_frame(&frame(1), &mut scratch).unwrap();

    // The WAL holds exactly the two good frames, contiguously.
    let segments = list_segments(store.dir()).unwrap();
    let scan = scan_segment(&segments[0].1).unwrap();
    assert!(!scan.corrupt);
    assert_eq!(scan.records.len(), 2);

    // And a duplicate sequenced retransmission is validated, not acked
    // blindly ("bad frame beats duplicate").
    store
        .ingest_sequenced(1, 1, &frame(2), &mut scratch)
        .unwrap();
    assert!(matches!(
        store.ingest_sequenced(1, 1, b"garbage", &mut scratch),
        Err(JournalError::Frame(_))
    ));
    assert_eq!(
        store
            .ingest_sequenced(1, 1, &frame(2), &mut scratch)
            .unwrap(),
        SeqIngest::Duplicate
    );
}

/// `MemJournal` and `ProfileStore` are two implementations of one
/// contract. The same script — plain and sequenced pushes, a replayed
/// sequence, malformed frames in every position, an epoch advance
/// between pushes, more clients than the dedup table holds — must
/// answer identically op by op and leave identical observable state,
/// in memory, on the live store, and on the store reopened from its WAL.
#[test]
fn mem_journal_and_store_honour_one_contract() {
    let seq = |client, seq, frame: Vec<u8>| Op::PushSeq { client, seq, frame };
    let garbage = || b"not a CBSP frame".to_vec();
    let script = [
        Op::Push(frame(0)),
        seq(1, 1, frame(1)),
        seq(2, 1, frame(2)),
        seq(1, 1, frame(1)),  // replay: duplicate, not re-applied
        seq(1, 1, garbage()), // malformed replay: bad frame beats duplicate
        seq(1, 2, garbage()), // malformed new frame: seq 2 stays unused
        Op::Push(garbage()),
        Op::Epoch,
        seq(1, 2, frame(3)), // so this is applied, after the decay
        seq(3, 7, frame(4)),
        seq(4, 1, frame(5)), // fourth client: the 3-entry table evicts
        Op::Push(frame(6)),
    ];
    let run = |journal: &dyn ProfileJournal| -> Vec<String> {
        let mut scratch = IngestScratch::new();
        script
            .iter()
            .map(|op| match op {
                Op::Push(f) => format!("{:?}", journal.ingest_frame(f, &mut scratch)),
                Op::PushSeq { client, seq, frame } => format!(
                    "{:?}",
                    journal.ingest_sequenced(*client, *seq, frame, &mut scratch)
                ),
                Op::Epoch => format!("{:?}", journal.advance_epoch()),
            })
            .collect()
    };
    let observe = |journal: &dyn ProfileJournal, agg: &ShardedAggregator| {
        (
            journal.dedup_usage(),
            agg.encoded_snapshot().as_ref().clone(),
            agg.encoded_plan().as_ref().clone(),
        )
    };

    let config = fast_config();
    let mem_agg = agg(decaying());
    let mem = MemJournal::with_capacity(Arc::clone(&mem_agg), config.dedup_capacity);
    let mem_results = run(&mem);
    let want = observe(&mem, &mem_agg);
    assert_eq!(
        mem_results.iter().filter(|r| r.starts_with("Err(")).count(),
        3
    );
    assert_eq!(mem_results[3], "Ok(Duplicate)");
    assert!(mem_results[8].starts_with("Ok(Applied"), "{mem_results:?}");
    assert_eq!(want.0.clients, 3, "the fourth client evicted one");

    let dir = TestDir::new("journal-contract");
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config.clone()).unwrap();
        assert_eq!(run(&store), mem_results, "results op by op");
        assert!(observe(&store, store.aggregator()) == want, "live store");
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
    assert!(
        observe(&reopened, reopened.aggregator()) == want,
        "store reopened from its WAL"
    );
}

/// Writes `ops` through a store into a fresh directory. Returns the
/// directory, the bytes of the one WAL segment holding them (records,
/// then the zero reserve) and each record's (start, end) offsets.
fn journaled(name: &str, ops: &[Op]) -> (TestDir, Vec<u8>, Vec<(u64, u64)>) {
    let dir = TestDir::new(name);
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        for op in ops {
            apply_to_store(&store, op).unwrap();
        }
    }
    // Recovery adds a fresh empty segment on every open; the data sits
    // in the first.
    let path = dir.path().join(wal::segment_file_name(1));
    let scan = scan_segment(&path).unwrap();
    assert_eq!(scan.records.len(), ops.len());
    let bounds = record_bounds(&scan);
    (dir, fs::read(&path).unwrap(), bounds)
}

/// Each scanned record's (start, end) offsets.
fn record_bounds(scan: &SegmentScan) -> Vec<(u64, u64)> {
    scan.records.iter().map(|r| (r.offset, r.end())).collect()
}

/// Every state a crash can leave in the log, written directly: the WAL
/// cut at each record boundary (a crash before that op's append, or
/// after it but before its sync, ack or apply), and each record torn
/// 0, 1, 7 or 30 bytes into its payload. Past the cut the file holds
/// the reserve's zeros, or ends. Each state must recover exactly the
/// ops whose records it holds whole.
#[test]
fn every_crash_cut_in_the_wal_recovers_exactly_the_whole_records() {
    let ops = mixed_ops();
    let (src, bytes, bounds) = journaled("crash-cuts-src", &ops);
    let work = TestDir::new("crash-cuts");
    let mut cuts = vec![(format!("boundary-{}", ops.len()), log_end(&bounds))];
    for (k, &(start, end)) in bounds.iter().enumerate() {
        cuts.push((format!("boundary-{k}"), start));
        for keep in [0, 1, 7, 30] {
            let torn_end = (start + RECORD_OVERHEAD + keep).min(end);
            cuts.push((format!("torn-{k}-keep-{keep}"), torn_end));
        }
    }
    for (name, cut) in cuts {
        let cut = cut as usize;
        let mut zeroed = bytes.clone();
        zeroed[cut..].fill(0);
        for (tail, state) in [("ends", &bytes[..cut]), ("zeros", &zeroed[..])] {
            let name = format!("{name}-{tail}");
            // A record survives when its bytes are all on disk. (A torn
            // epoch record whose missing bytes are zeros is whole.)
            let whole = bounds
                .iter()
                .take_while(|&&(s, e)| {
                    state.get(s as usize..e as usize) == Some(&bytes[s as usize..e as usize])
                })
                .count();
            let report = recover_state(work.path(), &name, state, &ops[..whole]);
            assert_eq!(
                report.replayed_frames + report.replayed_epochs,
                whole as u64,
                "{name}"
            );
            assert_eq!(
                report.truncated_tail,
                cut as u64 > log_end(&bounds[..whole]),
                "{name}: only bytes past the whole records are cut"
            );
        }
    }
    drop(src);
}

/// Opens a directory holding exactly `segment` as WAL segment 1, checks
/// the recovered store against a serial replay of `ops`, and returns
/// the recovery report.
fn recover_state(parent: &Path, name: &str, segment: &[u8], ops: &[Op]) -> RecoveryReport {
    let dir = parent.join(name);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(wal::segment_file_name(1)), segment).unwrap();
    let store = ProfileStore::open(&dir, agg(decaying()), fast_config())
        .unwrap_or_else(|e| panic!("{name}: recovery must not fail: {e}"));
    eprintln!("checking {name}");
    assert_store_matches(&store, &reference(decaying(), 3, ops));
    let report = store.recovery_report().clone();
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
    report
}

/// A crash mid-checkpoint leaves the rotated, still empty segment and a
/// checkpoint temp file that was never renamed into place. Recovery must
/// drop the temp, keep the checkpoint committed before it (if any), and
/// replay the WAL.
#[test]
fn an_orphaned_checkpoint_temp_is_dropped_and_the_wal_replays() {
    let ops = mixed_ops();
    for committed_at in [None, Some(6)] {
        let dir = TestDir::new("orphan-ckpt");
        {
            let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
            for (i, op) in ops.iter().enumerate() {
                if committed_at == Some(i) {
                    store.checkpoint_now().unwrap();
                }
                apply_to_store(&store, op).unwrap();
            }
        }
        let committed = fs::read(dir.path().join(CKPT_FILE)).ok();
        assert_eq!(committed.is_some(), committed_at.is_some());
        // What the interrupted checkpoint had written: the new segment
        // and the temp file, holding every op.
        let live_seq = list_segments(dir.path()).unwrap().last().unwrap().0;
        SegmentWriter::create(dir.path(), live_seq + 1).unwrap();
        let all = reference(decaying(), 3, &ops);
        Checkpoint {
            epoch: all.epoch,
            frames: all.frames,
            records: all.records,
            next_touch: all.dedup_next_touch,
            wal_seq: live_seq + 1,
            dedup: all.dedup_entries.clone(),
            snapshot: Arc::new(all.snapshot.clone()),
        }
        .write_temp(dir.path())
        .unwrap();

        let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        assert_store_matches(&reopened, &all);
        let before = reference(decaying(), 3, &ops[..committed_at.unwrap_or(0)]);
        let report = reopened.recovery_report();
        assert_eq!(
            report.checkpoint_epoch,
            committed_at.map(|_| before.epoch),
            "the orphan is never loaded"
        );
        assert_eq!(report.replayed_frames, all.frames - before.frames);
        assert_eq!(
            fs::read(dir.path().join(CKPT_FILE)).ok(),
            committed,
            "the committed checkpoint is kept, the orphan not installed"
        );
        assert!(
            !dir.path().join(CKPT_TMP_FILE).exists(),
            "recovery removes the orphaned temp file"
        );
    }
}

#[test]
fn open_requires_a_fresh_aggregator() {
    let dir = TestDir::new("fresh-agg");
    let aggregator = agg(decaying());
    let mut scratch = IngestScratch::new();
    aggregator
        .ingest_frame_bytes(&frame(0), &mut scratch)
        .unwrap();
    let err = ProfileStore::open(dir.path(), aggregator, fast_config()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

// ---------------------------------------------------------------------
// WAL mutilation property tests (satellite: every truncation offset,
// every byte flip).
// ---------------------------------------------------------------------

/// Builds a store directory holding one WAL segment with `n` plain
/// frames and no checkpoint; returns (dir, segment bytes, record
/// boundaries as (start, end) offsets, the pushes). The segment ends in
/// a non-empty zero reserve after the last record.
#[allow(clippy::type_complexity)]
fn mutilation_fixture(n: u64) -> (TestDir, Vec<u8>, Vec<(u64, u64)>, Vec<Op>) {
    let ops: Vec<Op> = (0..n).map(|i| Op::Push(frame(i))).collect();
    let (dir, bytes, bounds) = journaled("mutilate-src", &ops);
    let log_end = log_end(&bounds) as usize;
    assert!(
        bytes.len() >= log_end + 2 * RESERVE_EDGE,
        "the fixture's reserve must cover both swept edges"
    );
    assert!(
        bytes[log_end..].iter().all(|&b| b == 0),
        "the reserve is zeros"
    );
    (dir, bytes, bounds, ops)
}

/// The end of a fixture's log: where its zero reserve starts.
fn log_end(bounds: &[(u64, u64)]) -> u64 {
    bounds.last().map_or(WAL_HEADER_LEN, |&(_, end)| end)
}

/// Bytes swept at each edge of a fixture's zero reserve.
const RESERVE_EDGE: usize = 64;

/// The byte positions a mutilation sweep visits: every header and
/// record byte, then the first and last [`RESERVE_EDGE`] bytes of the
/// reserve. (Visiting all of a reserve's ~1 MiB of zeros would test one
/// rule a million times.)
fn swept_positions(bytes: &[u8], bounds: &[(u64, u64)]) -> Vec<usize> {
    (0..log_end(bounds) as usize + RESERVE_EDGE)
        .chain(bytes.len() - RESERVE_EDGE..bytes.len())
        .collect()
}

#[test]
fn truncation_at_every_byte_offset_recovers_the_longest_intact_prefix() {
    let (src, bytes, bounds, ops) = mutilation_fixture(6);
    let work = TestDir::new("mutilate-cut");
    let cuts = swept_positions(&bytes, &bounds)
        .into_iter()
        .chain([bytes.len()]);
    for cut in cuts {
        let expected = bounds
            .iter()
            .take_while(|&&(_, end)| end <= cut as u64)
            .count();
        let name = format!("cut-{cut}");
        let report = recover_state(work.path(), &name, &bytes[..cut], &ops[..expected]);
        assert_eq!(
            report.replayed_frames, expected as u64,
            "cut at {cut}: wrong number of records survived"
        );
    }
    drop(src);
}

#[test]
fn flipping_any_single_byte_recovers_a_consistent_prefix() {
    let (src, bytes, bounds, ops) = mutilation_fixture(6);
    let work = TestDir::new("mutilate-flip");
    for pos in swept_positions(&bytes, &bounds) {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xA5;
        // A flip inside record i's framing or payload cuts replay at i;
        // a flip in the header invalidates the whole segment; a flip in
        // the reserve cuts the log after its last record.
        let expected = if (pos as u64) < WAL_HEADER_LEN {
            0
        } else {
            bounds
                .iter()
                .position(|&(start, end)| (start..end).contains(&(pos as u64)))
                .unwrap_or(bounds.len())
        };
        let name = format!("flip-{pos}");
        let report = recover_state(work.path(), &name, &mutated, &ops[..expected]);
        assert_eq!(report.replayed_frames, expected as u64, "flip at {pos}");
    }
    drop(src);
}

#[test]
fn flipping_each_crc_byte_is_always_detected() {
    let (src, bytes, bounds, ops) = mutilation_fixture(6);
    let work = TestDir::new("mutilate-crc");
    for (i, &(start, _)) in bounds.iter().enumerate() {
        for b in 0..4u64 {
            let pos = (start + 4 + b) as usize; // CRC field: 4 bytes after len
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 1 << bit;
                let name = format!("crc-{i}-{b}-{bit}");
                let report = recover_state(work.path(), &name, &mutated, &ops[..i]);
                assert_eq!(
                    report.replayed_frames, i as u64,
                    "record {i}: CRC byte {b} bit {bit} flip must cut replay at {i}"
                );
            }
        }
    }
    drop(src);
}

/// The recovered state of `n` plain pushes of `frame(0..n)`.
fn pushes(n: u64) -> ReferenceState {
    let ops: Vec<Op> = (0..n).map(|i| Op::Push(frame(i))).collect();
    reference(decaying(), 3, &ops)
}

#[test]
fn a_clean_reserve_is_the_end_of_the_log_not_a_torn_tail() {
    let (src, bytes, bounds, _) = mutilation_fixture(5);
    let log_end = log_end(&bounds);
    let inspected = &crate::inspect(src.path()).unwrap().segments[0];
    assert_eq!(
        (
            inspected.log_bytes,
            inspected.reserve_bytes,
            inspected.torn_bytes
        ),
        (log_end, bytes.len() as u64 - log_end, 0),
        "inspect counts the reserve apart from the log"
    );
    assert!(!inspected.corrupt);
    let reopened = ProfileStore::open(src.path(), agg(decaying()), fast_config()).unwrap();
    let report = reopened.recovery_report();
    assert_eq!(report.replayed_frames, 5);
    assert!(!report.truncated_tail);
    assert_eq!(report.truncated_at, None);
    assert_eq!(
        fs::read(src.path().join(wal::segment_file_name(1))).unwrap(),
        bytes,
        "recovery leaves the segment and its reserve as they were"
    );
    assert_store_matches(&reopened, &pushes(5));
}

#[test]
fn a_non_zero_byte_in_the_reserve_cuts_the_log_after_its_last_record() {
    let (src, bytes, bounds, _) = mutilation_fixture(5);
    let log_end = log_end(&bounds);
    let work = TestDir::new("reserve-dirty");
    let (first, last) = (log_end as usize, bytes.len() - 1);
    for pos in [first, (first + last) / 2, last] {
        let dir = work.path().join(format!("dirty-{pos}"));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(wal::segment_file_name(1));
        let mut dirty = bytes.clone();
        dirty[pos] = 0x5A;
        fs::write(&path, &dirty).unwrap();
        let inspected = &crate::inspect(&dir).unwrap().segments[0];
        assert!(inspected.corrupt, "byte {pos}");
        assert_eq!(
            (
                inspected.log_bytes,
                inspected.reserve_bytes,
                inspected.torn_bytes
            ),
            (log_end, 0, bytes.len() as u64 - log_end),
            "byte {pos}: a dirty reserve is a torn tail"
        );
        let store = ProfileStore::open(&dir, agg(decaying()), fast_config()).unwrap();
        let report = store.recovery_report();
        assert_eq!(
            report.replayed_frames, 5,
            "byte {pos}: every record replays"
        );
        assert!(report.truncated_tail, "byte {pos}");
        assert_eq!(report.truncated_at, Some((1, log_end)), "byte {pos}");
        assert_eq!(fs::metadata(&path).unwrap().len(), log_end, "byte {pos}");
        assert_store_matches(&store, &pushes(5));
    }
    drop(src);
}

#[test]
fn a_torn_record_inside_the_reserve_is_cut() {
    const ACKED: u64 = 3;
    const KEEP: usize = 5;
    let dir = TestDir::new("reserve-torn");
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        let mut scratch = IngestScratch::new();
        for i in 0..ACKED {
            store.ingest_frame(&frame(i), &mut scratch).unwrap();
        }
    }
    // A power loss mid-append: the next record's framing and its first
    // KEEP payload bytes reach the reserve, the rest of it stays zeros.
    let path = dir.path().join(wal::segment_file_name(1));
    let log_end = scan_segment(&path).unwrap().valid_len;
    let record = wal::encode_record(&wal::encode_frame(&frame(ACKED)));
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .write_all_at(&record[..RECORD_OVERHEAD as usize + KEEP], log_end)
        .unwrap();
    let scan = scan_segment(&path).unwrap();
    assert!(scan.corrupt);
    assert_eq!(scan.records.len() as u64, ACKED);
    assert_eq!(scan.valid_len, log_end);
    let bytes = fs::read(&path).unwrap();
    let torn_end = (log_end + RECORD_OVERHEAD) as usize + KEEP;
    assert!(
        bytes.len() > torn_end && bytes[torn_end..].iter().all(|&b| b == 0),
        "the torn record's bytes landed inside the reserve"
    );

    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let report = reopened.recovery_report();
    assert!(report.truncated_tail);
    assert_eq!(report.truncated_at, Some((1, log_end)));
    assert_eq!(fs::metadata(&path).unwrap().len(), log_end);
    assert_store_matches(&reopened, &pushes(ACKED));
}

// ---------------------------------------------------------------------
// Staged write path: concurrent bit-identity, shared syncs, a failed
// sync mid-batch, and the durable-store defect-sweep regressions.
// ---------------------------------------------------------------------

/// Decodes the scanned WAL contents of `dir` (all segments, in order)
/// back into scripted ops — the authoritative serialization order of a
/// concurrent run.
fn wal_op_order(dir: &Path) -> Vec<Op> {
    let mut ops = Vec::new();
    for (_, path) in list_segments(dir).unwrap() {
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.corrupt, "no torn records expected in {path:?}");
        for record in &scan.records {
            match wal::decode_op(scan.payload(record)).expect("every record decodes") {
                wal::WalOp::Frame(f) => ops.push(Op::Push(f.to_vec())),
                wal::WalOp::SeqFrame { client, seq, frame } => ops.push(Op::PushSeq {
                    client,
                    seq,
                    frame: frame.to_vec(),
                }),
                wal::WalOp::Epoch(_) => ops.push(Op::Epoch),
            }
        }
    }
    ops
}

/// Hammers one store with four pusher threads of disjoint mixed ops and
/// asserts the tentpole invariant: the live store, a serial reference
/// ingesting the WAL order, and a recovered reopen agree byte-for-byte.
fn concurrent_ingest_matches_wal_order(name: &str, config: StoreConfig, acked_means_durable: bool) {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    let dir = TestDir::new(name);
    let wal_order;
    {
        let store = Arc::new(ProfileStore::open(dir.path(), agg(decaying()), config).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut scratch = IngestScratch::new();
                barrier.wait();
                for i in 0..PER_THREAD {
                    let n = t * PER_THREAD + i;
                    match n % 5 {
                        0 => {
                            store.ingest_frame(&frame(n), &mut scratch).unwrap();
                        }
                        4 => {
                            store.advance_epoch().unwrap();
                        }
                        _ => assert_ne!(
                            store
                                .ingest_sequenced(t + 1, i + 1, &frame(n), &mut scratch)
                                .unwrap(),
                            SeqIngest::Duplicate,
                            "scripted (client, seq) pairs are unique"
                        ),
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        if acked_means_durable {
            assert!(
                !store.wal_dirty(),
                "every op was acked; under `Always` that means durable"
            );
        }
        // The WAL's record order is the serialization the store claims
        // it applied; a serial reference ingesting that order must land
        // on the same bytes (f64 accumulation is order-sensitive, so
        // this catches any out-of-order apply).
        wal_order = wal_op_order(dir.path());
        assert_eq!(wal_order.len(), (THREADS * PER_THREAD) as usize);
        assert_store_matches(&store, &reference(decaying(), 3, &wal_order));
    }
    // And recovery replays that same order to the identical state.
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &wal_order));
}

#[test]
fn concurrent_pushers_are_bit_identical_without_fsync() {
    concurrent_ingest_matches_wal_order("conc-never", fast_config(), false);
}

#[test]
fn concurrent_pushers_are_bit_identical_under_fsync_always() {
    let before = crate::StoreMetrics::get().wal_ack_syncs.get();
    concurrent_ingest_matches_wal_order(
        "conc-always",
        StoreConfig {
            fsync: FsyncPolicy::Always,
            ..fast_config()
        },
        true,
    );
    assert!(
        crate::StoreMetrics::get().wal_ack_syncs.get() > before,
        "durable acks must have gone through the ack-path sync"
    );
}

/// A failed ack-path sync in the middle of concurrent traffic. The op
/// whose sync failed gets the one `Storage` error and every op a pusher
/// starts after its own first error is refused as poisoned. No pusher
/// is left waiting on a ticket that will never apply: the join is
/// bounded, so a waiter that stopped polling the poison flag fails the
/// test instead of hanging it. Every ack is in the WAL, and a reopen
/// equals a serial replay of the WAL's order.
#[test]
fn a_failed_sync_mid_batch_poisons_every_later_op() {
    // Whether a duplicate ack already waits on the failed op's ticket
    // when its sync fails is down to thread timing (about one run in
    // four on a 2-core host), so the race runs many times over.
    for _ in 0..20 {
        fail_a_sync_mid_batch();
    }
}

fn fail_a_sync_mid_batch() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 12;
    let dir = TestDir::new("sync-fails-midbatch");
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        ..fast_config()
    };
    let store = Arc::new(ProfileStore::open(dir.path(), agg(decaying()), config).unwrap());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let (done, finished) = std::sync::mpsc::channel();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let done = done.clone();
        std::thread::spawn(move || {
            let mut scratch = IngestScratch::new();
            let mut outcomes = Vec::new();
            let mut acks = 0;
            barrier.wait();
            for i in 0..PER_THREAD {
                // Every sequence number goes out twice. The retransmission's
                // duplicate ack waits in the turnstile for every ticket
                // issued before it, so some waiter sits on in-flight syncs.
                let (client, seq) = (t + 1, i / 2 + 1);
                let result =
                    store.ingest_sequenced(client, seq, &frame(t * PER_THREAD + seq), &mut scratch);
                if result.is_ok() {
                    acks += 1;
                    if t == 0 && acks == 3 {
                        store.fail_next_sync.store(true, Ordering::SeqCst);
                    }
                }
                outcomes.push(((client, seq), result));
            }
            // Release the store before reporting, so the reopen below
            // finds its lock free.
            drop(store);
            done.send(outcomes).unwrap();
        });
    }
    let outcomes: Vec<_> = (0..THREADS)
        .flat_map(|_| {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("every pusher returns: a poisoned store strands no waiter")
        })
        .collect();
    // Ops run in order per pusher: once one failed, the store was
    // poisoned, so each later op of that pusher is refused.
    let mut storage_errors = 0;
    for pusher in outcomes.chunks(PER_THREAD as usize) {
        let first_err = pusher.iter().position(|(_, r)| r.is_err());
        for (_, result) in &pusher[first_err.map_or(pusher.len(), |i| i + 1)..] {
            assert!(matches!(result, Err(JournalError::Poisoned)), "{result:?}");
        }
        for (_, result) in pusher {
            match result {
                Ok(_) | Err(JournalError::Poisoned) => {}
                Err(JournalError::Storage(_)) => storage_errors += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    assert_eq!(storage_errors, 1, "exactly one op sees the failed sync");
    assert!(matches!(
        store.ingest_frame(&frame(0), &mut IngestScratch::new()),
        Err(JournalError::Poisoned)
    ));
    drop(store);

    // Ops appended behind the failed sync are journaled but never
    // acked. Every ack must be covered by the WAL, and recovery must
    // equal serial ingest of the scanned record order.
    let wal_order = wal_op_order(dir.path());
    let journaled: Vec<(u64, u64)> = wal_order
        .iter()
        .filter_map(|op| match op {
            Op::PushSeq { client, seq, .. } => Some((*client, *seq)),
            _ => None,
        })
        .collect();
    for (pair, result) in &outcomes {
        if result.is_ok() {
            assert!(
                journaled.contains(pair),
                "acked {pair:?} must be in the WAL"
            );
        }
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &wal_order));
}

#[test]
fn duplicate_seq_ack_is_durable_under_fsync_always() {
    let dir = TestDir::new("dup-durable");
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        ..fast_config()
    };
    let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
    let mut scratch = IngestScratch::new();
    assert_ne!(
        store
            .ingest_sequenced(7, 1, &frame(0), &mut scratch)
            .unwrap(),
        SeqIngest::Duplicate
    );
    // The duplicate ack promises the *original* is durable: the WAL
    // must be clean when it returns.
    assert_eq!(
        store
            .ingest_sequenced(7, 1, &frame(0), &mut scratch)
            .unwrap(),
        SeqIngest::Duplicate
    );
    assert!(!store.wal_dirty());
}

#[test]
fn a_failed_sync_off_the_ack_path_poisons_the_store() {
    // Every WAL sync shares one open file, and Linux reports a writeback
    // error once per open file description: a manual or checkpoint sync
    // that failed without poisoning would let the next ack-path sync
    // return `Ok` over pages the kernel dropped.
    type Sync = fn(&ProfileStore) -> Result<(), JournalError>;
    let syncs: [(&str, Sync); 2] = [
        ("sync-now-fails", ProfileStore::sync_now),
        ("checkpoint-sync-fails", ProfileStore::checkpoint_now),
    ];
    for (name, sync) in syncs {
        let dir = TestDir::new(name);
        {
            let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
            let mut scratch = IngestScratch::new();
            store.ingest_frame(&frame(0), &mut scratch).unwrap();
            store.fail_next_sync.store(true, Ordering::SeqCst);
            assert!(
                matches!(sync(&store), Err(JournalError::Storage(_))),
                "{name}: the sync error is reported"
            );
            // A poisoned store refuses everything until reopened.
            let refused = [
                store.ingest_frame(&frame(1), &mut scratch).map(drop),
                store
                    .ingest_sequenced(1, 1, &frame(1), &mut scratch)
                    .map(drop),
                store.advance_epoch().map(drop),
                store.checkpoint_now(),
                store.sync_now(),
            ];
            for result in refused {
                assert!(
                    matches!(result, Err(JournalError::Poisoned)),
                    "{name}: {result:?}"
                );
            }
        }
        let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        assert_store_matches(&reopened, &pushes(1));
    }
}

#[test]
fn flush_syncs_a_dirty_tail_and_is_idempotent() {
    let dir = TestDir::new("flush-dirty");
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let mut scratch = IngestScratch::new();
    store.ingest_frame(&frame(0), &mut scratch).unwrap();
    assert!(store.wal_dirty(), "lazy fsync leaves the tail unsynced");
    store.flush().unwrap();
    assert!(!store.wal_dirty());
    store.flush().unwrap(); // clean flush is a no-op
    assert!(!store.wal_dirty());
    store.ingest_frame(&frame(1), &mut scratch).unwrap();
    store.checkpoint_now().unwrap();
    assert!(!store.wal_dirty(), "a checkpoint syncs the tail");
}

#[test]
fn graceful_server_shutdown_syncs_the_lazy_wal_tail() {
    let dir = TestDir::new("shutdown-sync");
    let aggregator = agg(decaying());
    let store =
        Arc::new(ProfileStore::open(dir.path(), Arc::clone(&aggregator), fast_config()).unwrap());
    let before = crate::StoreMetrics::get().wal_shutdown_syncs.get();
    let server = cbs_profiled::serve_with(
        "127.0.0.1:0",
        aggregator,
        cbs_profiled::NetConfig::default(),
        Arc::clone(&store) as Arc<dyn ProfileJournal>,
    )
    .unwrap();
    let mut client =
        cbs_profiled::ProfileClient::connect(server.addr(), cbs_profiled::NetConfig::default())
            .unwrap();
    client.push_frame(&frame(0)).unwrap();
    drop(client);
    assert!(
        store.wal_dirty(),
        "the acked push is not yet on stable storage"
    );
    server.shutdown();
    assert!(
        !store.wal_dirty(),
        "graceful shutdown must sync the WAL tail"
    );
    assert!(crate::StoreMetrics::get().wal_shutdown_syncs.get() > before);
}

#[test]
fn checkpoint_survives_a_failed_segment_deletion_and_retries() {
    let dir = TestDir::new("gc-nonfatal");
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let mut scratch = IngestScratch::new();
    for i in 0..4u64 {
        store.ingest_frame(&frame(i), &mut scratch).unwrap();
    }
    // Sabotage GC: park the live segment and put a directory at its
    // path. The store's open fd is unaffected; `remove_file` fails.
    let victim = dir.path().join(wal::segment_file_name(1));
    let parked = dir.path().join("segment-1.parked");
    fs::rename(&victim, &parked).unwrap();
    fs::create_dir(&victim).unwrap();

    let before = crate::StoreMetrics::get().checkpoint_gc_errors.get();
    store.checkpoint_now().unwrap(); // the checkpoint itself must commit
    assert!(
        crate::StoreMetrics::get().checkpoint_gc_errors.get() > before,
        "the failed deletion is counted, not fatal"
    );
    assert!(dir.path().join("checkpoint.cbsc").exists());
    assert!(victim.exists(), "the undeletable entry is still there");
    assert!(
        fs::metadata(&parked).unwrap().len() < wal::RESERVE_CHUNK,
        "the rotation trimmed the old segment's reserve"
    );

    // The store keeps serving, and once the obstruction clears the
    // next checkpoint's GC retries the deletion and wins.
    store.ingest_frame(&frame(4), &mut scratch).unwrap();
    fs::remove_dir(&victim).unwrap();
    fs::rename(&parked, &victim).unwrap();
    store.checkpoint_now().unwrap();
    assert!(!victim.exists(), "the next checkpoint deleted the leftover");
}

#[test]
fn second_opener_is_refused_while_the_store_is_live() {
    let dir = TestDir::new("lock-refusal");
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let err = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert!(
        err.to_string().contains("locked by running process"),
        "the refusal must say who holds the lock: {err}"
    );
    drop(store);
    // Releasing the lock makes the directory usable again.
    ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
}

// ---------------------------------------------------------------------
// Two-stage replay: a reader thread scans and decodes ahead while the
// opening thread applies, so these pin the cases where the reader has
// run past the record that decides the outcome.
// ---------------------------------------------------------------------

/// `n` mixed ops in the pattern of [`mixed_ops`]: every sequenced push
/// is new for its client.
fn long_mixed_ops(n: u64) -> Vec<Op> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Op::Push(frame(i)),
            3 => Op::Epoch,
            _ => Op::PushSeq {
                client: i % 5,
                seq: i / 4 + 1,
                frame: frame(i),
            },
        })
        .collect()
}

/// Writes `sessions` through a store, reopening it before each one, so
/// each session's ops land in a segment of their own (1, 2, ...).
fn multi_segment(name: &str, sessions: &[&[Op]]) -> TestDir {
    let dir = TestDir::new(name);
    for ops in sessions {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        for op in *ops {
            apply_to_store(&store, op).unwrap();
        }
    }
    let segments: Vec<u64> = list_segments(dir.path())
        .unwrap()
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(segments, (1..=sessions.len() as u64).collect::<Vec<_>>());
    dir
}

/// The report a recovery that cuts segment `seq` at `offset` after
/// replaying `prefix` (of one segment, no checkpoint) must return.
fn cut_report(seq: u64, offset: u64, prefix: &[Op], reference: &ReferenceState) -> RecoveryReport {
    RecoveryReport {
        checkpoint_epoch: None,
        segments_scanned: seq as usize,
        stale_segments_removed: 0,
        replayed_frames: reference.frames,
        replayed_records: reference.records,
        replayed_epochs: prefix.iter().filter(|op| matches!(op, Op::Epoch)).count() as u64,
        replayed_wal_bytes: offset,
        truncated_tail: true,
        truncated_at: Some((seq, offset)),
    }
}

#[test]
fn a_bad_record_in_an_early_segment_cuts_there_after_later_segments_were_read() {
    const PER_SEGMENT: usize = 12;
    let ops = long_mixed_ops(3 * PER_SEGMENT as u64);
    let sessions: Vec<&[Op]> = ops.chunks(PER_SEGMENT).collect();
    // Record 9 of segment 1 is a sequenced push (ops 1, 2, 5, 6, 9 and
    // 10 are). Three ways to spoil it, each one payload byte: the
    // frame's first byte with the CRC fixed up (the reader decodes on
    // into segments 2 and 3 and the applier cuts behind it), the tag
    // with the CRC fixed up, and the frame's first byte alone (a CRC
    // mismatch, where the scan stops).
    const VICTIM: usize = 9;
    assert!(matches!(ops[VICTIM], Op::PushSeq { .. }));
    for (name, at, fix_crc) in [
        ("undecodable-frame", 17, true),
        ("unknown-tag", 0, true),
        ("crc-mismatch", 17, false),
    ] {
        let dir = multi_segment(name, &sessions);
        let path = dir.path().join(wal::segment_file_name(1));
        let scan = scan_segment(&path).unwrap();
        let victim = scan.records[VICTIM];
        let mut payload = scan.payload(&victim).to_vec();
        payload[at] ^= 0xEE;
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&payload, victim.offset + RECORD_OVERHEAD)
            .unwrap();
        if fix_crc {
            let crc = crate::crc::crc32(&payload);
            file.write_all_at(&crc.to_le_bytes(), victim.offset + 4)
                .unwrap();
        }
        let prefix = &ops[..VICTIM];
        let reference = reference(decaying(), 3, prefix);
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        assert_eq!(
            store.recovery_report(),
            &cut_report(1, victim.offset, prefix, &reference),
            "{name}"
        );
        assert_store_matches(&store, &reference);
        assert_eq!(fs::metadata(&path).unwrap().len(), victim.offset, "{name}");
        let left: Vec<u64> = list_segments(dir.path())
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(left, [1, 4], "{name}: segments 2 and 3 are gone");
    }
}

#[test]
fn every_clean_segment_replays_and_counts_its_log_bytes() {
    let ops = long_mixed_ops(30);
    let sessions: Vec<&[Op]> = ops.chunks(10).collect();
    let dir = multi_segment("multi-clean", &sessions);
    let log_bytes: u64 = list_segments(dir.path())
        .unwrap()
        .iter()
        .map(|(_, path)| scan_segment(path).unwrap().valid_len)
        .sum();
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.segments_scanned, 3);
    assert_eq!(report.replayed_wal_bytes, log_bytes);
    assert!(!report.truncated_tail);
    assert_store_matches(&store, &reference(decaying(), 3, &ops));
}

#[test]
fn a_duplicate_sequenced_record_that_does_not_decode_is_skipped_not_cut() {
    let dir = TestDir::new("dup-undecodable");
    {
        let mut w = SegmentWriter::create(dir.path(), 1).unwrap();
        w.append(&wal::encode_seq_frame(1, 1, &frame(0))).unwrap();
        // Client 1 already applied seq 1: the dedup guard skips this
        // record before its frame is judged.
        w.append(&wal::encode_seq_frame(1, 1, b"not a CBSP frame"))
            .unwrap();
        w.append(&wal::encode_seq_frame(1, 2, &frame(1))).unwrap();
        w.append(&wal::encode_frame(&frame(2))).unwrap();
        // A new sequence whose frame does not decode is a cut.
        w.append(&wal::encode_seq_frame(1, 3, b"not a CBSP frame"))
            .unwrap();
        w.append(&wal::encode_frame(&frame(3))).unwrap();
        w.sync().unwrap();
    }
    let path = dir.path().join(wal::segment_file_name(1));
    let cut_at = scan_segment(&path).unwrap().records[4].offset;
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let replayed = [
        Op::PushSeq {
            client: 1,
            seq: 1,
            frame: frame(0),
        },
        Op::PushSeq {
            client: 1,
            seq: 2,
            frame: frame(1),
        },
        Op::Push(frame(2)),
    ];
    let reference = reference(decaying(), 3, &replayed);
    assert_eq!(
        store.recovery_report(),
        &cut_report(1, cut_at, &replayed, &reference)
    );
    assert_store_matches(&store, &reference);
}

#[test]
fn an_unreadable_segment_fails_open_with_its_scan_error() {
    let ops = long_mixed_ops(8);
    let dir = multi_segment("unreadable", &[&ops]);
    // A directory where segment 2 should be: listed by name, unreadable
    // as a file, and reached only after segment 1's records were sent.
    let path = dir.path().join(wal::segment_file_name(2));
    fs::create_dir(&path).unwrap();
    let want = scan_segment(&path).unwrap_err();
    let got = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap_err();
    assert_eq!(
        (got.kind(), got.to_string()),
        (want.kind(), want.to_string())
    );
    // Nothing was cut or removed, and the directory is not left locked.
    assert_eq!(list_segments(dir.path()).unwrap().len(), 2);
    fs::remove_dir(&path).unwrap();
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert!(!store.recovery_report().truncated_tail);
    assert_store_matches(&store, &reference(decaying(), 3, &ops));
}

#[test]
fn a_segment_whose_header_names_another_sequence_is_cut_whole() {
    let ops = long_mixed_ops(24);
    let sessions: Vec<&[Op]> = ops.chunks(8).collect();
    let dir = multi_segment("misnamed", &sessions);
    // Segment 2's header claims sequence 7.
    let path = dir.path().join(wal::segment_file_name(2));
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .write_all_at(&7u64.to_le_bytes(), 5)
        .unwrap();
    let segment_1 = scan_segment(&dir.path().join(wal::segment_file_name(1)))
        .unwrap()
        .valid_len;
    let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let prefix = &ops[..8];
    let reference = reference(decaying(), 3, prefix);
    let mut want = cut_report(2, 0, prefix, &reference);
    want.replayed_wal_bytes = segment_1;
    assert_eq!(store.recovery_report(), &want);
    assert_store_matches(&store, &reference);
    let left: Vec<u64> = list_segments(dir.path())
        .unwrap()
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(left, [1, 4], "the misnamed segment and the one after it");
}
