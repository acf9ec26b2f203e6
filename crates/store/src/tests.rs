//! Crash-recovery equivalence and WAL-mutilation property tests.
//!
//! The invariant under test everywhere: a reopened store's observable
//! state — encoded snapshot bytes, decay epoch, dedup table (entries
//! and touch counter), lifetime counters — is **byte-identical** to an
//! uninterrupted aggregator that ingested exactly the durable prefix of
//! operations, and recovery never panics or half-applies, whatever the
//! on-disk mutilation.

use crate::store::{FsyncPolicy, ProfileStore, StoreConfig};
use crate::test_dir::TestDir;
use crate::wal::{self, list_segments, scan_segment, RECORD_OVERHEAD, WAL_HEADER_LEN};
use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::CallEdge;
use cbs_profiled::{
    AggregatorConfig, CrashSite, CrashSpec, DcgCodec, FaultSchedule, IngestScratch, JournalError,
    MemJournal, ProfileJournal, SeqIngest, ShardedAggregator,
};
use std::fs;
use std::path::Path;
use std::sync::Arc;

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
        ..StoreConfig::default()
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

/// Runs the scripted-crash scenario: apply `ops` until the store
/// crashes, then reopen and assert bit-identity with the durable
/// prefix. Returns the recovery report for site-specific assertions.
fn crash_and_recover(site: CrashSite, spec: CrashSpec) -> crate::RecoveryReport {
    let dir = TestDir::new("crash-site");
    let ops = mixed_ops();
    let schedule = FaultSchedule::scripted([]).with_crash(spec).shared();
    let config = StoreConfig {
        faults: Some(schedule.clone()),
        ..fast_config()
    };
    let crashed_at;
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
        let mut failed = None;
        for (i, op) in ops.iter().enumerate() {
            match apply_to_store(&store, op) {
                Ok(()) => {}
                Err(JournalError::Crashed) => {
                    failed = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected error at op {i}: {e}"),
            }
        }
        crashed_at = failed.expect("the scripted crash must fire");
        assert_eq!(schedule.lock().unwrap().counts().crashes, 1);
        // A crashed store refuses everything until reopened.
        assert!(matches!(
            apply_to_store(&store, &ops[crashed_at]),
            Err(JournalError::Crashed)
        ));
        assert!(matches!(store.checkpoint_now(), Err(JournalError::Crashed)));
    }

    // The durable prefix: ops before the crash, plus — for the sites
    // past the WAL append — the crashed operation itself (journaled,
    // never acknowledged, possibly never applied in-process).
    let durable = match site {
        CrashSite::AfterWalAppend | CrashSite::BeforeApply => &ops[..=crashed_at],
        _ => &ops[..crashed_at],
    };
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, durable));
    reopened.recovery_report().clone()
}

#[test]
fn crash_before_wal_append_loses_exactly_the_unjournaled_op() {
    let report = crash_and_recover(
        CrashSite::BeforeWalAppend,
        CrashSpec::at(CrashSite::BeforeWalAppend).after(5),
    );
    assert!(!report.truncated_tail, "nothing torn was written");
}

#[test]
fn crash_after_wal_append_preserves_the_unacked_op() {
    let report = crash_and_recover(
        CrashSite::AfterWalAppend,
        CrashSpec::at(CrashSite::AfterWalAppend).after(5),
    );
    assert!(!report.truncated_tail);
}

#[test]
fn crash_between_append_and_apply_replays_the_journaled_op() {
    // The staged write path opens a new failure window: the record is
    // in the WAL but the crash lands before the in-process apply. The
    // crashed process never saw the op's effect; recovery must.
    let report = crash_and_recover(
        CrashSite::BeforeApply,
        CrashSpec::at(CrashSite::BeforeApply).after(5),
    );
    assert!(!report.truncated_tail);
}

#[test]
fn torn_final_record_is_detected_truncated_and_excluded() {
    for keep in [0usize, 1, 7, 30] {
        let report = crash_and_recover(
            CrashSite::TornWalRecord,
            CrashSpec::at(CrashSite::TornWalRecord)
                .after(4)
                .keeping(keep),
        );
        assert!(report.truncated_tail, "keep={keep}: torn tail must be cut");
        assert!(report.truncated_at.is_some());
    }
}

#[test]
fn mid_checkpoint_crash_falls_back_to_the_wal() {
    let dir = TestDir::new("crash-midckpt");
    let ops = mixed_ops();
    let schedule = FaultSchedule::scripted([])
        .with_crash(CrashSpec::at(CrashSite::MidCheckpoint))
        .shared();
    let config = StoreConfig {
        faults: Some(schedule),
        ..fast_config()
    };
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
        for op in &ops {
            apply_to_store(&store, op).unwrap();
        }
        assert!(matches!(store.checkpoint_now(), Err(JournalError::Crashed)));
    }
    // The temp checkpoint must not have been installed.
    assert!(!dir.path().join("checkpoint.cbsc").exists());
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &ops));
    assert_eq!(reopened.recovery_report().checkpoint_epoch, None);
    assert!(
        !dir.path().join("checkpoint.cbsc.tmp").exists(),
        "recovery cleans the orphaned temp file"
    );
}

#[test]
fn mid_checkpoint_crash_keeps_the_previous_checkpoint() {
    let dir = TestDir::new("crash-midckpt-prev");
    let ops = mixed_ops();
    let (head, tail) = ops.split_at(6);
    let schedule = FaultSchedule::scripted([])
        .with_crash(CrashSpec::at(CrashSite::MidCheckpoint).after(1))
        .shared();
    let config = StoreConfig {
        faults: Some(schedule),
        ..fast_config()
    };
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
        for op in head {
            apply_to_store(&store, op).unwrap();
        }
        store.checkpoint_now().unwrap(); // first checkpoint commits
        for op in tail {
            apply_to_store(&store, op).unwrap();
        }
        assert!(matches!(store.checkpoint_now(), Err(JournalError::Crashed)));
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &ops));
    let report = reopened.recovery_report();
    assert!(
        report.checkpoint_epoch.is_some(),
        "the previous checkpoint still serves as the base"
    );
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
/// boundaries as (start, end) offsets, per-prefix reference snapshots).
/// The segment ends in a non-empty zero reserve after the last record.
#[allow(clippy::type_complexity)]
fn mutilation_fixture(n: u64) -> (TestDir, Vec<u8>, Vec<(u64, u64)>, Vec<Vec<u8>>) {
    let dir = TestDir::new("mutilate-src");
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        let mut scratch = IngestScratch::new();
        for i in 0..n {
            store.ingest_frame(&frame(i), &mut scratch).unwrap();
        }
    }
    let segments = list_segments(dir.path()).unwrap();
    // Recovery adds a fresh empty segment on every open; the data sits
    // in the first.
    let (_, ref data_path) = segments[0];
    let bytes = fs::read(data_path).unwrap();
    let scan = scan_segment(data_path).unwrap();
    assert_eq!(scan.records.len(), n as usize);
    let bounds: Vec<(u64, u64)> = scan
        .records
        .iter()
        .map(|r| {
            (
                r.offset,
                r.offset + RECORD_OVERHEAD + r.payload.len() as u64,
            )
        })
        .collect();
    let log_end = log_end(&bounds) as usize;
    assert!(
        bytes.len() >= log_end + 2 * RESERVE_EDGE,
        "the fixture's reserve must cover both swept edges"
    );
    assert!(
        bytes[log_end..].iter().all(|&b| b == 0),
        "the reserve is zeros"
    );

    let mut prefixes = Vec::new();
    for k in 0..=n {
        let reference = agg(decaying());
        let mut scratch = IngestScratch::new();
        for i in 0..k {
            reference
                .ingest_frame_bytes(&frame(i), &mut scratch)
                .unwrap();
        }
        prefixes.push(reference.encoded_snapshot().as_ref().clone());
    }
    (dir, bytes, bounds, prefixes)
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

/// Opens a directory containing exactly `bytes` as segment 1 and
/// asserts recovery lands on a clean reference prefix; returns the
/// number of frames replayed.
fn recover_mutilated(parent: &Path, name: &str, bytes: &[u8], prefixes: &[Vec<u8>]) -> u64 {
    let dir = parent.join(name);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(wal::segment_file_name(1)), bytes).unwrap();
    let store = ProfileStore::open(&dir, agg(decaying()), fast_config())
        .unwrap_or_else(|e| panic!("{name}: recovery must not fail: {e}"));
    let replayed = store.recovery_report().replayed_frames;
    assert!(
        (replayed as usize) < prefixes.len(),
        "{name}: replayed {replayed} frames, more than were ever written"
    );
    assert_eq!(
        store.aggregator().encoded_snapshot().as_ref(),
        &prefixes[replayed as usize],
        "{name}: recovered state must equal the {replayed}-frame prefix"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
    replayed
}

#[test]
fn truncation_at_every_byte_offset_recovers_the_longest_intact_prefix() {
    let (src, bytes, bounds, prefixes) = mutilation_fixture(6);
    let work = TestDir::new("mutilate-cut");
    let cuts = swept_positions(&bytes, &bounds)
        .into_iter()
        .chain([bytes.len()]);
    for cut in cuts {
        let expected = bounds
            .iter()
            .take_while(|&&(_, end)| end <= cut as u64)
            .count() as u64;
        let replayed =
            recover_mutilated(work.path(), &format!("cut-{cut}"), &bytes[..cut], &prefixes);
        assert_eq!(
            replayed, expected,
            "cut at {cut}: wrong number of records survived"
        );
    }
    drop(src);
}

#[test]
fn flipping_any_single_byte_recovers_a_consistent_prefix() {
    let (src, bytes, bounds, prefixes) = mutilation_fixture(6);
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
                .unwrap_or(bounds.len()) as u64
        };
        let replayed = recover_mutilated(work.path(), &format!("flip-{pos}"), &mutated, &prefixes);
        assert_eq!(replayed, expected, "flip at {pos}");
    }
    drop(src);
}

#[test]
fn flipping_each_crc_byte_is_always_detected() {
    let (src, bytes, bounds, prefixes) = mutilation_fixture(6);
    let work = TestDir::new("mutilate-crc");
    for (i, &(start, _)) in bounds.iter().enumerate() {
        for b in 0..4u64 {
            let pos = (start + 4 + b) as usize; // CRC field: 4 bytes after len
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 1 << bit;
                let replayed = recover_mutilated(
                    work.path(),
                    &format!("crc-{i}-{b}-{bit}"),
                    &mutated,
                    &prefixes,
                );
                assert_eq!(
                    replayed, i as u64,
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
    const KEEP: usize = 5;
    let dir = TestDir::new("reserve-torn");
    let config = StoreConfig {
        faults: Some(
            FaultSchedule::scripted([])
                .with_crash(
                    CrashSpec::at(CrashSite::TornWalRecord)
                        .after(3)
                        .keeping(KEEP),
                )
                .shared(),
        ),
        ..fast_config()
    };
    let mut acked = 0;
    {
        let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
        let mut scratch = IngestScratch::new();
        while store.ingest_frame(&frame(acked), &mut scratch).is_ok() {
            acked += 1;
        }
    }
    assert!(acked > 0, "the crash must land after an intact record");
    let path = dir.path().join(wal::segment_file_name(1));
    let scan = scan_segment(&path).unwrap();
    assert!(scan.corrupt);
    assert_eq!(scan.records.len() as u64, acked);
    let bytes = fs::read(&path).unwrap();
    let torn_end = (scan.valid_len + RECORD_OVERHEAD) as usize + KEEP;
    assert!(
        bytes.len() > torn_end && bytes[torn_end..].iter().all(|&b| b == 0),
        "the torn record's bytes landed inside the reserve"
    );

    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    let report = reopened.recovery_report();
    assert!(report.truncated_tail);
    assert_eq!(report.truncated_at, Some((1, scan.valid_len)));
    assert_eq!(fs::metadata(&path).unwrap().len(), scan.valid_len);
    assert_store_matches(&reopened, &pushes(acked));
}

// ---------------------------------------------------------------------
// Staged write path: concurrent bit-identity, shared syncs, mid-batch
// crashes, and the durable-store defect-sweep regressions.
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
            match wal::decode_op(&record.payload).expect("every record decodes") {
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
fn concurrent_pushers_are_bit_identical_under_group_commit() {
    let before = crate::StoreMetrics::get().wal_group_commits.get();
    concurrent_ingest_matches_wal_order(
        "conc-always",
        StoreConfig {
            fsync: FsyncPolicy::Always,
            ..fast_config()
        },
        true,
    );
    assert!(
        crate::StoreMetrics::get().wal_group_commits.get() > before,
        "durable acks must have gone through the group-commit stage"
    );
}

#[test]
fn mid_batch_crash_preserves_every_acked_push() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 12;
    let dir = TestDir::new("crash-midbatch");
    let schedule = FaultSchedule::scripted([])
        .with_crash(CrashSpec::at(CrashSite::AfterWalAppend).after(17))
        .shared();
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        faults: Some(schedule.clone()),
        ..fast_config()
    };
    let acked = {
        let store = Arc::new(ProfileStore::open(dir.path(), agg(decaying()), config).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut scratch = IngestScratch::new();
                let mut acked = Vec::new();
                barrier.wait();
                for i in 0..PER_THREAD {
                    let n = t * PER_THREAD + i;
                    match store.ingest_frame(&frame(n), &mut scratch) {
                        Ok(_) => acked.push(n),
                        Err(JournalError::Crashed) => break,
                        Err(e) => panic!("unexpected error at frame {n}: {e}"),
                    }
                }
                acked
            }));
        }
        let acked: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(schedule.lock().unwrap().counts().crashes, 1);
        acked
    };

    // The crash landed with group-commit acks outstanding: some pushes
    // were acked, the crashed op and racing appends were journaled but
    // never acknowledged. Every ack must be covered by the WAL, and
    // recovery must equal serial ingest of the scanned record order.
    let wal_order = wal_op_order(dir.path());
    assert!(
        acked.len() < (THREADS * PER_THREAD) as usize,
        "the scripted crash must have cut some pushers short"
    );
    assert!(acked.len() <= wal_order.len());
    for n in &acked {
        let bytes = frame(*n);
        assert!(
            wal_order
                .iter()
                .any(|op| matches!(op, Op::Push(f) if *f == bytes)),
            "acked frame {n} must be in the recovered WAL"
        );
    }
    let reopened = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
    assert_store_matches(&reopened, &reference(decaying(), 3, &wal_order));
}

#[test]
fn duplicate_seq_ack_is_durable_under_group_commit() {
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
        let store = ProfileStore::open(dir.path(), agg(decaying()), fast_config()).unwrap();
        let mut scratch = IngestScratch::new();
        store.ingest_frame(&frame(0), &mut scratch).unwrap();
        store
            .fail_next_sync
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(
            matches!(sync(&store), Err(JournalError::Storage(_))),
            "{name}: the sync error is reported"
        );
        assert!(
            matches!(
                store.ingest_frame(&frame(1), &mut scratch),
                Err(JournalError::Crashed)
            ),
            "{name}: the store is poisoned"
        );
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
        cbs_profiled::ServerConfig {
            journal: Some(Arc::clone(&store) as Arc<dyn ProfileJournal>),
            ..cbs_profiled::ServerConfig::default()
        },
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
fn poisoned_fault_schedule_is_recovered_not_propagated() {
    let dir = TestDir::new("poisoned-faults");
    let schedule = FaultSchedule::scripted([]).shared();
    let config = StoreConfig {
        faults: Some(Arc::clone(&schedule)),
        ..fast_config()
    };
    let store = ProfileStore::open(dir.path(), agg(decaying()), config).unwrap();
    // A holder thread panics with the schedule mutex held — exactly
    // what a scripted crash's unwinding test thread does.
    let holder = Arc::clone(&schedule);
    let panicker = std::thread::spawn(move || {
        let _guard = holder.lock().expect("first locker sees no poison");
        panic!("scripted panic while holding the fault schedule");
    });
    assert!(panicker.join().is_err(), "thread must have panicked");
    assert!(schedule.lock().is_err(), "the schedule mutex is poisoned");
    // Every journaled op probes the schedule at its crash sites; the
    // poisoned lock must be recovered, not escalated into a panic.
    let before = crate::StoreMetrics::get().fault_lock_recovered.get();
    let mut scratch = IngestScratch::new();
    store.ingest_frame(&frame(0), &mut scratch).unwrap();
    store.checkpoint_now().unwrap();
    assert!(crate::StoreMetrics::get().fault_lock_recovered.get() > before);
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
