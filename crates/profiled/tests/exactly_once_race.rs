//! Exactly-once sequenced ingest under parallel decode.
//!
//! `MemJournal::ingest_sequenced` decodes a frame into the connection's
//! own scratch before it takes the dedup lock, then checks the seq,
//! applies and records under one lock hold. Several threads, each with
//! its own `IngestScratch`, push into one journal here:
//!
//! * the *replayers* all push the same client's seqs, so every retry
//!   races its original;
//! * the *owners* push a client of their own, so each of their pushes
//!   has a known answer;
//! * malformed frames are interleaved at some seqs, both while the seq
//!   is fresh and after it has applied.
//!
//! Every round must apply every seq exactly once, reject every
//! malformed frame without recording it, and end byte-identical to a
//! serial fold of the same frames. Weights are integers, so the sums do
//! not depend on the order in which the frames land.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::CallEdge;
use cbs_profiled::{
    AggregatorConfig, DcgCodec, IngestScratch, JournalError, MemJournal, ProfileJournal, SeqIngest,
    ShardedAggregator,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

const ROUNDS: usize = 24;
const SEQS: u64 = 40;
const REPLAYERS: usize = 3;
const OWNERS: usize = 3;
const SHARED_CLIENT: u64 = 1;

fn owner_client(i: usize) -> u64 {
    100 + i as u64
}

/// The good frame for `(client, seq)`: 64 records with integral weights,
/// over a small edge space so frames overlap and sums accumulate.
fn frame(client: u64, seq: u64) -> Vec<u8> {
    let records: Vec<(CallEdge, f64)> = (0..64u32)
        .map(|i| {
            let mix = (client as u32).wrapping_mul(31) ^ (seq as u32).wrapping_mul(17) ^ i;
            let edge = CallEdge::new(
                MethodId::new(mix % 23),
                CallSiteId::new(i % 5),
                MethodId::new((mix / 23) % 29),
            );
            (edge, f64::from(1 + (mix % 7)))
        })
        .collect();
    DcgCodec::encode_delta(&records)
}

/// A malformed frame for `(client, seq)`: alternately garbage and a good
/// frame cut one byte short.
fn malformed(client: u64, seq: u64) -> Vec<u8> {
    if seq.is_multiple_of(2) {
        b"not a CBSP frame".to_vec()
    } else {
        let mut f = frame(client, seq);
        f.pop();
        f
    }
}

/// Seqs at which a pusher first sends a malformed frame, while the seq
/// may still be fresh.
fn bad_before(seq: u64) -> bool {
    seq % 7 == 3
}

/// Seqs at which a pusher sends a malformed frame again once the seq
/// has applied: a duplicate seq whose bytes are bad.
fn bad_after(seq: u64) -> bool {
    seq.is_multiple_of(5)
}

fn assert_rejected(got: Result<SeqIngest, JournalError>, what: &str) {
    assert!(
        matches!(got, Err(JournalError::Frame(_))),
        "{what}: a malformed frame must error, got {got:?}"
    );
}

/// One replayer: pushes every seq of the shared client in order and
/// returns, per seq, whether this thread's push was the one applied.
fn replay(journal: &MemJournal, frames: &[Vec<u8>]) -> Vec<bool> {
    let mut scratch = IngestScratch::new();
    (1..=SEQS)
        .map(|seq| {
            if bad_before(seq) {
                let bad = malformed(SHARED_CLIENT, seq);
                assert_rejected(
                    journal.ingest_sequenced(SHARED_CLIENT, seq, &bad, &mut scratch),
                    "replayer",
                );
            }
            let good = &frames[seq as usize - 1];
            let applied = match journal.ingest_sequenced(SHARED_CLIENT, seq, good, &mut scratch) {
                Ok(SeqIngest::Applied { records, .. }) => {
                    assert_eq!(records, 64);
                    true
                }
                Ok(SeqIngest::Duplicate) => false,
                Err(e) => panic!("replayer seq {seq}: good frame refused: {e}"),
            };
            if bad_after(seq) {
                let bad = malformed(SHARED_CLIENT, seq);
                assert_rejected(
                    journal.ingest_sequenced(SHARED_CLIENT, seq, &bad, &mut scratch),
                    "replayer",
                );
            }
            applied
        })
        .collect()
}

/// One owner: the only pusher of `client`, so every answer is known.
fn own(journal: &MemJournal, client: u64, frames: &[Vec<u8>]) {
    let mut scratch = IngestScratch::new();
    for seq in 1..=SEQS {
        let good = &frames[seq as usize - 1];
        if bad_before(seq) {
            let bad = malformed(client, seq);
            assert_rejected(
                journal.ingest_sequenced(client, seq, &bad, &mut scratch),
                "fresh seq",
            );
        }
        // The rejected frame was not recorded: the good one still applies.
        assert!(
            matches!(
                journal.ingest_sequenced(client, seq, good, &mut scratch),
                Ok(SeqIngest::Applied { records: 64, .. })
            ),
            "client {client} seq {seq}: the first good frame applies"
        );
        if bad_after(seq) {
            let bad = malformed(client, seq);
            assert_rejected(
                journal.ingest_sequenced(client, seq, &bad, &mut scratch),
                "duplicate seq",
            );
            assert!(
                matches!(
                    journal.ingest_sequenced(client, seq, good, &mut scratch),
                    Ok(SeqIngest::Duplicate)
                ),
                "client {client} seq {seq}: a retry is a duplicate"
            );
        }
    }
}

fn fresh_journal() -> (Arc<ShardedAggregator>, MemJournal) {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let journal = MemJournal::new(Arc::clone(&agg));
    (agg, journal)
}

#[test]
fn every_seq_applies_exactly_once_under_parallel_decode() {
    let clients: Vec<u64> = std::iter::once(SHARED_CLIENT)
        .chain((0..OWNERS).map(owner_client))
        .collect();
    let frames: BTreeMap<u64, Vec<Vec<u8>>> = clients
        .iter()
        .map(|&c| (c, (1..=SEQS).map(|s| frame(c, s)).collect()))
        .collect();

    // The serial fold: each (client, seq) frame once, one thread.
    let (serial_agg, serial) = fresh_journal();
    let mut scratch = IngestScratch::new();
    for (&client, fs) in &frames {
        for (seq, f) in (1..).zip(fs) {
            serial
                .ingest_sequenced(client, seq, f, &mut scratch)
                .expect("good frame");
        }
    }
    let want_snapshot = serial_agg.encoded_snapshot();
    let want_stats = serial_agg.stats();
    assert_eq!(want_stats.frames, clients.len() as u64 * SEQS);

    for round in 0..ROUNDS {
        let (agg, journal) = fresh_journal();
        let start = Barrier::new(REPLAYERS + OWNERS);
        // The scope joins the owners too, and fails the test if one panicked.
        let applied: Vec<Vec<bool>> = std::thread::scope(|s| {
            let replayers: Vec<_> = (0..REPLAYERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        replay(&journal, &frames[&SHARED_CLIENT])
                    })
                })
                .collect();
            for i in 0..OWNERS {
                let (journal, frames, start) = (&journal, &frames, &start);
                s.spawn(move || {
                    start.wait();
                    own(journal, owner_client(i), &frames[&owner_client(i)]);
                });
            }
            replayers
                .into_iter()
                .map(|t| t.join().expect("replayer"))
                .collect()
        });

        for seq in 1..=SEQS {
            let times = applied.iter().filter(|a| a[seq as usize - 1]).count();
            assert_eq!(
                times, 1,
                "round {round}: shared seq {seq} applied {times} times"
            );
        }
        assert_eq!(agg.stats(), want_stats, "round {round}: frames and records");
        assert_eq!(journal.dedup_usage(), serial.dedup_usage(), "round {round}");
        assert!(
            agg.encoded_snapshot() == want_snapshot,
            "round {round}: the aggregate differs from the serial fold"
        );
    }
}
