//! WAL replay for [`ProfileStore::open`](crate::ProfileStore::open),
//! in two stages on two threads.
//!
//! A scoped *reader* thread scans each live segment in order — one read
//! per file, every CRC checked, records left as ranges of the read
//! buffer ([`scan_segment`]) — decodes each record's operation, and
//! decodes each frame's edge records ahead with
//! `ShardedAggregator::partition_frame`. It sends the results in
//! batches through a bounded channel to the opening thread, which
//! *applies* them in WAL order and makes every decision: the dedup
//! guard, epoch advances, and the cut at the first undecodable or
//! corrupt record. The outcome is therefore a function of the WAL
//! alone, exactly as a serial loop's would be; only the scan and the
//! decode move to the other core.
//!
//! The reader stops at a step that always cuts (an undecodable record,
//! a corrupt segment end) and whenever the applier hangs up. A frame
//! that fails to decode does not stop it: the applier skips such a
//! record when its sequence number is a duplicate. A scan error travels
//! down the channel in order, so it surfaces only if the applier
//! reaches that segment, as it would have serially.

use crate::store::RecoveryReport;
use crate::wal::{decode_op, scan_segment, WalOp};
use cbs_profiled::{CodecError, DedupTable, IngestScratch, ShardedAggregator};
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread;

/// Steps per channel message. The threads hand off once per batch, not
/// once per record: on a host whose cores are busy with other work,
/// every handoff can wait for the scheduler.
const BATCH: usize = 16;

/// Batches the reader may queue ahead of the applier: enough to ride
/// out the applier's stalls, few enough that the decoded frames in
/// flight stay well under a segment's size.
const READ_AHEAD: usize = 2;

/// One step of replay, in WAL order.
enum Step {
    /// The next live segment was scanned; its records follow.
    Segment,
    /// A frame record at `offset`, with its edge records decoded into
    /// `scratch`, or the error that stopped the decode. `seq` is the
    /// (client, sequence) pair of a sequenced frame.
    Frame {
        offset: u64,
        seq: Option<(u64, u64)>,
        decoded: Result<(), CodecError>,
        scratch: IngestScratch,
    },
    /// An epoch advance.
    Epoch,
    /// A CRC-intact record at `offset` whose payload does not decode.
    Undecodable { offset: u64 },
    /// The segment's intact log ends at `valid_len`; `corrupt` when a
    /// torn or corrupt tail follows it.
    End { valid_len: u64, corrupt: bool },
}

/// Replays the `live` segments (sequence, path) into `aggregator`,
/// `dedup` and `report`. Returns where recovery must cut the log — the
/// index into `live` and the byte offset — or `None` when every segment
/// ended cleanly.
///
/// # Errors
///
/// The first scan error of a segment the replay reaches, or a failure
/// to start the reader thread.
pub(crate) fn replay(
    live: &[(u64, PathBuf)],
    aggregator: &ShardedAggregator,
    dedup: &mut DedupTable,
    report: &mut RecoveryReport,
) -> io::Result<Option<(usize, u64)>> {
    // Applied scratches go back to the reader, so a replay allocates
    // only as many as are in flight at once.
    let (spare_tx, spare_rx) = mpsc::channel();
    two_stage(
        move |batches| read_ahead(live, aggregator, &batches, &spare_rx),
        |batches| apply(batches, aggregator, dedup, report, &spare_tx),
    )?
}

/// Runs `produce` on a scoped thread feeding `consume` on this one
/// through a channel of [`READ_AHEAD`] slots, and returns what
/// `consume` returns.
///
/// Neither side can strand the other. When `consume` returns early, its
/// receiver drops, so the producer's next send fails and it must
/// return. When `produce` returns or panics, its sender drops, so
/// `consume`'s receive loop ends. A panic in `produce` is re-raised here
/// once `consume` has returned, so it is never taken for the end of the
/// log.
///
/// # Errors
///
/// Only a failure to spawn the producer thread.
fn two_stage<T: Send, R>(
    produce: impl FnOnce(SyncSender<T>) + Send,
    consume: impl FnOnce(Receiver<T>) -> R,
) -> io::Result<R> {
    let (tx, rx) = mpsc::sync_channel(READ_AHEAD);
    thread::scope(|s| {
        let producer = thread::Builder::new()
            .name("wal-replay".to_owned())
            .spawn_scoped(s, move || produce(tx))?;
        let result = consume(rx);
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
        Ok(result)
    })
}

/// The reader stage: scans and decodes `live` in order and sends the
/// steps in batches. A scan error follows the steps before it.
fn read_ahead(
    live: &[(u64, PathBuf)],
    aggregator: &ShardedAggregator,
    batches: &SyncSender<io::Result<Vec<Step>>>,
    spare: &Receiver<IngestScratch>,
) {
    let mut out = Outbox {
        batches,
        batch: Vec::with_capacity(BATCH),
    };
    let scanned = scan_into(live, aggregator, spare, &mut out);
    if out.flush() {
        if let Err(e) = scanned {
            let _ = batches.send(Err(e));
        }
    }
}

/// Scans and decodes `live` in order into `out`. Stops early at a step
/// that always cuts, when the applier hangs up, or at a scan error.
fn scan_into(
    live: &[(u64, PathBuf)],
    aggregator: &ShardedAggregator,
    spare: &Receiver<IngestScratch>,
    out: &mut Outbox<'_>,
) -> io::Result<()> {
    for (_, path) in live {
        let scan = scan_segment(path)?;
        if !out.push(Step::Segment) {
            return Ok(());
        }
        for record in &scan.records {
            let offset = record.offset;
            let decode = |seq: Option<(u64, u64)>, bytes: &[u8]| {
                let mut scratch = spare.try_recv().unwrap_or_default();
                let decoded = aggregator.partition_frame(bytes, &mut scratch).map(drop);
                Step::Frame {
                    offset,
                    seq,
                    decoded,
                    scratch,
                }
            };
            let step = match decode_op(scan.payload(record)) {
                Some(WalOp::Frame(bytes)) => decode(None, bytes),
                Some(WalOp::SeqFrame { client, seq, frame }) => decode(Some((client, seq)), frame),
                Some(WalOp::Epoch(_)) => Step::Epoch,
                None => {
                    out.push(Step::Undecodable { offset });
                    return Ok(());
                }
            };
            if !out.push(step) {
                return Ok(());
            }
        }
        let end = Step::End {
            valid_len: scan.valid_len,
            corrupt: scan.corrupt,
        };
        if !out.push(end) || scan.corrupt {
            return Ok(());
        }
    }
    Ok(())
}

/// The reader's end of the channel: steps leave in batches of
/// [`BATCH`].
struct Outbox<'a> {
    batches: &'a SyncSender<io::Result<Vec<Step>>>,
    batch: Vec<Step>,
}

impl Outbox<'_> {
    /// Queues `step` and sends the batch once it is full. `false` once
    /// the applier has hung up.
    fn push(&mut self, step: Step) -> bool {
        self.batch.push(step);
        self.batch.len() < BATCH || self.flush()
    }

    /// Sends the queued steps, if any. `false` once the applier has
    /// hung up.
    fn flush(&mut self) -> bool {
        if self.batch.is_empty() {
            return true;
        }
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
        self.batches.send(Ok(batch)).is_ok()
    }
}

/// The apply stage: folds the batched steps into the recovered state in
/// WAL order and returns the cut, if any.
fn apply(
    batches: Receiver<io::Result<Vec<Step>>>,
    aggregator: &ShardedAggregator,
    dedup: &mut DedupTable,
    report: &mut RecoveryReport,
    spare: &Sender<IngestScratch>,
) -> io::Result<Option<(usize, u64)>> {
    // The log is kept up to `offset` of the segment being applied.
    let cut = |report: &mut RecoveryReport, offset: u64| {
        report.replayed_wal_bytes += offset;
        Ok(Some((report.segments_scanned - 1, offset)))
    };
    for batch in batches {
        for step in batch? {
            match step {
                Step::Segment => report.segments_scanned += 1,
                Step::Frame {
                    offset,
                    seq,
                    decoded,
                    mut scratch,
                } => {
                    // The writer only journals applied sequences, so a
                    // replayed pair is always new relative to the restored
                    // table; the guard is pure defense. A duplicate is
                    // skipped whether or not its frame decodes.
                    let fresh = seq.is_none_or(|(client, seq)| {
                        dedup.last_seq(client).is_none_or(|last| seq > last)
                    });
                    if fresh {
                        if decoded.is_err() {
                            // Same policy as an undecodable payload.
                            return cut(report, offset);
                        }
                        let records = aggregator.apply_partitioned(&mut scratch);
                        if let Some((client, seq)) = seq {
                            dedup.record(client, seq);
                        }
                        report.replayed_frames += 1;
                        report.replayed_records += records as u64;
                    }
                    let _ = spare.send(scratch);
                }
                Step::Epoch => {
                    aggregator.advance_epoch();
                    report.replayed_epochs += 1;
                }
                Step::Undecodable { offset } => return cut(report, offset),
                Step::End { valid_len, corrupt } => {
                    if corrupt {
                        return cut(report, valid_len);
                    }
                    report.replayed_wal_bytes += valid_len;
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn a_consumer_that_stops_early_never_strands_the_producer() {
        // The producer would send far more than the channel holds; the
        // consumer takes three and returns.
        let sent = AtomicUsize::new(0);
        let taken = two_stage(
            |tx| {
                for i in 0..100 * READ_AHEAD {
                    if tx.send(i).is_err() {
                        return;
                    }
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            },
            |rx| rx.iter().take(3).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(taken, [0, 1, 2]);
        assert!(sent.load(Ordering::SeqCst) <= 3 + READ_AHEAD + 1);
    }

    #[test]
    fn a_producer_panic_reaches_the_caller_after_the_consumer_returns() {
        let consumed = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            two_stage(
                |tx| {
                    tx.send(1).unwrap();
                    tx.send(2).unwrap();
                    // Let the consumer block on an empty channel first.
                    thread::sleep(Duration::from_millis(20));
                    panic!("reader failed");
                },
                |rx| consumed.store(rx.iter().count(), Ordering::SeqCst),
            )
        }));
        let panic = outcome.expect_err("the producer's panic propagates");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"reader failed"));
        assert_eq!(
            consumed.load(Ordering::SeqCst),
            2,
            "the consumer saw what was sent, then the channel close"
        );
    }
}
