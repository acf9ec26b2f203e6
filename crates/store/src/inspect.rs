//! Offline inspection of a store directory — the read side of
//! `dcgtool store inspect`. Never mutates anything.

use crate::checkpoint::Checkpoint;
use crate::wal::{decode_op, list_segments, scan_segment, WalOp};
use std::io;
use std::path::{Path, PathBuf};

/// Summary of the committed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Decay epoch at capture.
    pub epoch: u64,
    /// Lifetime frames at capture.
    pub frames: u64,
    /// Lifetime edge records at capture.
    pub records: u64,
    /// Dedup clients captured.
    pub dedup_clients: usize,
    /// Encoded snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// First WAL segment postdating the capture.
    pub wal_seq: u64,
}

/// Summary of one WAL segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Sequence number.
    pub seq: u64,
    /// File path.
    pub path: PathBuf,
    /// The intact log (header and records), bytes.
    pub log_bytes: u64,
    /// The zero-filled reserve past the log, bytes. Zero for a corrupt
    /// segment, where what follows the log is a torn tail instead.
    pub reserve_bytes: u64,
    /// The torn or corrupt tail past the log, bytes (zero when clean).
    pub torn_bytes: u64,
    /// Unsequenced frame records.
    pub frames: usize,
    /// Sequenced frame records.
    pub seq_frames: usize,
    /// Epoch-advance records.
    pub epochs: usize,
    /// Records with an unknown tag or short body (counted as corrupt).
    pub undecodable: usize,
    /// `true` when the segment has a torn/corrupt tail (or header).
    pub corrupt: bool,
}

/// Everything `store inspect` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInspection {
    /// The committed checkpoint, if any.
    pub checkpoint: Option<CheckpointInfo>,
    /// Every WAL segment, in sequence order.
    pub segments: Vec<SegmentInfo>,
}

impl StoreInspection {
    /// Total replayable frame records (both kinds) across segments the
    /// checkpoint does not subsume.
    pub fn tail_frames(&self) -> usize {
        let min_seq = self.checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        self.segments
            .iter()
            .filter(|s| s.seq >= min_seq)
            .map(|s| s.frames + s.seq_frames)
            .sum()
    }
}

/// Inspects the store directory at `dir` read-only.
///
/// # Errors
///
/// I/O failures and a corrupt checkpoint (`InvalidData`) — the same
/// error `ProfileStore::open` would report.
pub fn inspect(dir: &Path) -> io::Result<StoreInspection> {
    let checkpoint = Checkpoint::load(dir)?.map(|c| CheckpointInfo {
        epoch: c.epoch,
        frames: c.frames,
        records: c.records,
        dedup_clients: c.dedup.len(),
        snapshot_bytes: c.snapshot.len(),
        wal_seq: c.wal_seq,
    });
    let mut segments = Vec::new();
    for (seq, path) in list_segments(dir)? {
        let scan = scan_segment(&path)?;
        let past_log = scan.file_len - scan.valid_len;
        let (reserve_bytes, torn_bytes) = if scan.corrupt {
            (0, past_log)
        } else {
            (past_log, 0)
        };
        let mut info = SegmentInfo {
            seq,
            path,
            log_bytes: scan.valid_len,
            reserve_bytes,
            torn_bytes,
            frames: 0,
            seq_frames: 0,
            epochs: 0,
            undecodable: 0,
            corrupt: scan.corrupt,
        };
        for record in &scan.records {
            match decode_op(scan.payload(record)) {
                Some(WalOp::Frame(_)) => info.frames += 1,
                Some(WalOp::SeqFrame { .. }) => info.seq_frames += 1,
                Some(WalOp::Epoch(_)) => info.epochs += 1,
                None => info.undecodable += 1,
            }
        }
        if info.undecodable > 0 {
            info.corrupt = true;
        }
        segments.push(info);
    }
    Ok(StoreInspection {
        checkpoint,
        segments,
    })
}
