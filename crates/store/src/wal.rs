//! The write-ahead log: CRC-framed, length-prefixed records in
//! sequence-numbered segment files.
//!
//! ## On-disk format
//!
//! A segment is named `wal-{seq:016x}.log` and starts with a 13-byte
//! header — magic `CBSW`, a format version byte, and the segment's
//! sequence number (u64 LE, cross-checked against the file name on
//! scan). Records follow back to back:
//!
//! ```text
//! | len: u32 LE | crc32(payload): u32 LE | payload (len bytes) |
//! ```
//!
//! The payload's first byte is an operation tag ([`REC_FRAME`],
//! [`REC_SEQ_FRAME`], [`REC_EPOCH`]); the rest is the operation body —
//! for frames, the raw CBSP wire bytes exactly as the client sent them,
//! so replay feeds the same codec path as live ingest.
//!
//! ## Torn-write discipline
//!
//! A crash can leave the last record half-written. [`scan_segment`]
//! accepts the longest prefix of intact records and reports everything
//! after the first bad length, bad CRC, or short read as corruption;
//! recovery truncates the file back to that prefix. Corruption is never
//! an error from the scan itself — only unreadable files are.

use crate::crc::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment header magic.
pub const WAL_MAGIC: [u8; 4] = *b"CBSW";
/// Segment format version.
pub const WAL_VERSION: u8 = 1;
/// Header length: magic + version + seq.
pub const WAL_HEADER_LEN: u64 = 4 + 1 + 8;
/// Per-record framing overhead: length prefix + CRC.
pub const RECORD_OVERHEAD: u64 = 4 + 4;

/// Payload tag: an unsequenced `OP_PUSH` frame (body = raw CBSP bytes).
pub const REC_FRAME: u8 = 1;
/// Payload tag: a sequenced `OP_PUSH_SEQ` frame (body = client id u64
/// BE, sequence u64 BE — the wire order — then raw CBSP bytes).
pub const REC_SEQ_FRAME: u8 = 2;
/// Payload tag: an epoch advance (body = the epoch *after* the advance,
/// u64 LE).
pub const REC_EPOCH: u8 = 3;

/// Hard ceiling a scan will believe for one record's length; anything
/// larger is treated as corruption (a torn or garbage length prefix).
pub const MAX_SCAN_RECORD_BYTES: u32 = 1 << 30;

/// The file name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

/// Parses a segment file name back to its sequence number.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Every segment in `dir`, sorted by sequence number.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// One decoded WAL operation, borrowed from a record payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp<'a> {
    /// An unsequenced frame: the raw CBSP bytes.
    Frame(&'a [u8]),
    /// A sequenced frame.
    SeqFrame {
        /// Client id.
        client: u64,
        /// Client sequence number.
        seq: u64,
        /// The raw CBSP bytes.
        frame: &'a [u8],
    },
    /// An epoch advance to this (post-advance) epoch.
    Epoch(u64),
}

/// Decodes a record payload into its operation, or `None` for an
/// unknown tag / short body (recovery treats that as corruption).
pub fn decode_op(payload: &[u8]) -> Option<WalOp<'_>> {
    let (&tag, body) = payload.split_first()?;
    match tag {
        REC_FRAME => Some(WalOp::Frame(body)),
        REC_SEQ_FRAME => {
            if body.len() < 16 {
                return None;
            }
            let client = u64::from_be_bytes(body[0..8].try_into().expect("8 bytes"));
            let seq = u64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
            Some(WalOp::SeqFrame {
                client,
                seq,
                frame: &body[16..],
            })
        }
        REC_EPOCH => {
            if body.len() != 8 {
                return None;
            }
            Some(WalOp::Epoch(u64::from_le_bytes(
                body.try_into().expect("8 bytes"),
            )))
        }
        _ => None,
    }
}

/// Encodes a [`REC_SEQ_FRAME`] payload.
pub fn encode_seq_frame(client: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + 16 + frame.len());
    payload.push(REC_SEQ_FRAME);
    payload.extend_from_slice(&client.to_be_bytes());
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.extend_from_slice(frame);
    payload
}

/// Encodes a [`REC_FRAME`] payload.
pub fn encode_frame(frame: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + frame.len());
    payload.push(REC_FRAME);
    payload.extend_from_slice(frame);
    payload
}

/// Encodes a [`REC_EPOCH`] payload.
pub fn encode_epoch(epoch_after: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.push(REC_EPOCH);
    payload.extend_from_slice(&epoch_after.to_le_bytes());
    payload
}

/// An open segment being appended to.
///
/// The file handle is shared (`Arc<File>`) so a group-commit leader can
/// `sync_all` the segment *without* holding the append lock that guards
/// the writer itself; appends and syncs on the same `File` are safe to
/// overlap (`write` and `fsync` are independent syscalls).
#[derive(Debug)]
pub struct SegmentWriter {
    file: Arc<File>,
    path: PathBuf,
    seq: u64,
    len: u64,
}

impl SegmentWriter {
    /// Creates segment `seq` in `dir` (failing if it already exists),
    /// writes its header, and syncs the directory so the new name is
    /// durable.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create(dir: &Path, seq: u64) -> io::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        header[0..4].copy_from_slice(&WAL_MAGIC);
        header[4] = WAL_VERSION;
        header[5..13].copy_from_slice(&seq.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Self {
            file: Arc::new(file),
            path,
            seq,
            len: WAL_HEADER_LEN,
        })
    }

    /// A shared handle to the segment file, for syncing it outside the
    /// lock that guards the writer.
    pub fn file(&self) -> Arc<File> {
        Arc::clone(&self.file)
    }

    /// The segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes written so far (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, returning the offset the record starts at.
    /// Does **not** sync; that is the fsync policy's call.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the segment length is only advanced
    /// on success.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let offset = self.len;
        let mut framed = Vec::with_capacity(RECORD_OVERHEAD as usize + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        (&*self.file).write_all(&framed)?;
        self.len += framed.len() as u64;
        Ok(offset)
    }

    /// Appends a deliberately torn record: the framing and only the
    /// first `keep` payload bytes reach the file, simulating a power
    /// loss mid-write (the [`cbs_profiled::CrashSite::TornWalRecord`] crash
    /// site). The write is synced so the torn state is what a restart
    /// observes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> io::Result<()> {
        let keep = keep.min(payload.len());
        let mut framed = Vec::with_capacity(RECORD_OVERHEAD as usize + keep);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(&payload[..keep]);
        (&*self.file).write_all(&framed)?;
        self.len += framed.len() as u64;
        self.file.sync_all()
    }

    /// Fsyncs the segment file.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// One intact record found by a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Byte offset of the record's length prefix within the segment.
    pub offset: u64,
    /// The record payload (tag + body).
    pub payload: Vec<u8>,
}

/// The result of scanning one segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// Sequence number (from the file name).
    pub seq: u64,
    /// The scanned path.
    pub path: PathBuf,
    /// The longest prefix of intact records.
    pub records: Vec<WalRecord>,
    /// Offset one past the last intact record — the length a recovery
    /// truncation restores the file to. Zero when the header itself is
    /// bad (the whole file is garbage).
    pub valid_len: u64,
    /// `true` when anything after the intact prefix was found: a torn
    /// or corrupt record, trailing garbage, or a bad header.
    pub corrupt: bool,
    /// The file's actual length.
    pub file_len: u64,
}

/// Scans a segment, accepting the longest intact prefix of records.
/// Corruption is reported, not returned as an error.
///
/// # Errors
///
/// Only for unreadable files or a file-name/seq mismatch with its own
/// header (which indicates tampering rather than a torn write).
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let seq = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_file_name)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a WAL segment name: {}", path.display()),
            )
        })?;
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;

    let header_ok = bytes.len() >= WAL_HEADER_LEN as usize
        && bytes[0..4] == WAL_MAGIC
        && bytes[4] == WAL_VERSION
        && u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes")) == seq;
    if !header_ok {
        return Ok(SegmentScan {
            seq,
            path: path.to_path_buf(),
            records: Vec::new(),
            valid_len: 0,
            corrupt: true,
            file_len,
        });
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut corrupt = false;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_OVERHEAD as usize {
            corrupt = true; // torn framing
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_SCAN_RECORD_BYTES {
            corrupt = true; // garbage length
            break;
        }
        let end = RECORD_OVERHEAD as usize + len as usize;
        if rest.len() < end {
            corrupt = true; // torn payload
            break;
        }
        let payload = &rest[RECORD_OVERHEAD as usize..end];
        if crc32(payload) != crc {
            corrupt = true; // bit rot or torn overwrite
            break;
        }
        records.push(WalRecord {
            offset: pos as u64,
            payload: payload.to_vec(),
        });
        pos += end;
    }
    Ok(SegmentScan {
        seq,
        path: path.to_path_buf(),
        valid_len: if records.is_empty() && corrupt && pos == WAL_HEADER_LEN as usize {
            // Header intact, first record bad: keep the header.
            WAL_HEADER_LEN
        } else {
            pos as u64
        },
        records,
        corrupt,
        file_len,
    })
}

/// Fsyncs a directory so renames/creations within it are durable.
///
/// # Errors
///
/// Propagates open/sync failures.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(0x2a), "wal-000000000000002a.log");
        assert_eq!(
            parse_segment_file_name("wal-000000000000002a.log"),
            Some(0x2a)
        );
        assert_eq!(parse_segment_file_name("wal-2a.log"), None);
        assert_eq!(parse_segment_file_name("checkpoint.cbsc"), None);
    }

    #[test]
    fn append_scan_round_trips_records_and_offsets() {
        let dir = TestDir::new("wal-roundtrip");
        let mut w = SegmentWriter::create(dir.path(), 3).unwrap();
        let a = w.append(&encode_frame(b"frame-a")).unwrap();
        let b = w.append(&encode_epoch(7)).unwrap();
        assert_eq!(a, WAL_HEADER_LEN);
        assert!(b > a);
        w.sync().unwrap();

        let scan = scan_segment(w.path()).unwrap();
        assert_eq!(scan.seq, 3);
        assert!(!scan.corrupt);
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].offset, a);
        assert_eq!(
            decode_op(&scan.records[0].payload),
            Some(WalOp::Frame(b"frame-a"))
        );
        assert_eq!(decode_op(&scan.records[1].payload), Some(WalOp::Epoch(7)));
    }

    #[test]
    fn torn_record_is_cut_at_the_intact_prefix() {
        let dir = TestDir::new("wal-torn");
        let mut w = SegmentWriter::create(dir.path(), 0).unwrap();
        w.append(&encode_frame(b"whole")).unwrap();
        let cut_at = w.len();
        w.append_torn(&encode_frame(b"torn-record"), 3).unwrap();

        let scan = scan_segment(w.path()).unwrap();
        assert!(scan.corrupt);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, cut_at);
        assert!(scan.file_len > cut_at);
    }

    #[test]
    fn bad_header_is_wholly_corrupt() {
        let dir = TestDir::new("wal-badheader");
        let path = dir.path().join(segment_file_name(5));
        fs::write(&path, b"not a wal").unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.corrupt);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn seq_frame_payload_round_trips() {
        let p = encode_seq_frame(0xDEAD, 42, b"cbsp-bytes");
        match decode_op(&p) {
            Some(WalOp::SeqFrame { client, seq, frame }) => {
                assert_eq!(client, 0xDEAD);
                assert_eq!(seq, 42);
                assert_eq!(frame, b"cbsp-bytes");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(decode_op(&[REC_SEQ_FRAME, 1, 2, 3]), None, "short body");
        assert_eq!(decode_op(&[99, 0]), None, "unknown tag");
        assert_eq!(decode_op(&[]), None, "empty payload");
    }
}
