//! Checkpoints: an atomic snapshot of everything recovery needs that
//! is *not* in the WAL tail.
//!
//! A checkpoint captures, in one critical section with the WAL
//! rotation, the merged graph (as the codec's encoded snapshot — the
//! same bit-exact bytes `OP_PULL` serves), the decay epoch, the
//! aggregator's lifetime frame/record counters, the full dedup table
//! (entries *and* the touch counter, so eviction decisions replay
//! bit-for-bit), and the sequence number of the first WAL segment whose
//! records postdate the capture. Recovery ingests the snapshot, restores
//! the clock and table, then replays only segments `>= wal_seq` — which
//! is what makes a crash between the checkpoint rename and the old
//! segments' deletion harmless (the stale segments are simply skipped
//! and removed).
//!
//! The file (`checkpoint.cbsc`) is written to a temp name, fsynced,
//! atomically renamed into place, and the directory fsynced; a whole-file
//! CRC-32 trailer rejects torn or bit-rotted checkpoints at load
//! (a corrupt checkpoint is an explicit open error — unlike a torn WAL
//! tail it cannot be safely truncated away).

use crate::crc::{crc32, crc32_continue};
use crate::wal::sync_dir;
use cbs_profiled::DedupEntry;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 4] = *b"CBSC";
/// Checkpoint format version.
pub const CKPT_VERSION: u8 = 1;
/// The committed checkpoint's file name.
pub const CKPT_FILE: &str = "checkpoint.cbsc";
/// The in-flight temp name (ignored — and cleaned up — by recovery).
pub const CKPT_TMP_FILE: &str = "checkpoint.cbsc.tmp";

/// A decoded checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Decay epoch at capture.
    pub epoch: u64,
    /// Aggregator lifetime frames at capture.
    pub frames: u64,
    /// Aggregator lifetime records at capture.
    pub records: u64,
    /// The dedup table's touch counter at capture.
    pub next_touch: u64,
    /// First WAL segment whose records postdate this capture.
    pub wal_seq: u64,
    /// The dedup table's entries, sorted by client id.
    pub dedup: Vec<DedupEntry>,
    /// The encoded CBSP snapshot of the merged graph: when written by
    /// the store, the aggregator's cached snapshot itself, shared rather
    /// than copied.
    pub snapshot: Arc<Vec<u8>>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Checkpoint {
    /// Serializes the checkpoint (CRC trailer included): the bytes
    /// [`write_temp`](Self::write_temp) puts on disk.
    pub fn encode(&self) -> Vec<u8> {
        let (head, trailer) = self.head_and_trailer();
        let mut out = Vec::with_capacity(head.len() + self.snapshot.len() + trailer.len());
        out.extend_from_slice(&head);
        out.extend_from_slice(&self.snapshot);
        out.extend_from_slice(&trailer);
        out
    }

    /// The file is `head | snapshot | trailer`: everything before the
    /// snapshot, then the CRC-32 of head and snapshot. The CRC is carried
    /// across the two pieces, so the snapshot is never copied.
    fn head_and_trailer(&self) -> (Vec<u8>, [u8; 4]) {
        let mut head = Vec::with_capacity(64 + self.dedup.len() * 24);
        head.extend_from_slice(&CKPT_MAGIC);
        head.push(CKPT_VERSION);
        head.extend_from_slice(&self.epoch.to_le_bytes());
        head.extend_from_slice(&self.frames.to_le_bytes());
        head.extend_from_slice(&self.records.to_le_bytes());
        head.extend_from_slice(&self.next_touch.to_le_bytes());
        head.extend_from_slice(&self.wal_seq.to_le_bytes());
        head.extend_from_slice(&(self.dedup.len() as u64).to_le_bytes());
        for e in &self.dedup {
            head.extend_from_slice(&e.client.to_le_bytes());
            head.extend_from_slice(&e.seq.to_le_bytes());
            head.extend_from_slice(&e.touch.to_le_bytes());
        }
        head.extend_from_slice(&(self.snapshot.len() as u64).to_le_bytes());
        let crc = crc32_continue(crc32(&head), &self.snapshot);
        (head, crc.to_le_bytes())
    }

    /// Deserializes and CRC-checks a checkpoint.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any framing, version, length, or CRC mismatch.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < 4 + 1 + 8 * 6 + 8 + 4 {
            return Err(bad("checkpoint too short"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(bad("checkpoint CRC mismatch"));
        }
        if body[0..4] != CKPT_MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        if body[4] != CKPT_VERSION {
            return Err(bad(format!("unsupported checkpoint version {}", body[4])));
        }
        let mut pos = 5usize;
        let u64_at = |p: &mut usize| -> io::Result<u64> {
            let end = *p + 8;
            if end > body.len() {
                return Err(bad("checkpoint truncated"));
            }
            let v = u64::from_le_bytes(body[*p..end].try_into().expect("8 bytes"));
            *p = end;
            Ok(v)
        };
        let epoch = u64_at(&mut pos)?;
        let frames = u64_at(&mut pos)?;
        let records = u64_at(&mut pos)?;
        let next_touch = u64_at(&mut pos)?;
        let wal_seq = u64_at(&mut pos)?;
        let dedup_count = u64_at(&mut pos)?;
        if dedup_count > (body.len() as u64) / 24 {
            return Err(bad("checkpoint dedup count exceeds file size"));
        }
        let mut dedup = Vec::with_capacity(dedup_count as usize);
        for _ in 0..dedup_count {
            let client = u64_at(&mut pos)?;
            let seq = u64_at(&mut pos)?;
            let touch = u64_at(&mut pos)?;
            dedup.push(DedupEntry { client, seq, touch });
        }
        let snapshot_len = u64_at(&mut pos)? as usize;
        if body.len() - pos != snapshot_len {
            return Err(bad("checkpoint snapshot length mismatch"));
        }
        let snapshot = Arc::new(body[pos..].to_vec());
        Ok(Self {
            epoch,
            frames,
            records,
            next_touch,
            wal_seq,
            dedup,
            snapshot,
        })
    }

    /// Loads the committed checkpoint from `dir`, or `None` when the
    /// store has never checkpointed.
    ///
    /// # Errors
    ///
    /// Read failures, and `InvalidData` for a corrupt checkpoint — a
    /// deliberate hard error (see the module docs).
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        let path = dir.join(CKPT_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => f.read_to_end(&mut bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::decode(&bytes).map(Some)
    }

    /// Writes the checkpoint to the temp name and fsyncs it — the
    /// prepare half of [`store`](Self::store). A crash before the rename
    /// leaves the temp file orphaned; recovery removes it and keeps the
    /// checkpoint it would have replaced.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_temp(&self, dir: &Path) -> io::Result<PathBuf> {
        let tmp = dir.join(CKPT_TMP_FILE);
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let (head, trailer) = self.head_and_trailer();
        f.write_all(&head)?;
        f.write_all(&self.snapshot)?;
        f.write_all(&trailer)?;
        f.sync_all()?;
        Ok(tmp)
    }

    /// Installs the checkpoint atomically: [`write_temp`](Self::write_temp),
    /// then rename the temp into place and fsync the directory.
    ///
    /// # Errors
    ///
    /// Propagates write, rename and sync failures.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let tmp = self.write_temp(dir)?;
        fs::rename(&tmp, dir.join(CKPT_FILE))?;
        sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 9,
            frames: 120,
            records: 4400,
            next_touch: 77,
            wal_seq: 3,
            dedup: vec![
                DedupEntry {
                    client: 1,
                    seq: 10,
                    touch: 70,
                },
                DedupEntry {
                    client: 9,
                    seq: 2,
                    touch: 76,
                },
            ],
            snapshot: Arc::new(b"CBSP-pretend-snapshot".to_vec()),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn the_file_holds_exactly_the_encoded_bytes() {
        let dir = TestDir::new("ckpt-file-bytes");
        let mut c = sample();
        for dedup in [0, 2] {
            c.dedup.truncate(dedup);
            for snapshot in [Vec::new(), b"CBSP".to_vec(), vec![0xA5; 70_000]] {
                c.snapshot = Arc::new(snapshot);
                let tmp = c.write_temp(dir.path()).unwrap();
                assert_eq!(fs::read(&tmp).unwrap(), c.encode());
                assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
            }
        }
    }

    #[test]
    fn store_load_round_trips_atomically() {
        let dir = TestDir::new("ckpt-roundtrip");
        assert!(Checkpoint::load(dir.path()).unwrap().is_none());
        let c = sample();
        c.store(dir.path()).unwrap();
        assert_eq!(Checkpoint::load(dir.path()).unwrap(), Some(c.clone()));
        // No temp residue after a committed install.
        assert!(!dir.path().join(CKPT_TMP_FILE).exists());
        // Re-store overwrites in place.
        let mut c2 = c;
        c2.epoch = 10;
        c2.store(dir.path()).unwrap();
        assert_eq!(Checkpoint::load(dir.path()).unwrap().unwrap().epoch, 10);
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let c = sample();
        let bytes = c.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn corrupt_checkpoint_file_is_a_hard_load_error() {
        let dir = TestDir::new("ckpt-corrupt");
        let c = sample();
        c.store(dir.path()).unwrap();
        let path = dir.path().join(CKPT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(Checkpoint::load(dir.path()).is_err());
    }
}
