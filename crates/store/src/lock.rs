//! Advisory single-opener lock for a store data directory.
//!
//! Two writers on the same directory — say `profiled --data-dir X` and
//! `dcgtool store compact X` — would interleave WAL appends, rotate
//! each other's segments, and race the checkpoint rename; any of those
//! corrupts the store. [`StoreLock::acquire`] makes the second opener
//! fail fast with a clear error instead.
//!
//! The lock is the kernel's advisory lock ([`File::try_lock`]) on a
//! `store.lock` file, held for as long as the store keeps the file
//! open. The kernel drops it when that descriptor closes, the holder's
//! death included, so a SIGKILLed daemon never blocks recovery and no
//! liveness probe of a recorded pid is needed. The file records the
//! holder's pid only so that a refusal can name it. It is never
//! deleted: were a locked file unlinked, a third opener could create
//! and lock a new inode beside the live holder. This is advisory — it
//! guards against operator accidents, not against hostile processes
//! ignoring the protocol.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The lock file's name inside the data directory.
pub const LOCK_FILE: &str = "store.lock";

/// A held data-directory lock; dropping it closes the file, which
/// releases the lock.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
    _file: File,
}

impl StoreLock {
    /// Acquires the advisory lock in `dir` and records this process's
    /// pid in the lock file.
    ///
    /// # Errors
    ///
    /// `AddrInUse` with the holder's recorded pid when another open
    /// file holds the lock; otherwise propagates I/O failures.
    pub fn acquire(dir: &Path) -> io::Result<Self> {
        let path = dir.join(LOCK_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let mut recorded = String::new();
                file.read_to_string(&mut recorded)?;
                let holder = recorded
                    .trim()
                    .parse::<u32>()
                    .map_or_else(|_| "(pid not yet recorded)".to_owned(), |p| p.to_string());
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "store directory {} is locked by running process {holder} \
                         (close it first; a dead holder's lock is released automatically)",
                        dir.display()
                    ),
                ));
            }
            Err(TryLockError::Error(e)) => return Err(e),
        }
        file.set_len(0)?;
        file.write_all(format!("{}\n", std::process::id()).as_bytes())?;
        file.sync_all()?;
        Ok(Self { path, _file: file })
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use std::fs;

    #[test]
    fn second_acquire_is_refused_while_held() {
        let dir = TestDir::new("lock-held");
        let lock = StoreLock::acquire(dir.path()).unwrap();
        let err = StoreLock::acquire(dir.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(
            err.to_string()
                .contains(&format!("locked by running process {}", std::process::id())),
            "refusal must name the holder: {err}"
        );
        let path = lock.path().to_owned();
        drop(lock);
        assert!(path.exists(), "release keeps the file: only the lock goes");
        // Released: acquirable again.
        StoreLock::acquire(dir.path()).unwrap();
    }

    /// A lock file nobody holds is free, whatever it records: the pid
    /// of a live process that is not the holder (pid 1, which a
    /// restart after SIGKILL meets when the daemon's pid was reused),
    /// a pid no process has, or garbage.
    #[test]
    fn a_lock_file_without_a_holder_is_acquired() {
        for recorded in ["1\n", "0\n", "not a pid"] {
            let dir = TestDir::new("lock-unheld");
            fs::write(dir.path().join(LOCK_FILE), recorded).unwrap();
            let lock = StoreLock::acquire(dir.path())
                .unwrap_or_else(|e| panic!("lock file recording {recorded:?}: {e}"));
            let now = fs::read_to_string(lock.path()).unwrap();
            assert_eq!(now.trim(), std::process::id().to_string());
        }
    }
}
