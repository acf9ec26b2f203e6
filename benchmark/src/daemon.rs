//! Process hygiene: every spawned daemon and every temporary data
//! directory is owned by a `Drop` guard, so a failed check or a panic
//! still kills the process and removes the directory.

use crate::procfs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print `listening` before the run is
/// abandoned (a recovery of the largest WAL the benchmark writes takes
/// well under a second).
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A directory under the benchmark's `out/tmp`, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<out>/tmp/<label>-<pid>-<n>`.
    pub fn new(out: &Path, label: &str) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `profiled` process on an OS-assigned loopback port,
/// SIGKILLed and reaped on drop.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: String,
    /// Lines printed before `listening` (the `recovered ...` report).
    preamble: Vec<String>,
    stdout_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin --addr 127.0.0.1:0 <args>` and waits for its
    /// `listening <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Self> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        // The reader owns the pipe until EOF (the daemon's death), so
        // the daemon can never block on a full pipe.
        let stdout_drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Self {
            child,
            addr: String::new(),
            preamble: Vec::new(),
            stdout_drain: Some(stdout_drain),
        };
        loop {
            let left = START_TIMEOUT.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => match line.strip_prefix("listening ") {
                    Some(addr) => {
                        daemon.addr = addr.trim().to_owned();
                        return Ok(daemon);
                    }
                    None => daemon.preamble.push(line),
                },
                // Dropping `daemon` kills and reaps the child.
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "daemon did not print `listening` in time",
                    ))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "daemon exited before printing `listening`",
                    ))
                }
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn preamble(&self) -> &[String] {
        &self.preamble
    }

    pub fn cpu_seconds(&self, ticks_per_second: f64) -> f64 {
        procfs::cpu_seconds(self.pid(), ticks_per_second).unwrap_or(0.0)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        procfs::peak_rss_mb(self.pid()).unwrap_or(0.0)
    }

    /// SIGKILL, no shutdown handshake: what a crash looks like to the
    /// data directory.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stdout_drain.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let out = std::env::temp_dir().join(format!("cbs-benchmark-test-{}", std::process::id()));
        let (a, b) = (
            TempDir::new(&out, "t").expect("creates"),
            TempDir::new(&out, "t").expect("creates"),
        );
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_owned();
        std::fs::write(kept.join("f"), b"x").expect("writes");
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn a_daemon_that_never_listens_is_reported_and_reaped() {
        // `true` exits at once without printing anything.
        let err = Daemon::spawn(Path::new("true"), &[]).expect_err("no listening line");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
