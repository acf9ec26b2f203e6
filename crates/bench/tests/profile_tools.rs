//! End-to-end tests of the `dcgtool` and `profiled` binaries: format
//! conversion round-trips and a loopback push/pull session.

use cbs_core::bytecode::{CallSiteId, MethodId};
use cbs_core::dcg::{serialize, CallEdge, DynamicCallGraph};
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dcgtool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dcgtool"))
        .args(args)
        .output()
        .expect("dcgtool runs")
}

fn sample_graph() -> DynamicCallGraph {
    let mut g = DynamicCallGraph::new();
    // Mixed integral and fractional weights across several callers, so
    // the binary codec exercises both weight encodings.
    for (caller, site, callee, weight) in [
        (0u32, 0u32, 1u32, 10.0),
        (0, 1, 2, 5.25),
        (3, 0, 1, 100.0),
        (3, 0, 2, 0.125),
        (700_000, 9, 700_001, 1e9),
    ] {
        g.record(
            CallEdge::new(
                MethodId::new(caller),
                CallSiteId::new(site),
                MethodId::new(callee),
            ),
            weight,
        );
    }
    g
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cbs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().expect("utf-8 path").to_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn convert_text_binary_text_is_byte_identical() {
    let dir = TempDir::new("convert");
    let text = dir.path("a.dcg");
    let binary = dir.path("a.dcgb");
    let back = dir.path("a2.dcg");
    std::fs::write(&text, serialize::to_text(&sample_graph())).unwrap();

    let out = dcgtool(&["convert", &text, &binary]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::read(&binary).unwrap().starts_with(b"CBSP"),
        ".dcgb extension selects the binary format"
    );
    let out = dcgtool(&["convert", &binary, &back]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(
        std::fs::read(&text).unwrap(),
        std::fs::read(&back).unwrap(),
        "text -> binary -> text must be byte-identical"
    );
}

#[test]
fn convert_honors_explicit_format_flag() {
    let dir = TempDir::new("convert-flag");
    let text = dir.path("a.dcg");
    let odd = dir.path("a.bin"); // no .dcgb extension
    let back = dir.path("a2.dcg");
    std::fs::write(&text, serialize::to_text(&sample_graph())).unwrap();

    let out = dcgtool(&["convert", &text, &odd, "--to", "binary"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read(&odd).unwrap().starts_with(b"CBSP"));
    let out = dcgtool(&["convert", &odd, &back, "--to", "text"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&text).unwrap(), std::fs::read(&back).unwrap());

    let out = dcgtool(&["convert", &text, &odd, "--to", "sideways"]);
    assert!(!out.status.success(), "unknown format must fail");
}

/// Kills the server child even when an assertion panics mid-test.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server() -> (ServerGuard, String) {
    // `--shards` is an accepted-and-ignored spelling; it must still parse.
    let child = Command::new(env!("CARGO_BIN_EXE_profiled"))
        .args(["--addr", "127.0.0.1:0", "--shards", "4"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("profiled spawns");
    let mut guard = ServerGuard(child);
    let stdout = guard.0.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("reads");
    let addr = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .trim()
        .to_owned();
    (guard, addr)
}

#[test]
fn push_pull_round_trips_through_a_live_server() {
    let dir = TempDir::new("pushpull");
    let text = dir.path("profile.dcg");
    let binary = dir.path("profile.dcgb");
    let pulled = dir.path("merged.dcg");
    std::fs::write(&text, serialize::to_text(&sample_graph())).unwrap();
    let out = dcgtool(&["convert", &text, &binary]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (_server, addr) = spawn_server();
    let out = dcgtool(&["push", &addr, &binary]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frames=1"), "stats after push: {stderr}");

    let out = dcgtool(&["pull", &addr, &pulled]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&text).unwrap(),
        std::fs::read(&pulled).unwrap(),
        "one pushed snapshot pulls back byte-identical"
    );
    assert!(Path::new(&pulled).exists());
}

#[test]
fn store_compact_refuses_a_directory_held_by_a_live_server() {
    let dir = TempDir::new("lockheld");
    let data = dir.path("store");
    let child = Command::new(env!("CARGO_BIN_EXE_profiled"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            &data,
            "--fsync",
            "never",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("profiled spawns");
    let mut guard = ServerGuard(child);
    let stdout = guard.0.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    // A durable server prints `recovered …` before `listening …`.
    let mut line = String::new();
    while !line.starts_with("listening ") {
        line.clear();
        reader.read_line(&mut line).expect("reads banner");
        assert!(!line.is_empty(), "server exited before listening");
    }

    // The server holds the advisory lock; offline compaction must be
    // refused with a clear error instead of corrupting the live WAL.
    let out = dcgtool(&["store", "compact", &data]);
    assert!(!out.status.success(), "compact must fail on a live store");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("locked by running process"),
        "the error must name the holder: {stderr}"
    );

    // Killing the server leaves a stale lockfile of a dead pid, which
    // the next opener sweeps automatically.
    drop(guard);
    let out = dcgtool(&["store", "compact", &data]);
    assert!(
        out.status.success(),
        "compact works once the holder is gone: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `profiled` with arguments that must make it exit on its own; a
/// daemon that starts serving instead is killed and the test fails.
fn profiled_exit(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_profiled"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("profiled spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("polls the child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("profiled {args:?} kept running instead of refusing its config");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collects output")
}

#[test]
fn out_of_range_decay_settings_are_refused_before_the_data_dir_is_touched() {
    // An infinite product passes the merge's `w > 0` filter and would be
    // served, and checkpointed, as bytes no decoder accepts; a negative
    // factor flips every weight's sign each epoch.
    let dir = TempDir::new("badconfig");
    let data = dir.path("store");
    for (flag, value) in [
        ("--decay", "inf"),
        ("--decay", "nan"),
        ("--decay", "2"),
        ("--decay", "-0.5"),
        ("--min-weight", "-1"),
    ] {
        let served = profiled_exit(&["--addr", "127.0.0.1:0", "--data-dir", &data, flag, value]);
        let compacted = dcgtool(&["store", "compact", &data, flag, value]);
        for (tool, out) in [("profiled", served), ("dcgtool", compacted)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{tool} accepted {flag} {value}");
            assert!(
                stderr.contains(flag),
                "{tool} {flag} {value}: the error must name the flag: {stderr}"
            );
        }
        assert!(
            !Path::new(&data).exists(),
            "{flag} {value}: refused only after the data dir was created"
        );
    }
    // The WAL syncs only per ack or never: a sync cadence and a
    // group-commit fill window are refused, not silently ignored.
    for (flag, value) in [("--fsync", "3"), ("--group-commit", "4,200")] {
        let out = profiled_exit(&["--addr", "127.0.0.1:0", "--data-dir", &data, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "profiled accepted {flag} {value}");
        assert!(
            stderr.contains(flag),
            "{flag} {value}: the error must name the flag: {stderr}"
        );
        assert!(
            !Path::new(&data).exists(),
            "{flag} {value}: refused only after the data dir was created"
        );
    }
    // The range's edges are legal.
    let out = dcgtool(&[
        "store",
        "compact",
        &data,
        "--decay",
        "0",
        "--min-weight",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
