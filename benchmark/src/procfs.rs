//! `/proc/<pid>` readers: CPU time, peak resident set, process state.
//!
//! The daemon and `repro` are measured from outside, as an operator
//! would: `utime + stime` from `/proc/<pid>/stat` and `VmHWM` from
//! `/proc/<pid>/status`.

use std::path::Path;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// `R`, `S`, `Z`, ...
    pub state: char,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesized and may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let state = fields.next()?.chars().next()?;
    // `state` is field 3; utime and stime are fields 14 and 15.
    let utime_ticks = fields.nth(10)?.parse().ok()?;
    let stime_ticks = fields.next()?.parse().ok()?;
    Some(ProcStat {
        state,
        utime_ticks,
        stime_ticks,
    })
}

/// Parses a `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

pub fn read_stat(pid: u32) -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of `pid` in MB (`None` once the process is a
/// zombie: its address space is already gone).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// Clock ticks per second (`getconf CLK_TCK`; Linux reports `/proc`
/// times in USER_HZ, 100 wherever `getconf` is missing).
pub fn ticks_per_second() -> f64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse::<f64>().ok())
        .filter(|t| *t > 0.0)
        .unwrap_or(100.0)
}

/// CPU seconds (`utime + stime`) `pid` has consumed so far.
pub fn cpu_seconds(pid: u32, ticks_per_second: f64) -> Option<f64> {
    let s = read_stat(pid)?;
    Some((s.utime_ticks + s.stime_ticks) as f64 / ticks_per_second)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parses_past_a_hostile_command_name() {
        let line = "4242 (pro filed) x) S 1 4242 4242 0 -1 4194304 181 0 0 0 \
                    1234 567 0 0 20 0 5 0 8838 12345678 300 18446744073709551615 1 1 0 0";
        assert_eq!(
            parse_stat(line),
            Some(ProcStat {
                state: 'S',
                utime_ticks: 1234,
                stime_ticks: 567
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) R 1 2 3"), None);
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let status =
            "Name:\tprofiled\nVmPeak:\t  300000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   12000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(12000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t oops kB\n", "VmHWM"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let pid = std::process::id();
        let stat = read_stat(pid).expect("own stat");
        // The main thread's state: it sleeps while a test thread runs.
        assert!(matches!(stat.state, 'R' | 'S'), "{stat:?}");
        assert!(peak_rss_mb(pid).expect("own status") > 0.0);
        assert!(ticks_per_second() > 0.0);
    }
}
