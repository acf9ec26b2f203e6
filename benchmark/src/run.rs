//! What every workload shares: the run context, the outcome a run
//! reports, and the timing helpers.

use crate::stats;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// An infrastructure failure (cannot spawn, cannot connect): the run
/// ends without a result line. A wrong *output* is not an error — it
/// is reported through [`Outcome::check`].
pub type Error = Box<dyn std::error::Error + Send + Sync>;

#[derive(Debug, Clone)]
pub struct Ctx {
    /// Root of the checkout (pins and `crates/` live here).
    pub root: PathBuf,
    /// Directory holding the release `profiled` and `repro` binaries.
    pub bin_dir: PathBuf,
    /// `benchmark/out`: traces and temporary data directories.
    pub out: PathBuf,
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// The traced pass: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Schema-and-correctness mode: shrink every fixed-size phase.
    pub smoke: bool,
    /// `/proc` clock ticks per second.
    pub ticks: f64,
}

impl Ctx {
    pub fn profiled(&self) -> PathBuf {
        self.bin_dir.join("profiled")
    }

    pub fn repro(&self) -> PathBuf {
        self.bin_dir.join("repro")
    }

    /// `share` of the measuring budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// `full` normally, `smoke` under `--smoke`.
    pub fn sized(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted against the program and how many of them
    /// failed, were refused, timed out or poisoned a client.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub violations: Vec<String>,
    /// Human-readable detail: sample counts, which percentile a tail is.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records a correctness check; a failed one makes the run
    /// `correct: false` and the command exit non-zero.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Sets a median and its diagnostic tail from raw samples, noting
    /// which percentile the tail is and how many samples back it.
    pub fn set_timing(&mut self, p50_name: &str, tail_name: &str, unit: &str, samples: &[f64]) {
        let t = stats::Timing::of(samples);
        self.set(p50_name, t.p50);
        self.set(tail_name, t.tail);
        let tail = if t.tail_pct > 0.0 {
            format!("p{}", t.tail_pct)
        } else {
            "max".to_owned()
        };
        self.note(format!(
            "{p50_name}: median {:.3} {unit}, {tail} {:.3} {unit}, {} samples",
            t.p50, t.tail, t.samples
        ));
    }

    pub fn absorb_spans(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.into_spans());
    }
}

/// Repeats `f` until `budget` is spent (at least `min` times) and
/// returns the median of the durations it reports, in seconds. `f`
/// times its own measured region, so per-iteration set-up stays out.
pub fn try_median_secs(
    budget: Duration,
    min: usize,
    mut f: impl FnMut(usize) -> Result<Duration, Error>,
) -> Result<f64, Error> {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || started.elapsed() < budget {
        secs.push(f(secs.len())?.as_secs_f64());
    }
    Ok(stats::median(&secs))
}

/// [`try_median_secs`] for a measured region that cannot fail.
pub fn median_secs(budget: Duration, min: usize, mut f: impl FnMut(usize) -> Duration) -> f64 {
    try_median_secs(budget, min, |i| Ok(f(i))).expect("the closure never fails")
}

/// Work per second as the median over `slices` equal slices of the
/// window `[start_ns, end_ns)`, from the end timestamps of completed
/// operations worth `work_per_op` each. One stalled slice (a noisy
/// neighbour on a shared host) does not move the median.
pub fn sliced_rate(
    ends_ns: &[u64],
    start_ns: u64,
    end_ns: u64,
    slices: usize,
    work_per_op: f64,
) -> f64 {
    let width = (end_ns - start_ns) as f64 / slices as f64;
    if width <= 0.0 {
        return 0.0;
    }
    let mut counts = vec![0u64; slices];
    for &t in ends_ns {
        if (start_ns..end_ns).contains(&t) {
            let i = (((t - start_ns) as f64 / width) as usize).min(slices - 1);
            counts[i] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * work_per_op / (width / 1e9))
        .collect();
    stats::median(&rates)
}

pub fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_rate_is_the_median_slice_and_ignores_a_stall() {
        // 4 slices of 1 s; 10 ops in each but the third, which stalls.
        let mut ends = Vec::new();
        for slice in [0u64, 1, 3] {
            for i in 0..10u64 {
                ends.push(slice * 1_000_000_000 + i * 50_000_000);
            }
        }
        ends.push(2_500_000_000);
        ends.push(9_000_000_000); // outside the window
        let rate = sliced_rate(&ends, 0, 4_000_000_000, 4, 100.0);
        assert_eq!(rate, 1000.0);
    }

    #[test]
    fn median_secs_runs_at_least_min_times() {
        let mut calls = 0;
        let m = median_secs(Duration::ZERO, 3, |i| {
            calls += 1;
            Duration::from_millis(10 * (i as u64 + 1))
        });
        assert_eq!(calls, 3);
        assert!((m - 0.020).abs() < 1e-12);
    }

    #[test]
    fn an_outcome_is_correct_only_without_violations_or_failed_ops() {
        let mut o = Outcome::default();
        assert!(o.correct());
        o.check(true, || unreachable!());
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.check(false, || "pulled graph differs".to_owned());
        assert!(!o.correct());
    }
}
