//! A minimal wall-clock benchmark harness.
//!
//! The build environment is offline, so the workspace cannot depend on
//! `criterion`; this module provides the small subset the benches need —
//! named timed runs with warmup, min/median/mean reporting, and grouped
//! output — on top of `std::time::Instant`. Benches are ordinary
//! `harness = false` binaries: run them with `cargo bench`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::{Duration, Instant};

/// Returns `true` when benches run in smoke mode (`CBS_BENCH_SMOKE=1`).
///
/// `scripts/verify.sh --bench-smoke` sets the variable so every bench
/// binary compiles and executes end-to-end in CI on a tiny budget:
/// [`BenchGroup`] clamps itself to one timed iteration with no warmup,
/// and benches should skip wall-clock *assertions* (timings on a loaded
/// CI host are noise) and artifact writes while still exercising every
/// code path.
pub fn smoke_mode() -> bool {
    std::env::var_os("CBS_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Result of one named benchmark: per-iteration wall times.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Per-iteration durations, in run order.
    pub times: Vec<Duration>,
}

impl BenchResult {
    /// Fastest iteration.
    pub fn min(&self) -> Duration {
        self.times.iter().copied().min().unwrap_or_default()
    }

    /// Median iteration (lower middle for even counts).
    pub fn median(&self) -> Duration {
        let mut v = self.times.clone();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or_default()
    }

    /// Median over iterations of this bench's time divided by `base`'s
    /// (lower middle for even counts). For benches timed by
    /// [`BenchGroup::bench_interleaved`], iteration `i` of each ran back
    /// to back, so host drift between iterations cancels in each ratio.
    ///
    /// # Panics
    ///
    /// Panics if the two ran different numbers of iterations.
    pub fn median_ratio(&self, base: &BenchResult) -> f64 {
        assert_eq!(self.times.len(), base.times.len(), "paired iterations");
        let mut ratios: Vec<f64> = self
            .times
            .iter()
            .zip(&base.times)
            .map(|(t, b)| t.as_secs_f64() / b.as_secs_f64())
            .collect();
        ratios.sort_unstable_by(f64::total_cmp);
        ratios.get(ratios.len() / 2).copied().unwrap_or(f64::NAN)
    }

    /// Mean iteration time.
    pub fn mean(&self) -> Duration {
        if self.times.is_empty() {
            return Duration::ZERO;
        }
        self.times.iter().sum::<Duration>() / self.times.len() as u32
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// A named group of benchmarks with shared iteration counts.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    warmup: u32,
    iters: u32,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// Creates a group running `iters` timed iterations per bench after
    /// one warmup iteration.
    ///
    /// Under [`smoke_mode`] the group clamps to a single timed iteration
    /// with no warmup, whatever `iters` says.
    pub fn new(name: &str, iters: u32) -> Self {
        let (warmup, iters) = if smoke_mode() {
            (0, 1)
        } else {
            (1, iters.max(1))
        };
        eprintln!("== bench group `{name}` ({iters} iters) ==");
        Self {
            name: name.to_owned(),
            warmup,
            iters,
            results: Vec::new(),
        }
    }

    /// Sets the number of (untimed) warmup iterations.
    pub fn warmup(mut self, warmup: u32) -> Self {
        self.warmup = warmup;
        self
    }

    /// Times `f`, printing a summary line, and records the result.
    ///
    /// The closure's return value is passed through `std::hint::black_box`
    /// so the work cannot be optimized away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchResult {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut times = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed());
        }
        self.record(BenchResult {
            name: format!("{}/{name}", self.name),
            times,
        })
    }

    /// Times `f` on a fresh input from `setup` each iteration, printing a
    /// summary line, and records the result. Only `f` is timed: neither
    /// `setup` nor dropping what `f` returns is, so a bench can restore
    /// the state each iteration starts from (a directory an open
    /// rewrites) and release what it built outside the measurement.
    pub fn bench_with_setup<I, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> I,
        mut f: impl FnMut(I) -> R,
    ) -> &BenchResult {
        for _ in 0..self.warmup {
            let input = setup();
            std::hint::black_box(f(input));
        }
        let mut times = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let out = std::hint::black_box(f(input));
            times.push(start.elapsed());
            drop(out);
        }
        self.record(BenchResult {
            name: format!("{}/{name}", self.name),
            times,
        })
    }

    /// Times several benches interleaved: every iteration runs each once,
    /// starting one further along the list each time, so all of them see
    /// the same host conditions and no one always runs first. Returns
    /// their results in the order given; iteration `i` of each is paired
    /// for [`BenchResult::median_ratio`].
    pub fn bench_interleaved(
        &mut self,
        benches: &mut [(&str, &mut dyn FnMut())],
    ) -> Vec<BenchResult> {
        let n = benches.len();
        for _ in 0..self.warmup {
            for (_, f) in benches.iter_mut() {
                f();
            }
        }
        let mut times = vec![Vec::with_capacity(self.iters as usize); n];
        for iter in 0..self.iters as usize {
            for k in 0..n {
                let b = (iter + k) % n;
                let start = Instant::now();
                (benches[b].1)();
                times[b].push(start.elapsed());
            }
        }
        benches
            .iter()
            .zip(times)
            .map(|((name, _), times)| {
                self.record(BenchResult {
                    name: format!("{}/{name}", self.name),
                    times,
                })
                .clone()
            })
            .collect()
    }

    /// Prints `result`'s summary line and keeps it.
    fn record(&mut self, result: BenchResult) -> &BenchResult {
        eprintln!(
            "{:<48} min {:>10}  median {:>10}  mean {:>10}",
            result.name,
            fmt_duration(result.min()),
            fmt_duration(result.median()),
            fmt_duration(result.mean()),
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All recorded results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Finds a recorded result by its bench name (without group prefix).
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        let full = format!("{}/{name}", self.name);
        self.results.iter().find(|r| r.name == full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_and_reports() {
        let mut g = BenchGroup::new("unit", 3).warmup(0);
        let mut calls = 0u32;
        g.bench("counts", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3, "3 timed iterations, no warmup");
        let r = g.result("counts").expect("recorded");
        assert_eq!(r.times.len(), 3);
        assert!(r.min() <= r.median() && r.median() <= r.times.iter().copied().max().unwrap());
        assert!(g.result("missing").is_none());
    }

    #[test]
    fn setup_runs_before_every_iteration_untimed() {
        let mut group = BenchGroup::new("t", 3).warmup(1);
        let (mut setups, mut runs) = (0, 0);
        let r = group
            .bench_with_setup(
                "s",
                || {
                    setups += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    setups
                },
                |n| {
                    runs += 1;
                    n
                },
            )
            .clone();
        let iterations = r.times.len() + 1;
        assert_eq!(
            (setups, runs),
            (iterations, iterations),
            "one setup per run, warmup included"
        );
        assert!(r.median() < Duration::from_millis(20), "setup is not timed");
    }

    #[test]
    fn interleaved_benches_rotate_and_pair_their_iterations() {
        let mut g = BenchGroup::new("unit", 4).warmup(1);
        let order = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b, mut c) = (
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
            || order.borrow_mut().push('c'),
        );
        let r = g.bench_interleaved(&mut [("a", &mut a), ("b", &mut b), ("c", &mut c)]);
        let order: String = order.into_inner().into_iter().collect();
        // One warmup round, then each iteration starts one further on.
        assert_eq!(order, "abcabcbcacababc");
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|r| r.times.len() == 4));
        assert_eq!(r[1].name, "unit/b");
        assert!(g.result("c").is_some());

        let ms = |v: &[u64]| BenchResult {
            name: String::new(),
            times: v.iter().map(|&m| Duration::from_millis(m)).collect(),
        };
        // Per-iteration ratios 2, 0.5, 1.5: the drift in the base cancels.
        assert_eq!(ms(&[20, 20, 90]).median_ratio(&ms(&[10, 40, 60])), 1.5);
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
