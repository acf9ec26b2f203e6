//! Table 2: overhead and accuracy over the Stride × Samples grid.

use super::suite::{observe, Declaration, Seen};
use super::ExperimentError;
use crate::parallel::Parallelism;
use crate::render::TextTable;
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler, SkipPolicy};
use cbs_vm::VmFlavor;
use cbs_workloads::{Benchmark, InputSize};

/// Grid configuration for [`table2`].
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// Stride values (columns).
    pub strides: Vec<u32>,
    /// Samples-per-timer-interrupt values (rows).
    pub samples: Vec<u32>,
    /// Benchmark/input pairs to average over.
    pub benchmarks: Vec<(Benchmark, InputSize)>,
    /// Running-time scale factor.
    pub scale: f64,
    /// Hosting flavor: [`VmFlavor::Jikes`] reproduces Table 2A,
    /// [`VmFlavor::J9`] Table 2B.
    pub flavor: VmFlavor,
    /// Worker threads for the grid run. Any value produces bit-identical
    /// tables (see [`crate::parallel`]); more workers only shorten the
    /// wall-clock time.
    pub jobs: Parallelism,
}

impl Default for Table2Options {
    fn default() -> Self {
        Self {
            strides: vec![1, 3, 7, 15, 31, 63],
            samples: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048, 4096, 8192],
            benchmarks: Benchmark::all()
                .into_iter()
                .flat_map(|b| InputSize::both().map(|s| (b, s)))
                .collect(),
            scale: 1.0,
            flavor: VmFlavor::Jikes,
            jobs: Parallelism::SERIAL,
        }
    }
}

impl Table2Options {
    /// A reduced grid/suite for quick runs and tests.
    pub fn quick(flavor: VmFlavor, scale: f64) -> Self {
        Self {
            strides: vec![1, 3, 15],
            samples: vec![1, 16, 256],
            benchmarks: vec![
                (Benchmark::Jess, InputSize::Small),
                (Benchmark::Javac, InputSize::Small),
                (Benchmark::Mtrt, InputSize::Small),
            ],
            scale,
            flavor,
            jobs: Parallelism::SERIAL,
        }
    }

    /// Sets the worker-thread count.
    pub fn with_jobs(mut self, jobs: Parallelism) -> Self {
        self.jobs = jobs;
        self
    }
}

/// One cell of the grid: averages over the benchmark suite.
#[derive(Debug, Clone, Copy)]
pub struct Table2Cell {
    /// Stride (window spacing).
    pub stride: u32,
    /// Samples per timer interrupt.
    pub samples_per_tick: u32,
    /// Average overhead percentage.
    pub overhead_pct: f64,
    /// Average accuracy (overlap with the perfect profile, 0–100).
    pub accuracy: f64,
}

/// The reproduced Table 2 (A or B depending on the flavor).
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Hosting flavor the grid ran on.
    pub flavor: VmFlavor,
    /// Stride columns.
    pub strides: Vec<u32>,
    /// Samples rows.
    pub samples: Vec<u32>,
    /// Cells in row-major order (samples × strides).
    pub cells: Vec<Table2Cell>,
}

impl Table2 {
    /// Looks up a cell.
    pub fn cell(&self, stride: u32, samples_per_tick: u32) -> Option<&Table2Cell> {
        self.cells
            .iter()
            .find(|c| c.stride == stride && c.samples_per_tick == samples_per_tick)
    }

    /// The most accurate configuration whose overhead stays below
    /// `max_overhead_pct` — the paper's "reasonable space of parameters
    /// that maximize accuracy while holding overhead to less than 0.5%".
    pub fn best_under(&self, max_overhead_pct: f64) -> Option<&Table2Cell> {
        self.cells
            .iter()
            .filter(|c| c.overhead_pct < max_overhead_pct)
            .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).expect("finite"))
    }

    /// Renders the paper-style grid: each cell shows
    /// `overhead% / accuracy`.
    pub fn render(&self) -> String {
        let label = match self.flavor {
            VmFlavor::Jikes => "Table 2A: Jikes RVM flavor (overhead% / accuracy)",
            VmFlavor::J9 => "Table 2B: J9 flavor (overhead% / accuracy)",
        };
        let mut headers: Vec<String> = vec!["Samples\\Stride".to_owned()];
        headers.extend(self.strides.iter().map(|s| s.to_string()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(label, &header_refs);
        for &n in &self.samples {
            let mut row = vec![n.to_string()];
            for &s in &self.strides {
                let c = self.cell(s, n).expect("grid cell");
                row.push(format!("{:.2}/{:.0}", c.overhead_pct, c.accuracy));
            }
            t.row(row);
        }
        t.to_string()
    }
}

/// Reproduces Table 2: runs the CBS configuration grid against every
/// benchmark and averages overhead/accuracy per cell.
///
/// The (benchmark, input) runs are sharded across `options.jobs` worker
/// threads — each interprets its own `Vm` with the whole sampler grid
/// attached. Because attached profilers never interact and the reduction
/// folds results in stable benchmark order, the table is
/// **bit-identical** for every `jobs` value.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn table2(options: &Table2Options) -> Result<Table2, ExperimentError> {
    let mut seen = observe(options.scale, options.jobs, &[declare(options)])?;
    Ok(fold(options, seen.remove(0)))
}

/// The grid's `(stride, samples)` configurations, row-major.
fn grid(options: &Table2Options) -> Vec<(u32, u32)> {
    let row = |&n| options.strides.iter().map(move |&s| (s, n));
    options.samples.iter().flat_map(row).collect()
}

/// Table 2 attaches the whole grid to each benchmark's run under the
/// options' flavor.
pub(super) fn declare(options: &Table2Options) -> Declaration {
    let grid = grid(options);
    let sampler = |&(stride, samples_per_tick): &(u32, u32)| -> Box<dyn CallGraphProfiler> {
        Box::new(CounterBasedSampler::new(CbsConfig {
            stride,
            samples_per_tick,
            skip_policy: SkipPolicy::RoundRobin,
            ..CbsConfig::default()
        }))
    };
    let programs = options.benchmarks.iter().copied();
    Declaration::new(programs, &[options.flavor], move |_| {
        grid.iter().map(sampler).collect()
    })
}

/// Folds per-run scores into per-grid-index sums. Runs arrive in
/// benchmark order, so each grid index accumulates its benchmarks in
/// the same sequence regardless of `jobs`.
pub(super) fn fold(options: &Table2Options, seen: Vec<Seen>) -> Table2 {
    let grid = grid(options);
    let mut sums = vec![(0.0f64, 0.0f64); grid.len()];
    for s in seen {
        for (sum, (oh, acc)) in sums.iter_mut().zip(s.scores) {
            sum.0 += oh;
            sum.1 += acc;
        }
    }

    let n = options.benchmarks.len().max(1) as f64;
    let cells = grid
        .iter()
        .zip(&sums)
        .map(|(&(stride, samples_per_tick), &(oh, acc))| Table2Cell {
            stride,
            samples_per_tick,
            overhead_pct: oh / n,
            accuracy: acc / n,
        })
        .collect();
    Table2 {
        flavor: options.flavor,
        strides: options.strides.clone(),
        samples: options.samples.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_shows_the_paper_trends() {
        let t = table2(&Table2Options::quick(VmFlavor::Jikes, 0.05)).unwrap();
        assert_eq!(t.cells.len(), 9);
        let base = t.cell(1, 1).unwrap();
        let tuned = t.cell(3, 16).unwrap();
        let heavy = t.cell(1, 256).unwrap();
        // Accuracy improves as either parameter grows.
        assert!(
            tuned.accuracy > base.accuracy,
            "tuned {} vs base {}",
            tuned.accuracy,
            base.accuracy
        );
        // Overhead grows with samples per tick.
        assert!(heavy.overhead_pct > base.overhead_pct);
        // The render contains the cell separator format.
        assert!(t.render().contains('/'));
    }

    #[test]
    fn best_under_picks_the_most_accurate_cell_below_the_cap() {
        let t = table2(&Table2Options::quick(VmFlavor::Jikes, 0.05)).unwrap();
        let best = t.best_under(0.5).expect("some cell fits");
        assert!(best.overhead_pct < 0.5);
        // Nothing under the cap beats it.
        for c in &t.cells {
            if c.overhead_pct < 0.5 {
                assert!(c.accuracy <= best.accuracy);
            }
        }
        assert!(t.best_under(0.0).is_none());
    }

    #[test]
    fn jobs_do_not_change_the_table() {
        let serial = table2(&Table2Options::quick(VmFlavor::Jikes, 0.03)).unwrap();
        let sharded =
            table2(&Table2Options::quick(VmFlavor::Jikes, 0.03).with_jobs(Parallelism::jobs(3)))
                .unwrap();
        assert_eq!(
            serial.render(),
            sharded.render(),
            "parallel grid must render byte-identically"
        );
        for (a, b) in serial.cells.iter().zip(&sharded.cells) {
            assert_eq!(a.overhead_pct.to_bits(), b.overhead_pct.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn j9_flavor_also_runs() {
        let mut opts = Table2Options::quick(VmFlavor::J9, 0.03);
        opts.benchmarks.truncate(1);
        let t = table2(&opts).unwrap();
        assert_eq!(t.flavor, VmFlavor::J9);
        assert!(t.cells.iter().all(|c| (0.0..=100.0).contains(&c.accuracy)));
    }
}
