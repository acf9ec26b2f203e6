//! Table 3: per-benchmark overhead and accuracy breakdown.

use super::suite::{observe, size_major, Declaration, Seen};
use super::ExperimentError;
use crate::parallel::Parallelism;
use crate::render::{f1, f2, TextTable};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler, TimerSampler};
use cbs_vm::VmFlavor;
use cbs_workloads::{Benchmark, InputSize};

/// The Jikes CBS configuration Table 3 uses.
const JIKES_CONFIG: (u32, u32) = (3, 16);
/// The J9 CBS configuration Table 3 uses.
const J9_CONFIG: (u32, u32) = (7, 32);

/// One row: a benchmark × input measured on both VMs with the base and
/// chosen CBS profilers.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Input size.
    pub size: InputSize,
    /// Jikes flavor, base (timer) profiler: (overhead%, accuracy).
    pub jikes_base: (f64, f64),
    /// Jikes flavor, CBS(3,16): (overhead%, accuracy).
    pub jikes_cbs: (f64, f64),
    /// J9 flavor, base (CBS(1,1) — J9 has no timer DCG profiler):
    /// (overhead%, accuracy).
    pub j9_base: (f64, f64),
    /// J9 flavor, CBS(7,32): (overhead%, accuracy).
    pub j9_cbs: (f64, f64),
}

/// The reproduced Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// All benchmark rows.
    pub rows: Vec<Table3Row>,
}

impl Table3Row {
    /// The four `(overhead%, accuracy)` pairs, flattened in column order.
    fn values(&self) -> [f64; 8] {
        let [a, b, c, d] = [self.jikes_base, self.jikes_cbs, self.j9_base, self.j9_cbs];
        [a.0, a.1, b.0, b.1, c.0, c.1, d.0, d.1]
    }
}

impl Table3 {
    fn averages(&self, filter: impl Fn(&Table3Row) -> bool) -> [f64; 8] {
        let rows: Vec<&Table3Row> = self.rows.iter().filter(|r| filter(r)).collect();
        let n = rows.len().max(1) as f64;
        let mut sums = [0.0; 8];
        for r in rows {
            for (sum, v) in sums.iter_mut().zip(r.values()) {
                *sum += v;
            }
        }
        sums.map(|s| s / n)
    }

    /// Renders the paper-style table with per-size averages.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 3: Overhead and accuracy breakdown (overhead% | accuracy)",
            &[
                "Benchmark",
                "JikesBase oh",
                "JikesBase acc",
                "JikesCBS oh",
                "JikesCBS acc",
                "J9Base oh",
                "J9Base acc",
                "J9CBS oh",
                "J9CBS acc",
            ],
        );
        // Overheads to two places, accuracies to one.
        let mut emit = |label: String, values: [f64; 8]| {
            let cells = values.chunks(2).flat_map(|p| [f2(p[0]), f1(p[1])]);
            t.row(std::iter::once(label).chain(cells));
        };
        for size in InputSize::both() {
            for r in self.rows.iter().filter(|r| r.size == size) {
                emit(
                    format!("{}-{}", r.benchmark.name(), r.size.label()),
                    r.values(),
                );
            }
            let label = format!("Average {}", size.label());
            emit(label, self.averages(|r| r.size == size));
        }
        emit("Average All".to_owned(), self.averages(|_| true));
        t.to_string()
    }
}

/// Reproduces Table 3 over the given benchmarks (defaults to the full
/// suite when `benchmarks` is `None`), the runs sharded across `jobs`
/// worker threads. Rows come back in suite order, so the table is
/// identical to a serial run.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn table3_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<Table3, ExperimentError> {
    let all = Benchmark::all();
    let declaration = declare(benchmarks.unwrap_or(&all));
    Ok(fold(observe(scale, jobs, &[declaration])?.remove(0)))
}

/// Table 3 runs each program under Jikes and then J9, small inputs
/// first, with a base profiler and the flavor's chosen CBS.
pub(super) fn declare(benchmarks: &[Benchmark]) -> Declaration {
    let cbs = |(stride, samples): (u32, u32)| -> Box<dyn CallGraphProfiler> {
        Box::new(CounterBasedSampler::new(CbsConfig::new(stride, samples)))
    };
    let (programs, flavors) = (size_major(benchmarks), [VmFlavor::Jikes, VmFlavor::J9]);
    Declaration::new(programs, &flavors, move |flavor| match flavor {
        VmFlavor::Jikes => vec![Box::new(TimerSampler::new()), cbs(JIKES_CONFIG)],
        // J9 has no timer-based call graph profiler; CBS(1,1) is the
        // base, as in the paper.
        VmFlavor::J9 => vec![cbs((1, 1)), cbs(J9_CONFIG)],
    })
}

/// Pairs each program's Jikes and J9 scores into its row.
pub(super) fn fold(seen: Vec<Seen>) -> Table3 {
    let row = |pair: &[Seen]| Table3Row {
        benchmark: pair[0].row.benchmark,
        size: pair[0].row.size,
        jikes_base: pair[0].scores[0],
        jikes_cbs: pair[0].scores[1],
        j9_base: pair[1].scores[0],
        j9_cbs: pair[1].scores[1],
    };
    let rows = seen.chunks_exact(2).map(row).collect();
    Table3 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Average accuracies over one input size:
    /// `[jikes_base, jikes_cbs, j9_base, j9_cbs]`.
    fn accuracy_averages(t: &Table3, size: InputSize) -> [f64; 4] {
        let a = t.averages(|r| r.size == size);
        [a[1], a[3], a[5], a[7]]
    }

    #[test]
    fn cbs_beats_base_on_average() {
        let t = table3_with(
            0.05,
            Some(&[Benchmark::Jess, Benchmark::Javac]),
            Parallelism::SERIAL,
        )
        .unwrap();
        assert_eq!(t.rows.len(), 4);
        let small = accuracy_averages(&t, InputSize::Small);
        assert!(
            small[1] > small[0],
            "Jikes CBS {} must beat base {}",
            small[1],
            small[0]
        );
        assert!(
            small[3] > small[2],
            "J9 CBS {} must beat base {}",
            small[3],
            small[2]
        );
        // Overheads stay low for the chosen configurations.
        for r in &t.rows {
            assert!(r.jikes_cbs.0 < 2.0, "{:?}", r);
            assert!(r.j9_cbs.0 < 2.0, "{:?}", r);
        }
        assert!(t.render().contains("Average All"));
    }

    #[test]
    fn large_inputs_converge_further() {
        let t = table3_with(0.05, Some(&[Benchmark::Jess]), Parallelism::SERIAL).unwrap();
        let small = accuracy_averages(&t, InputSize::Small);
        let large = accuracy_averages(&t, InputSize::Large);
        assert!(
            large[1] >= small[1] * 0.9,
            "large-input CBS accuracy should not collapse: {large:?} vs {small:?}"
        );
    }
}
