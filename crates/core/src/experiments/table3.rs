//! Table 3: per-benchmark overhead and accuracy breakdown.

use super::ExperimentError;
use crate::measure::measure;
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f1, f2, TextTable};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler, TimerSampler};
use cbs_vm::{VmConfig, VmFlavor};
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

impl Table3 {
    fn averages(&self, filter: impl Fn(&Table3Row) -> bool) -> [f64; 8] {
        let rows: Vec<&Table3Row> = self.rows.iter().filter(|r| filter(r)).collect();
        let n = rows.len().max(1) as f64;
        let mut sums = [0.0; 8];
        for r in rows {
            for (i, v) in [
                r.jikes_base.0,
                r.jikes_base.1,
                r.jikes_cbs.0,
                r.jikes_cbs.1,
                r.j9_base.0,
                r.j9_base.1,
                r.j9_cbs.0,
                r.j9_cbs.1,
            ]
            .into_iter()
            .enumerate()
            {
                sums[i] += v;
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
        let emit_avg = |t: &mut TextTable, label: &str, a: [f64; 8]| {
            t.row([
                label.to_owned(),
                f2(a[0]),
                f1(a[1]),
                f2(a[2]),
                f1(a[3]),
                f2(a[4]),
                f1(a[5]),
                f2(a[6]),
                f1(a[7]),
            ]);
        };
        for size in InputSize::both() {
            for r in self.rows.iter().filter(|r| r.size == size) {
                t.row([
                    format!("{}-{}", r.benchmark.name(), r.size.label()),
                    f2(r.jikes_base.0),
                    f1(r.jikes_base.1),
                    f2(r.jikes_cbs.0),
                    f1(r.jikes_cbs.1),
                    f2(r.j9_base.0),
                    f1(r.j9_base.1),
                    f2(r.j9_cbs.0),
                    f1(r.j9_cbs.1),
                ]);
            }
            let label = format!("Average {}", size.label());
            emit_avg(&mut t, &label, self.averages(|r| r.size == size));
        }
        emit_avg(&mut t, "Average All", self.averages(|_| true));
        t.to_string()
    }
}

/// `(overhead%, accuracy)` for the base profiler and the CBS profiler.
type PairResult = ((f64, f64), (f64, f64));

fn profile_pair(
    program: &cbs_bytecode::Program,
    flavor: VmFlavor,
    base: Box<dyn CallGraphProfiler>,
    cbs: (u32, u32),
) -> Result<PairResult, ExperimentError> {
    let m = measure(
        program,
        VmConfig::with_flavor(flavor),
        vec![
            base,
            Box::new(CounterBasedSampler::new(CbsConfig::new(cbs.0, cbs.1))),
        ],
    )?;
    let b = &m.outcomes[0];
    let c = &m.outcomes[1];
    Ok(((b.overhead_pct, b.accuracy), (c.overhead_pct, c.accuracy)))
}

/// Reproduces Table 3 over the given benchmarks (defaults to the full
/// suite when `benchmarks` is `None`), the rows sharded across `jobs`
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
    let benchmarks = benchmarks.unwrap_or(&all);
    let cells: Vec<(InputSize, Benchmark)> = InputSize::both()
        .into_iter()
        .flat_map(|size| benchmarks.iter().map(move |&b| (size, b)))
        .collect();
    let rows = run_cells(cells, jobs, |(size, bench)| {
        let spec = bench.spec(size).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        let (jikes_base, jikes_cbs) = profile_pair(
            &program,
            VmFlavor::Jikes,
            Box::new(TimerSampler::new()),
            JIKES_CONFIG,
        )?;
        // J9 has no timer-based call graph profiler; CBS(1,1) is the
        // base, as in the paper.
        let (j9_base, j9_cbs) = profile_pair(
            &program,
            VmFlavor::J9,
            Box::new(CounterBasedSampler::new(CbsConfig::new(1, 1))),
            J9_CONFIG,
        )?;
        Ok::<_, ExperimentError>(Table3Row {
            benchmark: bench,
            size,
            jikes_base,
            jikes_cbs,
            j9_base,
            j9_cbs,
        })
    })?;
    Ok(Table3 { rows })
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
