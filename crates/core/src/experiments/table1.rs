//! Table 1: benchmark characteristics.

use super::suite::{observe, size_major, Declaration, Seen};
use super::ExperimentError;
use crate::parallel::Parallelism;
use crate::render::{f1, f2, TextTable};
use cbs_vm::VmFlavor;
use cbs_workloads::{Benchmark, InputSize};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Input size.
    pub size: InputSize,
    /// Simulated running time in seconds.
    pub seconds: f64,
    /// Methods executed at least once.
    pub methods_executed: usize,
    /// Executed bytecode volume in kilobytes.
    pub size_kb: f64,
    /// Dynamic calls executed (not in the paper's table; useful context).
    pub dynamic_calls: u64,
}

/// The reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All rows, small inputs first.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 1: Benchmarks used in this study",
            &[
                "Benchmark",
                "Input",
                "Time (sec)",
                "Meth exe",
                "Size (K)",
                "Calls",
            ],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                r.size.label().to_owned(),
                f2(r.seconds),
                r.methods_executed.to_string(),
                f1(r.size_kb),
                r.dynamic_calls.to_string(),
            ]);
        }
        t.to_string()
    }
}

/// Reproduces Table 1 by running every benchmark at both input sizes
/// once, the runs sharded across `jobs` worker threads. Rows come back
/// in suite order, so the table is identical to a serial run.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn table1_with(scale: f64, jobs: Parallelism) -> Result<Table1, ExperimentError> {
    Ok(fold(observe(scale, jobs, &[declare()])?.remove(0)))
}

/// Table 1 reads each program's execution under Jikes, small inputs
/// first.
pub(super) fn declare() -> Declaration {
    let programs = size_major(&Benchmark::all());
    Declaration::new(programs, &[VmFlavor::Jikes], |_| vec![])
}

pub(super) fn fold(seen: Vec<Seen>) -> Table1 {
    let rows = seen.into_iter().map(|s| s.row).collect();
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_scale_has_all_rows() {
        let t = table1_with(0.01, Parallelism::SERIAL).unwrap();
        assert_eq!(t.rows.len(), 26);
        for r in &t.rows {
            assert!(r.seconds > 0.0, "{}", r.benchmark);
            assert!(r.methods_executed > 0);
            assert!(r.size_kb > 0.0);
        }
        let text = t.render();
        assert!(text.contains("compress"));
        assert!(text.contains("soot"));
    }

    #[test]
    fn most_methods_execute() {
        // The generator is built so the driver reaches every method; at
        // small scales a few ultra-cold tiers may not fire, but the large
        // majority must.
        let t = table1_with(0.01, Parallelism::SERIAL).unwrap();
        for r in t.rows.iter().filter(|r| r.size == InputSize::Small) {
            let expected = r.benchmark.spec(InputSize::Small).num_methods as f64;
            assert!(
                r.methods_executed as f64 >= 0.9 * expected,
                "{}: executed {} of {expected}",
                r.benchmark,
                r.methods_executed
            );
        }
    }
}

/// Profile-shape characterization of every benchmark's true DCG.
#[derive(Debug, Clone)]
pub struct WorkloadShapes {
    /// `(benchmark, edges, top-decile share, edges for 90%, gini)` per
    /// small-input benchmark.
    pub rows: Vec<(Benchmark, usize, f64, usize, f64)>,
}

impl WorkloadShapes {
    /// Renders the characterization table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Workload profile shapes (exhaustive DCG, small inputs)",
            &[
                "Benchmark",
                "edges",
                "top-10% share",
                "edges for 90%",
                "gini",
            ],
        );
        for (b, edges, decile, e90, gini) in &self.rows {
            t.row([
                b.name().to_owned(),
                edges.to_string(),
                format!("{decile:.2}"),
                e90.to_string(),
                format!("{gini:.2}"),
            ]);
        }
        t.to_string()
    }
}

/// Characterizes each benchmark's exhaustive edge-weight distribution
/// with the [`cbs_dcg::stats`] shape statistics — the quantities that
/// determine how fast any sampling profiler can converge on it
/// (concentrated `compress` vs long-tailed `javac`/`kawa`). The
/// per-benchmark runs are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn workload_shapes_with(
    scale: f64,
    jobs: Parallelism,
) -> Result<WorkloadShapes, ExperimentError> {
    let mut seen = observe(scale, jobs, &[declare_shapes()])?;
    Ok(fold_shapes(seen.remove(0)))
}

/// The shapes read the truth of each small-input program under Jikes.
pub(super) fn declare_shapes() -> Declaration {
    let small = Benchmark::all().map(|b| (b, InputSize::Small));
    Declaration::new(small, &[VmFlavor::Jikes], |_| vec![])
}

pub(super) fn fold_shapes(seen: Vec<Seen>) -> WorkloadShapes {
    let row = |Seen { row, shape: s, .. }| {
        (
            row.benchmark,
            s.edges,
            s.top_decile_share,
            s.edges_for_90pct,
            s.gini,
        )
    };
    let rows = seen.into_iter().map(row).collect();
    WorkloadShapes { rows }
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    #[test]
    fn shapes_distinguish_concentrated_from_flat() {
        let shapes = workload_shapes_with(0.05, Parallelism::SERIAL).unwrap();
        assert_eq!(shapes.rows.len(), 13);
        let find = |b: Benchmark| {
            shapes
                .rows
                .iter()
                .find(|(x, ..)| *x == b)
                .expect("benchmark present")
        };
        let compress = find(Benchmark::Compress);
        let kawa = find(Benchmark::Kawa);
        // compress: a small, fairly even DCG (a handful of kernels doing
        // everything); kawa: an order of magnitude more edges whose long
        // cold tail makes the weight distribution far more unequal.
        assert!(compress.1 < kawa.1 / 2, "edge counts: {shapes:?}");
        assert!(
            kawa.4 > compress.4 + 0.1,
            "kawa's cold tail should raise its gini: {shapes:?}"
        );
        // The largest suites have the most edges.
        let max_edges = shapes.rows.iter().map(|r| r.1).max().unwrap();
        assert!(
            max_edges == kawa.1 || max_edges == find(Benchmark::Daikon).1,
            "kawa/daikon have the largest DCGs"
        );
        assert!(shapes.render().contains("gini"));
    }
}
