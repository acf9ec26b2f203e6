//! One pass over the suite for Tables 1–3 and the workload shapes.
//!
//! Each experiment declares the (benchmark, input, flavor) runs it reads
//! and the profilers it attaches to each. The pass builds each program
//! once and interprets it once per flavor under the flavor's default
//! `VmConfig`, with the exhaustive truth first and every reader's
//! profilers after it on one `MultiProfiler`. Profilers account for their
//! own simulated cost, so sharing a run changes no profiler's numbers.
//! Runs are scored inside their workers, and each experiment folds what
//! it saw in its own order: a shared pass renders what each experiment
//! renders alone.

use super::{table1, table2, table3, ExperimentError, Table1Row, Table2Options};
use crate::measure::measure_multi;
use crate::parallel::{run_cells, Parallelism};
use cbs_dcg::stats::{self, ProfileShape};
use cbs_profiler::CallGraphProfiler;
use cbs_vm::{VmConfig, VmFlavor};
use cbs_workloads::{Benchmark, InputSize};

/// The experiments one suite pass serves, each over the full suite at
/// its default settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteExperiment {
    /// Table 1 ([`table1_with`](super::table1_with)).
    Table1,
    /// Table 2A: [`table2`](super::table2) with the default options.
    Table2A,
    /// Table 2B: the same grid under [`VmFlavor::J9`].
    Table2B,
    /// Table 3 ([`table3_with`](super::table3_with) over every benchmark).
    Table3,
    /// The workload shapes ([`workload_shapes_with`](super::workload_shapes_with)).
    Shapes,
}

/// Renders `experiments` from one pass over the suite, in the order
/// asked. Each render is byte-identical to the experiment's own function
/// at the same `scale`; `jobs` changes no byte.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn suite_renders(
    scale: f64,
    jobs: Parallelism,
    experiments: &[SuiteExperiment],
) -> Result<Vec<String>, ExperimentError> {
    use SuiteExperiment::*;
    let grid = |flavor| Table2Options {
        flavor,
        ..Table2Options::default()
    };
    let (jikes, j9) = (grid(VmFlavor::Jikes), grid(VmFlavor::J9));
    let declare = |e: &SuiteExperiment| match e {
        Table1 => table1::declare(),
        Table2A => table2::declare(&jikes),
        Table2B => table2::declare(&j9),
        Table3 => table3::declare(&Benchmark::all()),
        Shapes => table1::declare_shapes(),
    };
    let declarations: Vec<_> = experiments.iter().map(declare).collect();
    let seen = observe(scale, jobs, &declarations)?;
    let render = |(e, seen): (&SuiteExperiment, _)| match e {
        Table1 => table1::fold(seen).render(),
        Table2A => table2::fold(&jikes, seen).render(),
        Table2B => table2::fold(&j9, seen).render(),
        Table3 => table3::fold(seen).render(),
        Shapes => table1::fold_shapes(seen).render(),
    };
    Ok(experiments.iter().zip(seen).map(render).collect())
}

/// One interpretation: a suite program under one flavor's defaults.
pub(crate) type Run = (Benchmark, InputSize, VmFlavor);

/// One experiment's part of a pass: the runs it reads, in the order its
/// fold takes them, and the profilers it attaches to each.
pub(crate) struct Declaration {
    runs: Vec<Run>,
    profilers: Box<dyn Fn(VmFlavor) -> Vec<Box<dyn CallGraphProfiler>> + Sync>,
}

impl Declaration {
    /// Reads each of `programs` under each of `flavors`, in that order.
    pub(crate) fn new(
        programs: impl IntoIterator<Item = (Benchmark, InputSize)>,
        flavors: &[VmFlavor],
        profilers: impl Fn(VmFlavor) -> Vec<Box<dyn CallGraphProfiler>> + Sync + 'static,
    ) -> Self {
        let each = |(b, s)| flavors.iter().map(move |&f| (b, s, f));
        let runs = programs.into_iter().flat_map(each).collect();
        let profilers = Box::new(profilers);
        Declaration { runs, profilers }
    }
}

/// `benchmarks` at both input sizes, small inputs first.
pub(crate) fn size_major(benchmarks: &[Benchmark]) -> Vec<(Benchmark, InputSize)> {
    let sized = |s| benchmarks.iter().map(move |&b| (b, s));
    InputSize::both().into_iter().flat_map(sized).collect()
}

/// What a declaration sees of one of its runs.
#[derive(Debug, Clone)]
pub(crate) struct Seen {
    /// The run's characteristics, as Table 1 lists them.
    pub(crate) row: Table1Row,
    /// The shape of the exhaustive truth.
    pub(crate) shape: ProfileShape,
    /// `(overhead %, accuracy)` of the declaration's profilers, in order.
    pub(crate) scores: Vec<(f64, f64)>,
}

/// Interprets each run the declarations ask for once, sharded over
/// `jobs`, and returns what each declaration sees of its runs, in its
/// order.
pub(crate) fn observe(
    scale: f64,
    jobs: Parallelism,
    declarations: &[Declaration],
) -> Result<Vec<Vec<Seen>>, ExperimentError> {
    // Each program once, with its runs, in the order first asked.
    let mut programs: Vec<Vec<Run>> = Vec::new();
    for &run in declarations.iter().flat_map(|d| &d.runs) {
        match programs
            .iter_mut()
            .find(|p| (p[0].0, p[0].1) == (run.0, run.1))
        {
            None => programs.push(vec![run]),
            Some(p) if !p.contains(&run) => p.push(run),
            Some(_) => {}
        }
    }
    let runs = programs.concat();
    // Per run, what each declaration that reads it sees.
    let observed: Vec<Vec<Option<Seen>>> = run_cells(programs, jobs, |runs| {
        let (bench, size, _) = runs[0];
        let program = cbs_workloads::generator::build(&bench.spec(size).scaled(scale))?;
        let interpret = |&run: &Run| -> Result<_, ExperimentError> {
            let profilers: Vec<_> = declarations
                .iter()
                .map(|d| d.runs.contains(&run).then(|| (d.profilers)(run.2)))
                .collect();
            let attached: Vec<_> = profilers.iter().map(|p| p.as_ref().map(Vec::len)).collect();
            let m = measure_multi(&program, VmConfig::with_flavor(run.2), |multi| {
                for p in profilers.into_iter().flatten().flatten() {
                    multi.attach(p);
                }
            })?;
            let row = Table1Row {
                benchmark: bench,
                size,
                seconds: m.exec.seconds,
                methods_executed: m.exec.methods_executed(),
                size_kb: m.exec.executed_bytecode_bytes(&program) as f64 / 1024.0,
                dynamic_calls: m.exec.calls,
            };
            let shape = stats::shape(&m.perfect);
            let mut scores = m.outcomes.iter().map(|o| (o.overhead_pct, o.accuracy));
            let mut seen = |n| Seen {
                row: row.clone(),
                shape,
                scores: scores.by_ref().take(n).collect(),
            };
            Ok(attached.into_iter().map(|n| n.map(&mut seen)).collect())
        };
        runs.iter().map(interpret).collect::<Result<Vec<_>, _>>()
    })?
    .concat();
    // Cloned, not moved: Table 2's options may list a program twice.
    let seen = |i: usize, run: &Run| {
        let at = runs.iter().position(|r| r == run).expect("interpreted");
        observed[at][i].clone().expect("read")
    };
    let declared = declarations.iter().enumerate();
    Ok(declared
        .map(|(i, d)| d.runs.iter().map(|run| seen(i, run)).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The five experiments read 143 runs between them, and the pass
    /// interprets each (benchmark, input, flavor) once: 52 runs. The last
    /// declaration reads every suite run and counts interpretations: the
    /// pass asks it for its profilers once per run, just before the run.
    #[test]
    fn the_suite_interprets_each_program_once_per_flavor() {
        let j9 = Table2Options {
            flavor: VmFlavor::J9,
            ..Table2Options::default()
        };
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let flavors = [VmFlavor::Jikes, VmFlavor::J9];
        let declarations = [
            table1::declare(),
            table2::declare(&Table2Options::default()),
            table2::declare(&j9),
            table3::declare(&Benchmark::all()),
            table1::declare_shapes(),
            Declaration::new(size_major(&Benchmark::all()), &flavors, |_| {
                RUNS.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }),
        ];
        let read: usize = declarations[..5].iter().map(|d| d.runs.len()).sum();
        assert_eq!(read, 143);
        let seen = observe(0.002, Parallelism::jobs(2), &declarations).unwrap();
        assert_eq!(seen.iter().map(Vec::len).sum::<usize>(), 143 + 52);
        assert_eq!(RUNS.load(Ordering::Relaxed), 52);
    }
}
