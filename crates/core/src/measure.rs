//! One-run, many-profilers measurement.

use cbs_bytecode::Program;
use cbs_dcg::{accuracy, DynamicCallGraph};
use cbs_profiler::{CallGraphProfiler, ExhaustiveProfiler, MultiProfiler};
use cbs_vm::{ExecReport, VmConfig, VmError};

/// One profiler's results from a measured run.
#[derive(Debug, Clone)]
pub struct ProfilerOutcome {
    /// Mechanism name (e.g. `"cbs(stride=3,samples=16)"`).
    pub name: String,
    /// The collected dynamic call graph.
    pub dcg: DynamicCallGraph,
    /// Simulated overhead as a percentage of base program cycles.
    pub overhead_pct: f64,
    /// Overlap with the exhaustive profile (0–100).
    pub accuracy: f64,
    /// Call-stack samples taken.
    pub samples: u64,
}

/// A measured run: the execution report, the perfect profile, and every
/// attached profiler's outcome.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Base execution report (profiler-independent).
    pub exec: ExecReport,
    /// The exhaustively counted (perfect) dynamic call graph.
    pub perfect: DynamicCallGraph,
    /// Per-profiler outcomes, in attachment order.
    pub outcomes: Vec<ProfilerOutcome>,
}

impl Measurement {
    /// Finds an outcome by profiler name.
    pub fn outcome(&self, name: &str) -> Option<&ProfilerOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

/// Runs `program` once under `vm_config` with all `profilers` attached
/// (plus a ground-truth exhaustive profiler), and scores each profiler's
/// accuracy and overhead.
///
/// Because profilers account for their own simulated overhead, attaching
/// many at once yields exactly the same per-profiler numbers as separate
/// runs — asserted by integration tests.
///
/// # Errors
///
/// Propagates any [`VmError`] trap from the program.
pub fn measure(
    program: &Program,
    vm_config: VmConfig,
    profilers: Vec<Box<dyn CallGraphProfiler>>,
) -> Result<Measurement, VmError> {
    measure_multi(program, vm_config, |multi| {
        for p in profilers {
            multi.attach(p);
        }
    })
}

/// [`measure`] over the profilers `attach` adds to the fan-out after the
/// ground truth; they may replay timers of their own
/// ([`MultiProfiler::attach_with_timer`]).
///
/// # Errors
///
/// Propagates any [`VmError`] trap from the program.
pub(crate) fn measure_multi(
    program: &Program,
    vm_config: VmConfig,
    attach: impl FnOnce(&mut MultiProfiler),
) -> Result<Measurement, VmError> {
    // The truth goes first: it is always armed, so the fan-out's `armed`
    // answers at its first profiler.
    let mut multi: MultiProfiler = MultiProfiler::new();
    multi.attach(Box::new(ExhaustiveProfiler::new()));
    attach(&mut multi);
    let exec = cbs_vm::Vm::new(program, vm_config).run_with(&mut multi)?;
    let mut inner = multi.into_inner();
    let perfect = inner.remove(0).take_dcg();

    let outcomes = inner
        .iter_mut()
        .map(|p| {
            let dcg = p.take_dcg();
            ProfilerOutcome {
                name: p.name(),
                overhead_pct: 100.0 * p.overhead_cycles() as f64 / exec.cycles.max(1) as f64,
                accuracy: accuracy(&dcg, &perfect),
                samples: p.samples_taken(),
                dcg,
            }
        })
        .collect();

    Ok(Measurement {
        exec,
        perfect,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;
    use cbs_profiler::{CbsConfig, CounterBasedSampler, TimerSampler};

    fn looping_program() -> cbs_bytecode::Program {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 1, 0, |c| {
                c.load(0).const_(1).add().ret();
            })
            .unwrap();
        let g = b
            .function("g", cls, 1, 0, |c| {
                c.load(0).const_(2).mul().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 2, |c| {
                c.counted_loop(0, 100_000, |c| {
                    c.load(1).call(f).call(g).store(1);
                });
                c.load(1).ret();
            })
            .unwrap();
        b.set_entry(main);
        b.build().unwrap()
    }

    #[test]
    fn measure_scores_profilers_against_truth() {
        let p = looping_program();
        let m = measure(
            &p,
            VmConfig::default(),
            vec![
                Box::new(TimerSampler::new()),
                Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
            ],
        )
        .unwrap();
        assert_eq!(m.perfect.total_weight(), m.exec.calls as f64);
        assert_eq!(m.outcomes.len(), 2);
        let timer = m.outcome("timer").unwrap();
        let cbs = m.outcome("cbs(stride=3,samples=16)").unwrap();
        assert!(timer.samples > 0 && cbs.samples > 0);
        assert!(cbs.samples > timer.samples);
        for o in &m.outcomes {
            assert!(
                (0.0..=100.0).contains(&o.accuracy),
                "{}: {}",
                o.name,
                o.accuracy
            );
            assert!(o.overhead_pct >= 0.0);
        }
        // The two-edge 50/50 profile: CBS with many samples converges
        // close to truth.
        assert!(cbs.accuracy > 90.0, "cbs accuracy {}", cbs.accuracy);
    }

    #[test]
    fn missing_outcome_lookup_is_none() {
        let p = looping_program();
        let m = measure(&p, VmConfig::default(), vec![]).unwrap();
        assert!(m.outcome("nope").is_none());
        assert!(m.outcomes.is_empty());
    }
}
