//! Figure 5: steady-state speedup from profile-directed inlining.
//!
//! Protocol (per benchmark): run a profiling pass collecting both a
//! timer-based DCG and a CBS DCG from the same execution; feed each
//! profile (and no profile, as the baseline) to the VM's inliner; apply
//! the inlining transform + optimizer; re-run and compare simulated
//! cycles. Speedups are therefore *computed* consequences of the inlining
//! decisions, exactly like the paper's steady-state measurements.

use super::ExperimentError;
use crate::measure::measure;
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f1, TextTable};
use cbs_bytecode::Program;
use cbs_dcg::DynamicCallGraph;
use cbs_inliner::{
    inline_program, CompileTimeModel, InlineBudget, InlinePolicy, J9Policy, NewLinearPolicy,
};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler, TimerSampler};
use cbs_vm::{Vm, VmConfig, VmFlavor};
use cbs_workloads::{Benchmark, InputSize};

/// The benchmarks Figure 5 reports (the SPECjvm98 suite plus jbb).
pub const FIGURE5_BENCHMARKS: [Benchmark; 8] = [
    Benchmark::Compress,
    Benchmark::Jess,
    Benchmark::Db,
    Benchmark::Javac,
    Benchmark::Mpegaudio,
    Benchmark::Mtrt,
    Benchmark::Jack,
    Benchmark::Jbb,
];

/// One benchmark's speedups.
#[derive(Debug, Clone)]
pub struct Figure5Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Speedup (%) of timer-profile-directed inlining over the baseline.
    pub timer_speedup_pct: f64,
    /// Speedup (%) of CBS-profile-directed inlining over the baseline.
    pub cbs_speedup_pct: f64,
    /// Compile-cost change (%) of the CBS-directed configuration relative
    /// to the baseline (negative = cheaper compilation).
    pub cbs_compile_delta_pct: f64,
}

/// The reproduced Figure 5 (left = Jikes flavor, right = J9 flavor).
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Which VM's inlining discipline was used.
    pub flavor: VmFlavor,
    /// Per-benchmark speedups.
    pub rows: Vec<Figure5Row>,
}

impl Figure5 {
    /// Average CBS speedup across benchmarks.
    pub fn average_cbs_speedup(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|r| r.cbs_speedup_pct).sum::<f64>() / n
    }

    /// Average timer-only speedup across benchmarks.
    pub fn average_timer_speedup(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|r| r.timer_speedup_pct).sum::<f64>() / n
    }

    /// Average compile-cost change of the CBS-directed configuration.
    pub fn average_compile_delta(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows
            .iter()
            .map(|r| r.cbs_compile_delta_pct)
            .sum::<f64>()
            / n
    }

    /// Renders the per-benchmark speedup table.
    pub fn render(&self) -> String {
        let label = match self.flavor {
            VmFlavor::Jikes => {
                "Figure 5 (left): Jikes RVM — % speedup of profile-directed inlining"
            }
            VmFlavor::J9 => "Figure 5 (right): J9 — % speedup over static heuristics",
        };
        let mut t = TextTable::new(label, &["Benchmark", "timer-only", "cbs", "cbs compile Δ%"]);
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.timer_speedup_pct),
                f1(r.cbs_speedup_pct),
                f1(r.cbs_compile_delta_pct),
            ]);
        }
        t.row([
            "average".to_owned(),
            f1(self.average_timer_speedup()),
            f1(self.average_cbs_speedup()),
            f1(self.average_compile_delta()),
        ]);
        t.to_string()
    }
}

/// How much longer the profiling pass runs than the measured pass,
/// modeling the paper's steady-state protocol (iterate for two minutes,
/// measure the second minute: profiles accumulate over many iterations
/// before the inliner consumes them).
const PROFILE_RUN_SCALE: f64 = 5.0;

/// Profiles, inlines and re-measures one benchmark under one VM
/// discipline.
fn speedup_for(
    program: &Program,
    profile_program: &Program,
    flavor: VmFlavor,
) -> Result<(f64, f64, f64), ExperimentError> {
    // 1. Profiling pass: both mechanisms observe the same (long) run.
    let (base_cbs, tuned) = match flavor {
        VmFlavor::Jikes => ((1, 1), (3, 16)),
        VmFlavor::J9 => ((1, 1), (7, 32)),
    };
    let profilers: Vec<Box<dyn CallGraphProfiler>> = match flavor {
        VmFlavor::Jikes => vec![
            Box::new(TimerSampler::new()),
            Box::new(CounterBasedSampler::new(CbsConfig::new(tuned.0, tuned.1))),
        ],
        VmFlavor::J9 => vec![
            Box::new(CounterBasedSampler::new(CbsConfig::new(
                base_cbs.0, base_cbs.1,
            ))),
            Box::new(CounterBasedSampler::new(CbsConfig::new(tuned.0, tuned.1))),
        ],
    };
    let m = measure(profile_program, VmConfig::with_flavor(flavor), profilers)?;
    let timer_dcg = m.outcomes[0].dcg.clone();
    let cbs_dcg = m.outcomes[1].dcg.clone();

    // 2. Build the three inlined configurations.
    let budget = InlineBudget::default();
    let compile = CompileTimeModel::default();
    let build_variant = |dcg: Option<&DynamicCallGraph>| -> (u64, f64) {
        let mut p = program.clone();
        let policy: Box<dyn InlinePolicy> = match flavor {
            VmFlavor::Jikes => Box::new(NewLinearPolicy::default()),
            VmFlavor::J9 => {
                if dcg.is_some() {
                    Box::new(J9Policy::default())
                } else {
                    Box::new(J9Policy::static_only())
                }
            }
        };
        inline_program(&mut p, dcg, policy.as_ref(), &budget, true);
        let exec = Vm::new(&p, VmConfig::with_flavor(flavor))
            .run_unprofiled()
            .expect("inlined program must still run");
        // JIT-only configuration: every method is compiled once, so total
        // compilation work is the whole-program cost (inlining fattens
        // callers without removing callee methods).
        let cost = compile.total_cost(&p);
        (exec.cycles, cost)
    };

    let (base_cycles, base_compile) = build_variant(None);
    let (timer_cycles, _) = build_variant(Some(&timer_dcg));
    let (cbs_cycles, cbs_compile) = build_variant(Some(&cbs_dcg));

    let speedup = |c: u64| 100.0 * (base_cycles as f64 / c as f64 - 1.0);
    let compile_delta = 100.0 * (cbs_compile / base_compile - 1.0);
    Ok((speedup(timer_cycles), speedup(cbs_cycles), compile_delta))
}

/// Reproduces one side of Figure 5, the per-benchmark
/// profile→inline→re-measure pipelines sharded across `jobs` worker
/// threads. Rows come back in suite order, so the figure is identical
/// to a serial run.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn figure5_with(
    flavor: VmFlavor,
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<Figure5, ExperimentError> {
    let benchmarks = benchmarks.unwrap_or(&FIGURE5_BENCHMARKS);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        // The profiling pass observes a longer run of the same program:
        // scaling only changes the driver's iteration constant, so every
        // method and call-site id is identical and the collected DCG
        // applies directly to the measured program.
        let profile_program = cbs_workloads::generator::build(&spec.scaled(PROFILE_RUN_SCALE))?;
        let (timer_speedup_pct, cbs_speedup_pct, cbs_compile_delta_pct) =
            speedup_for(&program, &profile_program, flavor)?;
        Ok::<_, ExperimentError>(Figure5Row {
            benchmark: bench,
            timer_speedup_pct,
            cbs_speedup_pct,
            cbs_compile_delta_pct,
        })
    })?;
    Ok(Figure5 { flavor, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jikes_cbs_inlining_speeds_up() {
        let f = figure5_with(
            VmFlavor::Jikes,
            0.2,
            Some(&[Benchmark::Jess, Benchmark::Mtrt]),
            Parallelism::SERIAL,
        )
        .unwrap();
        assert_eq!(f.rows.len(), 2);
        for r in &f.rows {
            assert!(
                r.cbs_speedup_pct > 0.0,
                "{}: cbs-directed inlining must win over static: {r:?}",
                r.benchmark
            );
        }
        assert!(
            f.average_cbs_speedup() >= f.average_timer_speedup() - 0.5,
            "cbs {} vs timer {}",
            f.average_cbs_speedup(),
            f.average_timer_speedup()
        );
        assert!(f.render().contains("average"));
    }

    #[test]
    fn j9_dynamic_heuristics_reduce_compilation() {
        let f = figure5_with(
            VmFlavor::J9,
            0.2,
            Some(&[Benchmark::Jess, Benchmark::Javac]),
            Parallelism::SERIAL,
        )
        .unwrap();
        // Dynamic heuristics suppress cold-site inlining, so the compiled
        // volume (and thus compile cost) drops relative to the static
        // baseline.
        assert!(
            f.average_compile_delta() < 0.0,
            "compile delta {}",
            f.average_compile_delta()
        );
    }
}
