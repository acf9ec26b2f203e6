//! Ablations and secondary claims from the paper's text.

use super::ExperimentError;
use crate::measure::measure;
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f1, TextTable};
use cbs_inliner::{inline_program, InlineBudget, NewLinearPolicy, OldJikesPolicy};
use cbs_profiler::{
    CbsConfig, CodePatchingProfiler, CounterBasedSampler, ExhaustiveMode, ExhaustiveProfiler,
    PatchingConfig, ProfilingCosts, TimerSampler,
};
use cbs_vm::{Vm, VmConfig};
use cbs_workloads::{Benchmark, InputSize};

/// A generic named (benchmark, values...) row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub benchmark: Benchmark,
    /// Experiment-specific values.
    pub values: Vec<f64>,
}

/// §5.1: the new inliner beats the old hot/cold-cliff inliner even with
/// the same (timer-quality) profile data.
#[derive(Debug, Clone)]
pub struct InlinerAblation {
    /// Per-benchmark `[old_speedup_pct, new_speedup_pct]` over
    /// trivial-only inlining.
    pub rows: Vec<AblationRow>,
}

impl InlinerAblation {
    /// Average speedup of the new inliner minus the old one.
    pub fn new_minus_old(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows
            .iter()
            .map(|r| r.values[1] - r.values[0])
            .sum::<f64>()
            / n
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "§5.1 ablation: old vs new inliner, identical (timer) profile data",
            &["Benchmark", "old %", "new %"],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.values[0]),
                f1(r.values[1]),
            ]);
        }
        t.to_string()
    }
}

/// Reproduces the §5.1 observation: replacing the old inliner with the
/// new linear-threshold inliner helps even with timer-quality profiles.
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn inliner_ablation_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<InlinerAblation, ExperimentError> {
    let default = [
        Benchmark::Jess,
        Benchmark::Javac,
        Benchmark::Mtrt,
        Benchmark::Db,
    ];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        // Steady-state protocol: the profile accumulates over a run ten
        // times longer than the measured one (same program shape, only
        // the driver's iteration constant differs, so site ids match).
        let profile_program = cbs_workloads::generator::build(&spec.scaled(10.0))?;
        let m = measure(
            &profile_program,
            VmConfig::default(),
            vec![Box::new(TimerSampler::new())],
        )?;
        let dcg = &m.outcomes[0].dcg;

        let run_with = |policy: &dyn cbs_inliner::InlinePolicy| -> u64 {
            let mut p = program.clone();
            inline_program(&mut p, Some(dcg), policy, &InlineBudget::default(), true);
            Vm::new(&p, VmConfig::default())
                .run_unprofiled()
                .expect("inlined program runs")
                .cycles
        };
        let base = {
            let mut p = program.clone();
            inline_program(
                &mut p,
                None,
                &cbs_inliner::TrivialOnlyPolicy,
                &InlineBudget::default(),
                true,
            );
            Vm::new(&p, VmConfig::default())
                .run_unprofiled()
                .expect("baseline runs")
                .cycles
        };
        let old = run_with(&OldJikesPolicy::default());
        let new = run_with(&NewLinearPolicy::default());
        let speedup = |c: u64| 100.0 * (base as f64 / c as f64 - 1.0);
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values: vec![speedup(old), speedup(new)],
        })
    })?;
    Ok(InlinerAblation { rows })
}

/// §3.1: the cost of exhaustive online edge counters.
#[derive(Debug, Clone)]
pub struct ExhaustiveOverhead {
    /// Per-benchmark `[overhead_pct]` of instrumented exhaustive
    /// profiling.
    pub rows: Vec<AblationRow>,
}

impl ExhaustiveOverhead {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "§3.1: overhead of exhaustive PIC-counter instrumentation",
            &["Benchmark", "overhead %"],
        );
        for r in &self.rows {
            t.row([r.benchmark.name().to_owned(), f1(r.values[0])]);
        }
        t.to_string()
    }
}

/// Measures the overhead of exhaustive instrumented counting (the Vortex
/// PIC-counter experiment, reported as 15–50%).
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn exhaustive_overhead_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<ExhaustiveOverhead, ExperimentError> {
    let default = [Benchmark::Jess, Benchmark::Javac, Benchmark::Compress];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        let m = measure(
            &program,
            VmConfig::default(),
            vec![Box::new(ExhaustiveProfiler::with_mode(
                ExhaustiveMode::Instrumented,
                ProfilingCosts::default(),
            ))],
        )?;
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values: vec![m.outcomes[0].overhead_pct],
        })
    })?;
    Ok(ExhaustiveOverhead { rows })
}

/// §3.2: burst (code-patching) profiling vs continuous CBS.
#[derive(Debug, Clone)]
pub struct PatchingComparison {
    /// Per-benchmark `[patching_accuracy, cbs_accuracy]`.
    pub rows: Vec<AblationRow>,
}

impl PatchingComparison {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "§3.2: code-patching bursts vs continuous CBS (accuracy)",
            &["Benchmark", "patching", "cbs(3,16)"],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.values[0]),
                f1(r.values[1]),
            ]);
        }
        t.to_string()
    }
}

/// Compares a Suganuma-style burst profiler with CBS on short-running
/// inputs, where delayed instrumentation hurts most.
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn patching_vs_cbs_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<PatchingComparison, ExperimentError> {
    let default = [Benchmark::Jess, Benchmark::Kawa, Benchmark::Javac];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        let m = measure(
            &program,
            VmConfig::default(),
            vec![
                Box::new(CodePatchingProfiler::with_config(PatchingConfig::default())),
                Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
            ],
        )?;
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values: vec![m.outcomes[0].accuracy, m.outcomes[1].accuracy],
        })
    })?;
    Ok(PatchingComparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_instrumentation_is_expensive() {
        let e =
            exhaustive_overhead_with(0.05, Some(&[Benchmark::Jess]), Parallelism::SERIAL).unwrap();
        let oh = e.rows[0].values[0];
        assert!(
            oh > 5.0,
            "exhaustive counters must cost real overhead, got {oh}%"
        );
        assert!(e.render().contains("overhead"));
    }

    #[test]
    fn cbs_beats_bursts_on_short_runs() {
        let c = patching_vs_cbs_with(0.05, Some(&[Benchmark::Kawa]), Parallelism::SERIAL).unwrap();
        let (patching, cbs) = (c.rows[0].values[0], c.rows[0].values[1]);
        assert!(
            cbs > patching,
            "continuous CBS ({cbs}) must beat bursts ({patching}) on short runs"
        );
        assert!(c.render().contains("patching"));
    }

    #[test]
    fn new_inliner_at_least_matches_old() {
        let a = inliner_ablation_with(
            0.1,
            Some(&[Benchmark::Jess, Benchmark::Mtrt]),
            Parallelism::SERIAL,
        )
        .unwrap();
        assert!(
            a.new_minus_old() > -0.5,
            "new inliner regressed by {}",
            a.new_minus_old()
        );
        assert!(a.render().contains("old %"));
    }
}

/// The frequency-sweep ablation: can the timer mechanism match CBS just
/// by ticking faster?
#[derive(Debug, Clone)]
pub struct FrequencySweep {
    /// `(timer_hz, overhead_pct, accuracy)` for the plain timer sampler.
    pub timer_rows: Vec<(u64, f64, f64)>,
    /// `(overhead_pct, accuracy)` for CBS(3,16) at the stock 100 Hz.
    pub cbs_row: (f64, f64),
}

impl FrequencySweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Ablation: raising the timer frequency vs CBS (Figure 1 program)",
            &["Mechanism", "overhead %", "accuracy"],
        );
        for (hz, oh, acc) in &self.timer_rows {
            t.row([format!("timer @{hz} Hz"), f1(*oh), f1(*acc)]);
        }
        t.row([
            "cbs(3,16) @100 Hz".to_owned(),
            f1(self.cbs_row.0),
            f1(self.cbs_row.1),
        ]);
        t.to_string()
    }
}

/// Shows that the timer sampler's inaccuracy is *structural*, not a
/// sampling-rate problem: even at many times the stock frequency (which
/// the paper notes the OS does not offer anyway), the tick keeps landing
/// in the non-call region of the Figure 1 program and waking at the same
/// prologue, while CBS at stock frequency recovers the distribution.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn frequency_sweep() -> Result<FrequencySweep, ExperimentError> {
    use cbs_workloads::adversarial;
    let (program, _) = adversarial::figure1(200, 100_000)?;
    let mut timer_rows = Vec::new();
    for hz in [100, 400, 1600] {
        let config = VmConfig {
            timer_hz: hz,
            timer_jitter: (10_000_000 / hz) / 8,
            ..VmConfig::default()
        };
        let m = measure(&program, config, vec![Box::new(TimerSampler::new())])?;
        timer_rows.push((hz, m.outcomes[0].overhead_pct, m.outcomes[0].accuracy));
    }
    let m = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
    )?;
    let cbs_row = (m.outcomes[0].overhead_pct, m.outcomes[0].accuracy);
    Ok(FrequencySweep {
        timer_rows,
        cbs_row,
    })
}

/// §7 hardware-assist comparison.
#[derive(Debug, Clone)]
pub struct HardwareComparison {
    /// Per-benchmark `[hw_accuracy, hw_overhead, cbs_accuracy,
    /// cbs_overhead]`.
    pub rows: Vec<AblationRow>,
}

impl HardwareComparison {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "§7: emulated hardware call sampling (imprecise) vs CBS",
            &["Benchmark", "hw acc", "hw oh%", "cbs acc", "cbs oh%"],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.values[0]),
                f1(r.values[1]),
                f1(r.values[2]),
                f1(r.values[3]),
            ]);
        }
        t.to_string()
    }
}

/// Compares emulated low-overhead/imprecise hardware call sampling (§7)
/// against CBS: the software mechanism reaches comparable accuracy at
/// comparable overhead without micro-architecture-specific support.
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn hardware_vs_cbs_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<HardwareComparison, ExperimentError> {
    use cbs_profiler::{HardwareConfig, HardwareSampler};
    let default = [Benchmark::Jess, Benchmark::Mtrt, Benchmark::Javac];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        let m = measure(
            &program,
            VmConfig::default(),
            vec![
                Box::new(HardwareSampler::new(HardwareConfig::default())),
                Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
            ],
        )?;
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values: vec![
                m.outcomes[0].accuracy,
                m.outcomes[0].overhead_pct,
                m.outcomes[1].accuracy,
                m.outcomes[1].overhead_pct,
            ],
        })
    })?;
    Ok(HardwareComparison { rows })
}

/// The context-sensitivity extension, quantified.
#[derive(Debug, Clone)]
pub struct ContextSensitivity {
    /// Per-benchmark `[flat_accuracy, context_accuracy, contexts,
    /// flat_edges]`.
    pub rows: Vec<AblationRow>,
}

impl ContextSensitivity {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Extension: context-sensitive CBS (same samples, scored per calling context)",
            &["Benchmark", "flat acc", "ctx acc", "contexts", "flat edges"],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.values[0]),
                f1(r.values[1]),
                format!("{:.0}", r.values[2]),
                format!("{:.0}", r.values[3]),
            ]);
        }
        t.to_string()
    }
}

/// Quantifies the §1/§7 claim that CBS "is easily extensible to
/// context-sensitive profiling": the same samples, recorded as full stack
/// walks, scored against an exhaustive calling-context tree. Context
/// accuracy trails flat accuracy (there are far more contexts than
/// edges), but the mechanism needs no changes.
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn context_sensitivity_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<ContextSensitivity, ExperimentError> {
    use cbs_dcg::overlap_cct;
    use cbs_profiler::ExhaustiveCctProfiler;

    let default = [Benchmark::Jess, Benchmark::Javac, Benchmark::Mtrt];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;

        // Pass 1: context-sensitive CBS plus the flat ground truth.
        let mut cbs = CounterBasedSampler::new(CbsConfig {
            context_sensitive: true,
            ..CbsConfig::new(3, 16)
        });
        let mut flat_truth = ExhaustiveProfiler::new();
        {
            #[derive(Debug)]
            struct Both<'a>(&'a mut CounterBasedSampler, &'a mut ExhaustiveProfiler);
            impl cbs_vm::Profiler for Both<'_> {
                fn on_tick(
                    &mut self,
                    clock: u64,
                    thread: cbs_vm::ThreadId,
                    stack: cbs_vm::StackSlice<'_>,
                ) {
                    self.0.on_tick(clock, thread, stack);
                    self.1.on_tick(clock, thread, stack);
                }
                fn on_entry(&mut self, ev: &cbs_vm::CallEvent<'_>) {
                    self.0.on_entry(ev);
                    self.1.on_entry(ev);
                }
                fn on_exit(&mut self, ev: &cbs_vm::CallEvent<'_>) {
                    self.0.on_exit(ev);
                    self.1.on_exit(ev);
                }
                fn on_finish(&mut self, clock: u64) {
                    self.0.on_finish(clock);
                    self.1.on_finish(clock);
                }
            }
            let mut both = Both(&mut cbs, &mut flat_truth);
            Vm::new(&program, VmConfig::default())
                .run(&mut both)
                .map_err(ExperimentError::Vm)?;
        }

        // Pass 2 (identical deterministic execution): exhaustive contexts.
        let mut ctx_truth = ExhaustiveCctProfiler::new();
        Vm::new(&program, VmConfig::default())
            .run(&mut ctx_truth)
            .map_err(ExperimentError::Vm)?;

        use cbs_profiler::CallGraphProfiler as _;
        let flat_acc = cbs_dcg::accuracy(cbs.dcg(), flat_truth.dcg());
        let ctx_acc = overlap_cct(cbs.cct().expect("context mode"), ctx_truth.cct());
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values: vec![
                flat_acc,
                ctx_acc,
                (ctx_truth.cct().num_nodes() - 1) as f64,
                flat_truth.dcg().num_edges() as f64,
            ],
        })
    })?;
    Ok(ContextSensitivity { rows })
}

/// Transitive-inlining (rounds) sensitivity.
#[derive(Debug, Clone)]
pub struct DepthAblation {
    /// Per-benchmark `[speedup_r1, speedup_r2, speedup_r3, growth_r3]`
    /// (speedups in % over trivial-only inlining; growth is the code
    /// size factor at three rounds).
    pub rows: Vec<AblationRow>,
}

impl DepthAblation {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Ablation: transitive inlining rounds (speedup % / growth at 3 rounds)",
            &["Benchmark", "1 round", "2 rounds", "3 rounds", "growth×"],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                f1(r.values[0]),
                f1(r.values[1]),
                f1(r.values[2]),
                format!("{:.2}", r.values[3]),
            ]);
        }
        t.to_string()
    }
}

/// Measures how much of profile-directed inlining's benefit requires
/// *transitive* rounds (sites exposed by earlier splices): the first
/// round captures most of it, mirroring why real inliners bound depth.
/// Benchmarks are sharded across `jobs` worker threads.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn inline_depth_ablation_with(
    scale: f64,
    benchmarks: Option<&[Benchmark]>,
    jobs: Parallelism,
) -> Result<DepthAblation, ExperimentError> {
    use cbs_inliner::InlineBudget;

    let default = [Benchmark::Jess, Benchmark::Mtrt];
    let benchmarks = benchmarks.unwrap_or(&default);
    let rows = run_cells(benchmarks.to_vec(), jobs, |bench| {
        let spec = bench.spec(InputSize::Small).scaled(scale);
        let program = cbs_workloads::generator::build(&spec)?;
        let profile_program = cbs_workloads::generator::build(&spec.scaled(5.0))?;
        let m = measure(
            &profile_program,
            VmConfig::default(),
            vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
        )?;
        let dcg = &m.outcomes[0].dcg;

        let baseline = {
            let mut p = program.clone();
            inline_program(
                &mut p,
                None,
                &cbs_inliner::TrivialOnlyPolicy,
                &InlineBudget::default(),
                true,
            );
            Vm::new(&p, VmConfig::default())
                .run_unprofiled()
                .expect("baseline runs")
                .cycles
        };

        let mut values = Vec::new();
        let mut growth3 = 1.0;
        for rounds in 1..=3u32 {
            let mut p = program.clone();
            let report = inline_program(
                &mut p,
                Some(dcg),
                &NewLinearPolicy::default(),
                &InlineBudget {
                    rounds,
                    ..InlineBudget::default()
                },
                true,
            );
            let cycles = Vm::new(&p, VmConfig::default())
                .run_unprofiled()
                .expect("inlined program runs")
                .cycles;
            values.push(100.0 * (baseline as f64 / cycles as f64 - 1.0));
            if rounds == 3 {
                growth3 = report.growth();
            }
        }
        values.push(growth3);
        Ok::<_, ExperimentError>(AblationRow {
            benchmark: bench,
            values,
        })
    })?;
    Ok(DepthAblation { rows })
}
