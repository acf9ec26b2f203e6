//! `vm-suite`: all 13 programs at `InputSize::Small`, in-process,
//! under the null, CBS(3,16), exhaustive and timer profilers.
//!
//! `vm`, `profiler` and `dcg` do all the work and the daemon none, so
//! a change to the interpreter loop or a profiler's hooks moves this
//! workload and nothing on the three daemon workloads. Profilers are
//! interleaved per program and the sweep repeated to fill the window,
//! so host drift hits all four alike.

use crate::gen::SplitMix64;
use crate::procfs;
use crate::run::{median_secs, Ctx, Error, Outcome};
use crate::stats;
use crate::trace::Tracer;
use cbs_core::dcg::{accuracy, CallEdge, DynamicCallGraph};
use cbs_core::prelude::*;
use cbs_core::profiler::CallGraphProfiler;
use cbs_core::vm::{NullProfiler, VmMetrics};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Cbs,
    Exhaustive,
    Timer,
}

const KINDS: [Kind; 4] = [Kind::Null, Kind::Cbs, Kind::Exhaustive, Kind::Timer];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Null => "vm.run_with(null)",
            Kind::Cbs => "vm.run_with(cbs)",
            Kind::Exhaustive => "vm.run_with(exhaustive)",
            Kind::Timer => "vm.run_with(timer)",
        }
    }
}

/// What one profiled run leaves behind.
struct RunResult {
    secs: f64,
    cycles: u64,
    samples: u64,
    dcg: Option<DynamicCallGraph>,
}

fn profiled_run<P: CallGraphProfiler>(
    vm: &Vm<'_>,
    mut p: P,
) -> Result<(u64, u64, DynamicCallGraph), Error> {
    let report = vm.run_with(&mut p)?;
    Ok((report.cycles, p.samples_taken(), p.take_dcg()))
}

/// One run, profiler construction included (a user pays it too).
fn run_one(vm: &Vm<'_>, kind: Kind, tracer: &mut Tracer, request: u64) -> Result<RunResult, Error> {
    let span = tracer.begin(kind.span(), request);
    let t = Instant::now();
    let (cycles, samples, dcg) = match kind {
        Kind::Null => (vm.run_with(&mut NullProfiler)?.cycles, 0, None),
        Kind::Cbs => {
            let (c, s, g) = profiled_run(vm, CounterBasedSampler::new(CbsConfig::new(3, 16)))?;
            (c, s, Some(g))
        }
        Kind::Exhaustive => {
            let (c, s, g) = profiled_run(vm, ExhaustiveProfiler::new())?;
            (c, s, Some(g))
        }
        Kind::Timer => {
            let (c, s, g) = profiled_run(vm, TimerSampler::new())?;
            (c, s, Some(g))
        }
    };
    let secs = t.elapsed().as_secs_f64();
    tracer.end(span);
    Ok(RunResult {
        secs,
        cycles,
        samples,
        dcg,
    })
}

/// Share of fused-superinstruction entries that ran fused (the rest
/// bailed to per-op interpretation), from the process-wide `vm.*`
/// counters; `since` is an earlier [`fused_counters`] reading.
pub fn fused_run_share(since: (u64, u64)) -> f64 {
    let (runs, bails) = fused_counters();
    let (runs, bails) = (runs - since.0, bails - since.1);
    runs as f64 / (runs + bails).max(1) as f64
}

pub fn fused_counters() -> (u64, u64) {
    let m = VmMetrics::get();
    (m.fused_runs.get(), m.fused_bails.get())
}

/// Builds the suite at `InputSize::Small` (a quarter of its run length
/// under `--smoke`); returns the programs and the build time alone.
fn build_suite(ctx: &Ctx) -> Result<(Vec<Program>, f64), Error> {
    let scale = if ctx.smoke { 0.25 } else { 1.0 };
    let t = Instant::now();
    let programs = Benchmark::all()
        .into_iter()
        .map(|b| cbs_core::workloads::generator::build(&b.spec(InputSize::Small).scaled(scale)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((programs, t.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let benchmarks = Benchmark::all();

    // Set-up: generate the 13 programs and construct their VMs (the
    // fusion scan runs in `Vm::new`).
    let setups = ctx.sized(7, 2);
    let (mut setup_times, mut build_times) = (Vec::new(), Vec::new());
    let mut programs = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        let (built, build_s) = build_suite(ctx)?;
        for p in &built {
            black_box(Vm::new(p, VmConfig::default()));
        }
        setup_times.push(t.elapsed().as_secs_f64());
        build_times.push(build_s);
        programs = built;
    }
    let vms: Vec<Vm<'_>> = programs
        .iter()
        .map(|p| Vm::new(p, VmConfig::default()))
        .collect();
    // The simulated cycle count is the program's own: profilers only
    // account overhead, they never consume budget. One unprofiled run
    // fixes the reference (and warms the code).
    let reference: Vec<u64> = vms
        .iter()
        .map(|vm| Ok(vm.run_unprofiled()?.cycles))
        .collect::<Result<_, Error>>()?;

    let mut tracer = Tracer::new(Instant::now(), false);
    let fused_before = fused_counters();
    // times[kind][program] = seconds of every sweep's run; `traced`
    // says which sweeps ran with spans on (the traced pass alternates).
    let mut times = vec![vec![Vec::<f64>::new(); vms.len()]; KINDS.len()];
    let mut cbs_sweep_secs: Vec<(bool, f64)> = Vec::new();
    let mut cycles_run = 0u64;
    let mut cbs_samples = 0u64;
    let mut accuracies = vec![0.0; vms.len()];
    let mut cbs_profiles: Vec<Option<DynamicCallGraph>> = vec![None; vms.len()];
    let mut exhaustive_edges: Vec<CallEdge> = Vec::new();
    let window = ctx.budget(if ctx.trace { 0.6 } else { 1.0 });
    let min_sweeps = if ctx.trace { 2 } else { 1 };
    let cpu_before = procfs::cpu_seconds(std::process::id(), ctx.ticks).unwrap_or(0.0);
    let started = Instant::now();
    let mut sweep = 0usize;
    while sweep < min_sweeps || started.elapsed() < window {
        let traced = ctx.trace && sweep % 2 == 1;
        tracer.set_enabled(traced);
        let mut cbs_secs = 0.0;
        for (i, vm) in vms.iter().enumerate() {
            let mut profiles = [None, None];
            for (k, &kind) in KINDS.iter().enumerate() {
                out.attempted += 1;
                let r = run_one(vm, kind, &mut tracer, (sweep * vms.len() + i) as u64)?;
                times[k][i].push(r.secs);
                cycles_run += r.cycles;
                out.check(r.cycles == reference[i], || {
                    format!(
                        "{} under {kind:?}, sweep {sweep}: {} cycles, the unprofiled run took {}",
                        benchmarks[i].name(),
                        r.cycles,
                        reference[i]
                    )
                });
                match kind {
                    Kind::Cbs => {
                        cbs_secs += r.secs;
                        if sweep == 0 {
                            cbs_samples += r.samples;
                        }
                        profiles[0] = r.dcg;
                    }
                    Kind::Exhaustive => profiles[1] = r.dcg,
                    Kind::Null | Kind::Timer => {}
                }
            }
            if sweep == 0 {
                let [Some(cbs), Some(perfect)] = profiles else {
                    unreachable!("both profilers ran")
                };
                accuracies[i] = accuracy(&cbs, &perfect);
                if i == 1 {
                    // jess: the call-heavy program feeds the dcg replay.
                    exhaustive_edges = perfect.iter().map(|(e, _)| *e).collect();
                }
                cbs_profiles[i] = Some(cbs);
            }
        }
        cbs_sweep_secs.push((traced, cbs_secs));
        sweep += 1;
    }
    let cpu_after = procfs::cpu_seconds(std::process::id(), ctx.ticks).unwrap_or(0.0);
    tracer.set_enabled(ctx.trace);

    let medians = |k: usize| -> Vec<f64> { times[k].iter().map(|t| stats::median(t)).collect() };
    let rates = |k: usize| -> Vec<f64> {
        medians(k)
            .iter()
            .zip(&reference)
            .map(|(secs, &cycles)| cycles as f64 / secs)
            .collect()
    };
    let cbs = KINDS.iter().position(|&k| k == Kind::Cbs).expect("listed");
    if !ctx.trace {
        out.set("work_per_s", stats::geomean(&rates(cbs)));
        out.set("op_p50_us", medians(cbs).iter().sum::<f64>() * 1e6);
        out.set(
            "cpu_ns_per_work",
            (cpu_after - cpu_before) * 1e9 / cycles_run.max(1) as f64,
        );
        out.set(
            "peak_rss_mb",
            procfs::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        );
        out.set("setup_s", stats::median(&setup_times));
        out.note(format!(
            "{sweep} sweeps of 13 programs x 4 profilers, {cycles_run} simulated cycles; CBS geomean {:.1} Mcycles/s; set-ups {setup_times:?} s",
            stats::geomean(&rates(cbs)) / 1e6
        ));
        return Ok(out);
    }

    let mcycles = |k: usize| stats::geomean(&rates(k)) / 1e6;
    out.set("vm.null_mcycles_per_s", mcycles(0));
    out.set("vm.exhaustive_mcycles_per_s", mcycles(2));
    out.set("vm.timer_mcycles_per_s", mcycles(3));
    for (b, rate) in benchmarks.iter().zip(rates(cbs)) {
        out.set(&format!("vm.{}.cbs_mcycles_per_s", b.name()), rate / 1e6);
    }
    out.set("vm.fused_run_share", fused_run_share(fused_before));

    // Hook cost in wall time: per program, the median over sweeps of
    // the paired (same sweep, back to back) profiled / null ratio.
    let overhead_pct = |k: usize| {
        let per_program: Vec<f64> = (0..vms.len())
            .map(|i| {
                let ratios: Vec<f64> = times[k][i]
                    .iter()
                    .zip(&times[0][i])
                    .map(|(p, null)| p / null)
                    .collect();
                stats::median(&ratios)
            })
            .collect();
        (stats::geomean(&per_program) - 1.0) * 100.0
    };
    out.set("profiler.cbs_wall_overhead_pct", overhead_pct(cbs));
    out.set("profiler.exhaustive_wall_overhead_pct", overhead_pct(2));
    out.set("profiler.cbs_samples", cbs_samples as f64);
    out.set(
        "profiler.cbs_accuracy_pct",
        accuracies.iter().sum::<f64>() / accuracies.len() as f64,
    );
    out.set("workloads.build_ms", stats::median(&build_times) * 1e3);
    let sweep_secs = |want: bool| -> Vec<f64> {
        cbs_sweep_secs
            .iter()
            .filter(|(traced, _)| *traced == want)
            .map(|&(_, s)| s)
            .collect()
    };
    out.set(
        "trace_overhead_pct",
        (stats::median(&sweep_secs(true)) / stats::median(&sweep_secs(false)) - 1.0) * 100.0,
    );

    // dcg: the flush half of CBS (16-sample windows recorded in a
    // batch) and the drain a VM does before each push.
    let mut rng = SplitMix64::new(ctx.seed);
    let batches: Vec<Vec<CallEdge>> = (0..ctx.sized(4_096, 256))
        .map(|_| {
            (0..16)
                .map(|_| exhaustive_edges[rng.below(exhaustive_edges.len() as u64) as usize])
                .collect()
        })
        .collect();
    let mut graph = DynamicCallGraph::new();
    let mut record_pass = |tracer: &mut Tracer, i: usize| {
        let t = Instant::now();
        tracer.span("dcg.record_batch x batches", i as u64, || {
            for b in &batches {
                graph.record_batch(b);
            }
        });
        t.elapsed()
    };
    record_pass(&mut tracer, 0);
    let record = median_secs(ctx.budget(0.15), 3, |i| record_pass(&mut tracer, i + 1));
    out.set(
        "dcg.record_batch_ns_per_edge",
        record * 1e9 / (batches.len() * 16) as f64,
    );
    let drain = median_secs(ctx.budget(0.15), 3, |round| {
        // Clones have never been drained: every edge is emitted.
        let mut fresh: Vec<DynamicCallGraph> = cbs_profiles.iter().flatten().cloned().collect();
        let t = Instant::now();
        tracer.span("dcg.drain_delta x13", round as u64, || {
            for g in &mut fresh {
                black_box(g.drain_delta());
            }
        });
        t.elapsed() / fresh.len() as u32
    });
    out.set("dcg.drain_delta_us", drain * 1e6);
    out.absorb_spans(tracer);
    Ok(out)
}
