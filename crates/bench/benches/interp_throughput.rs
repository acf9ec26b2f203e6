//! Interpreter hot-path throughput: simulated cycles per wall-second.
//!
//! Compares the preserved pre-optimization interpreter
//! (`Vm::run_reference`, per-op method lookups and `dyn` dispatch) against
//! the optimized monomorphized path (`Vm::run_with`, cached code cursors,
//! superinstruction fusion, frame pooling, hoisted budget check) under the
//! NullProfiler, CBS, and exhaustive configurations, on two workload
//! shapes: loop-dominated (compress — dispatch is the whole cost, the
//! optimization target) and call-heavy (jess — call machinery shared by
//! both paths dilutes the ratio). Two more configs watch the two ways
//! the fast path has been lost before: `null_optimized_downstream` is
//! the same null run through `run_with(&mut NullProfiler)` instantiated
//! *here*, outside `cbs-vm` (`null_optimized` goes through
//! `Vm::run_unprofiled`, instantiated inside it), which is slower
//! whenever a per-op helper is not `#[inline]`; `null_on_inlined_program`
//! runs the workload after inline + optimize from its own CBS(3,16)
//! profile, which executes fewer instructions and must not take longer.
//! Emits `BENCH_interp.json` at the repo root (`scripts/verify.sh` gates
//! both ratios on it) and asserts the optimized NullProfiler path is at
//! least 2x the reference path on the loop-dominated workload (median of
//! paired interleaved rounds, which is robust to interference drift on
//! shared hosts) — both skipped under `CBS_BENCH_SMOKE` where timings
//! are noise.

use std::time::Instant;

use cbs_bench::{smoke_mode, BenchGroup, BenchResult};
use cbs_core::prelude::*;
use cbs_core::vm::NullProfiler;

/// Simulated cycles per wall-second at the median iteration time.
fn rate(cycles: u64, r: &BenchResult) -> f64 {
    cycles as f64 / r.median().as_secs_f64()
}

fn json_entry(name: &str, cycles: u64, r: &BenchResult) -> String {
    format!(
        "      {{ \"config\": \"{name}\", \"median_ns\": {}, \"cycles_per_wall_sec\": {:.1} }}",
        r.median().as_nanos(),
        rate(cycles, r)
    )
}

struct WorkloadRun {
    json: String,
    speedup: f64,
}

fn bench_workload(label: &str, benchmark: Benchmark) -> WorkloadRun {
    let spec = benchmark.spec(InputSize::Small).scaled(0.02);
    let program = cbs_core::workloads::generator::build(&spec).expect("workload builds");
    // One Vm reused across iterations: `Vm` is stateless across runs, and
    // constructing it outside the timed region keeps the measurement on
    // the interpreter loop itself.
    let vm = Vm::new(&program, VmConfig::default());

    // Simulated cycle count is profiler-independent (profilers only add
    // *accounted* overhead, never consume budget), so one unprofiled run
    // supplies the numerator for every configuration's rate.
    let report = vm.run_unprofiled().expect("runs");
    eprintln!(
        "interp_throughput[{label}]: {} instructions, {} calls, {} ticks ({} cycles)",
        report.instructions, report.calls, report.ticks, report.cycles
    );
    let cycles = report.cycles;

    let mut group = BenchGroup::new(&format!("interp_throughput/{label}"), 15);

    let reference = group
        .bench("null_reference_dyn", || {
            let mut p = NullProfiler;
            vm.run_reference(&mut p).expect("runs")
        })
        .clone();
    let optimized = group
        .bench("null_optimized", || vm.run_unprofiled().expect("runs"))
        .clone();
    let downstream = group
        .bench("null_optimized_downstream", || {
            vm.run_with(&mut NullProfiler).expect("runs")
        })
        .clone();
    let cbs = group
        .bench("cbs_optimized", || {
            let mut p = CounterBasedSampler::new(CbsConfig::new(3, 16));
            vm.run_with(&mut p).expect("runs")
        })
        .clone();
    let exhaustive = group
        .bench("exhaustive_optimized", || {
            let mut p = ExhaustiveProfiler::new();
            vm.run_with(&mut p).expect("runs")
        })
        .clone();

    // The program this system produces from the workload: inlined and
    // optimized from its own profile. Its rate is quoted against the
    // *original* cycle count, so it reads as the same work done faster.
    let mut inlined_program = program.clone();
    let mut profile = CounterBasedSampler::new(CbsConfig::new(3, 16));
    vm.run_with(&mut profile).expect("runs");
    inline_program(
        &mut inlined_program,
        Some(&profile.take_dcg()),
        &NewLinearPolicy::default(),
        &InlineBudget::default(),
        true,
    );
    let inlined_vm = Vm::new(&inlined_program, VmConfig::default());
    let inlined = group
        .bench("null_on_inlined_program", || {
            inlined_vm.run_unprofiled().expect("runs")
        })
        .clone();

    // The speedup figure comes from a *paired* pass: each round times one
    // reference run and one optimized run back-to-back and contributes
    // one ratio. On a shared host, interference drifts over seconds;
    // pairing exposes both loops to the same interference window, so the
    // median of per-round ratios is robust where a ratio of independent
    // medians is not.
    let rounds = if smoke_mode() { 1 } else { 25 };
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let mut p = NullProfiler;
        std::hint::black_box(vm.run_reference(&mut p).expect("runs"));
        let ref_t = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut p = NullProfiler;
        std::hint::black_box(vm.run_with(&mut p).expect("runs"));
        let opt_t = start.elapsed().as_secs_f64();
        ratios.push(ref_t / opt_t.max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    eprintln!(
        "interp_throughput[{label}]: speedup {speedup:.2}x (median of {rounds} paired rounds)"
    );

    let json = format!
    (
        "  {{\n    \"workload\": \"{label}/small scaled 0.02\",\n    \"simulated_cycles\": {cycles},\n    \
         \"speedup_null_vs_reference\": {speedup:.2},\n    \"configs\": [\n{},\n{},\n{},\n{},\n{},\n{}\n    ]\n  }}",
        json_entry("null_reference_dyn", cycles, &reference),
        json_entry("null_optimized", cycles, &optimized),
        json_entry("null_optimized_downstream", cycles, &downstream),
        json_entry("null_on_inlined_program", cycles, &inlined),
        json_entry("cbs_optimized", cycles, &cbs),
        json_entry("exhaustive_optimized", cycles, &exhaustive),
    );
    WorkloadRun { json, speedup }
}

fn main() {
    // compress: loop-dominated, dispatch is the whole cost — the direct
    // measure of the optimized interpreter loop. jess: call-heavy, so
    // the call machinery both paths share dilutes the ratio.
    let compress = bench_workload("compress", Benchmark::Compress);
    let jess = bench_workload("jess", Benchmark::Jess);

    if smoke_mode() {
        eprintln!("interp_throughput: smoke mode — skipping assertions and BENCH_interp.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"interp_throughput\",\n  \"workloads\": [\n{},\n{}\n  ]\n}}\n",
        compress.json, jess.json
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, json).expect("write BENCH_interp.json");
    eprintln!("interp_throughput: wrote {path}");

    assert!(
        compress.speedup >= 2.0,
        "optimized path must be >=2x the reference dyn path on the \
         loop-dominated workload, got {:.2}x",
        compress.speedup
    );
    assert!(
        jess.speedup >= 1.3,
        "optimized path must clearly beat the reference dyn path even on \
         the call-heavy workload, got {:.2}x",
        jess.speedup
    );
}
