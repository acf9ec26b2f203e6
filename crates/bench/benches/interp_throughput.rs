//! Interpreter hot-path throughput: simulated cycles per wall-second.
//!
//! Times `Vm::run_with`, the interpreter's one run loop, under the
//! NullProfiler, CBS, and exhaustive configurations, on two workload
//! shapes: loop-dominated (compress — dispatch is the whole cost) and
//! call-heavy (jess — the call machinery weighs in). Two more configs
//! watch the two ways the fast path has been lost before:
//! `null_optimized_downstream` is the same null run through
//! `run_with(&mut NullProfiler)` instantiated *here*, outside `cbs-vm`
//! (`null_optimized` goes through `Vm::run_unprofiled`, instantiated
//! inside it), which is slower whenever a per-op helper is not
//! `#[inline]`; `null_on_inlined_program` runs the workload after inline +
//! optimize from its own CBS(3,16) profile, which executes fewer
//! instructions and must not take longer.
//!
//! Those two ratios are gated, so their three configs are timed
//! interleaved — each iteration runs all three back to back, in an order
//! rotated every iteration — and each ratio is the median of its
//! per-iteration ratios: host drift over the bench then lands on both
//! sides of every ratio instead of on whichever config ran in a slower
//! stretch. Emits `BENCH_interp.json` at the repo root, where
//! `scripts/verify.sh` gates both median ratios — except under
//! `CBS_BENCH_SMOKE`, where timings are noise.

use cbs_bench::{smoke_mode, BenchGroup, BenchResult};
use cbs_core::prelude::*;
use cbs_core::vm::NullProfiler;
use std::hint::black_box;

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

fn bench_workload(label: &str, benchmark: Benchmark) -> String {
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

    let mut group = BenchGroup::new(&format!("interp_throughput/{label}"), 61);
    let gated = group.bench_interleaved(&mut [
        ("null_optimized", &mut || {
            black_box(vm.run_unprofiled().expect("runs"));
        }),
        ("null_optimized_downstream", &mut || {
            black_box(vm.run_with(&mut NullProfiler).expect("runs"));
        }),
        ("null_on_inlined_program", &mut || {
            black_box(inlined_vm.run_unprofiled().expect("runs"));
        }),
    ]);
    let [optimized, downstream, inlined] = <[BenchResult; 3]>::try_from(gated).expect("three");
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

    let ratio = |name: &str, r: &BenchResult| {
        format!(
            "      {{ \"ratio\": \"{name}/null_optimized\", \"median\": {:.4} }}",
            r.median_ratio(&optimized)
        )
    };
    format!(
        "  {{\n    \"workload\": \"{label}/small scaled 0.02\",\n    \"simulated_cycles\": {cycles},\n    \
         \"configs\": [\n{},\n{},\n{},\n{},\n{}\n    ],\n    \"median_ratios\": [\n{},\n{}\n    ]\n  }}",
        json_entry("null_optimized", cycles, &optimized),
        json_entry("null_optimized_downstream", cycles, &downstream),
        json_entry("null_on_inlined_program", cycles, &inlined),
        json_entry("cbs_optimized", cycles, &cbs),
        json_entry("exhaustive_optimized", cycles, &exhaustive),
        ratio("null_optimized_downstream", &downstream),
        ratio("null_on_inlined_program", &inlined),
    )
}

fn main() {
    let compress = bench_workload("compress", Benchmark::Compress);
    let jess = bench_workload("jess", Benchmark::Jess);

    if smoke_mode() {
        eprintln!("interp_throughput: smoke mode — skipping BENCH_interp.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"interp_throughput\",\n  \"workloads\": [\n{compress},\n{jess}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, json).expect("write BENCH_interp.json");
    eprintln!("interp_throughput: wrote {path}");
}
