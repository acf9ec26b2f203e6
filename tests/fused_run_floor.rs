//! A floor on the share of fused superinstruction entries that run
//! fused rather than bail to per-op interpretation.
//!
//! A fused run executes in one dispatch only when the next timer tick
//! and the fuel budget are both past its cost. The interpreter compares
//! the clock with one `horizon`, refreshed after every tick; if the
//! refresh is lost, every run after the first tick bails. Results stay
//! bit-identical either way (a bail interprets the same ops one by one),
//! so no differential test sees it — only the share does. `repro fleet`
//! reads 12 946 031 runs against 1 425 bails.
//!
//! `VmMetrics` counters are process-wide, so this file holds one test
//! and nothing else in its binary runs a VM while it measures.

use cbs_repro::prelude::*;
use cbs_repro::vm::{NullProfiler, VmMetrics};
use cbs_repro::workloads::generator;

#[test]
fn fused_entries_run_fused_across_timer_ticks() {
    let spec = Benchmark::Compress.spec(InputSize::Small).scaled(0.2);
    let program = generator::build(&spec).expect("the shipped specs build");
    let vm = Vm::new(&program, VmConfig::default());
    let metrics = VmMetrics::get();
    let (runs_before, bails_before) = (metrics.fused_runs.get(), metrics.fused_bails.get());
    let report = vm.run_with(&mut NullProfiler).expect("compress runs");
    let runs = metrics.fused_runs.get() - runs_before;
    let bails = metrics.fused_bails.get() - bails_before;
    assert!(
        report.ticks >= 10,
        "the run crosses {} timer ticks; it must cross at least 10",
        report.ticks
    );
    let share = runs as f64 / (runs + bails) as f64;
    assert!(
        share >= 0.9,
        "{runs} fused runs against {bails} bails over {} ticks: a share of {share:.4}, \
         below the 0.9 floor",
        report.ticks
    );
}
