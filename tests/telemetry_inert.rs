//! Telemetry acceptance: metrics are provably inert (every rendered
//! artifact is byte-identical with telemetry on or off) and the
//! deterministic counters pin to exact values for a seeded serial run.
//!
//! The whole scenario lives in one `#[test]` so nothing else in this
//! binary races the process-global registry while deltas are measured
//! or the kill switch is toggled.

use cbs_core::experiments::fleet_with;
use cbs_core::parallel::Parallelism;
use cbs_core::prelude::*;
use cbs_core::telemetry;

/// Renders `experiment` three times — telemetry on, on again, off — and
/// checks the render never changes, the deterministic counter deltas
/// repeat exactly and match `pins`, and nothing moves while disabled.
fn assert_inert(what: &str, experiment: impl Fn() -> String, pins: &[(&str, u64)]) {
    let registry = telemetry::global();
    assert!(registry.is_enabled(), "telemetry defaults to on");

    // Run 1 (telemetry on): pin the deterministic counter deltas.
    let base = registry.snapshot();
    let run1 = experiment();
    let d1 = registry.delta_since(&base).deterministic().without_gauges();
    for &(name, want) in pins {
        assert_eq!(d1.counter(name), want, "{what}: counter {name}");
    }
    assert!(d1.counter("vm.fused_runs") > 0);

    // Run 2 (telemetry on): the render and the *entire* deterministic
    // delta repeat byte-for-byte.
    let base = registry.snapshot();
    let run2 = experiment();
    let d2 = registry.delta_since(&base).deterministic().without_gauges();
    assert_eq!(run1, run2, "{what}: the render is deterministic");
    assert_eq!(d1.render(), d2.render(), "{what}: deltas repeat exactly");

    // Run 3 (telemetry off): same render bytes, zero counter movement.
    registry.set_enabled(false);
    let base = registry.snapshot();
    let run3 = experiment();
    let d3 = registry.delta_since(&base);
    registry.set_enabled(true);
    assert_eq!(
        run1, run3,
        "{what}: telemetry changed the rendered artifact"
    );
    assert!(
        d3.deterministic().without_gauges().nonzero().is_empty(),
        "{what}: disabled telemetry still moved counters:\n{}",
        d3.nonzero().render()
    );
}

#[test]
fn fleet_is_bit_identical_with_telemetry_on_or_off_and_counters_pin() {
    // The seeded serial fleet experiment at scale 0.01. Its VMs run
    // under `measure()`, whose exhaustive ground truth keeps the
    // interpreter armed throughout.
    assert_inert(
        "fleet",
        || {
            fleet_with(0.01, Parallelism::SERIAL)
                .expect("runs")
                .render()
        },
        &[
            // 13 benchmarks x 4 VMs x (snapshot + delta) frames.
            ("profiled.agg.frames", 104),
            ("profiled.agg.records", 10_576),
            ("cbs.samples", 16_350),
            ("cbs.windows", 1_022),
        ],
    );

    // A run the interpreter gates: a bare CBS is disarmed between its
    // windows, so `Profiler::armed` spares it nearly every entry and
    // exit. The sampler's counters must not notice, on or off.
    assert_inert(
        "gated collect",
        || {
            Benchmark::all()
                .into_iter()
                .map(|bench| {
                    let spec = bench.spec(InputSize::Small).scaled(0.01);
                    let program = cbs_core::workloads::generator::build(&spec).expect("builds");
                    let mut cbs = CounterBasedSampler::new(CbsConfig::new(3, 16));
                    let report = Vm::new(&program, VmConfig::default())
                        .run_with(&mut cbs)
                        .expect("runs");
                    format!(
                        "{bench} {report:?}\n{}",
                        cbs_core::dcg::serialize::to_text(cbs.dcg())
                    )
                })
                .collect()
        },
        // 254 ticks across the 13 programs, 16 samples a window: what
        // the same runs counted when every event was delivered.
        &[("cbs.samples", 4_064), ("cbs.windows", 254)],
    );
}
