//! End-to-end smoke tests of every experiment artifact at reduced scale:
//! each must run, render, and show the paper's qualitative trend.

use cbs_repro::experiments::{
    context_sensitivity_with, exhaustive_overhead_with, figure1_demo, figure5_with,
    frequency_sweep, hardware_vs_cbs_with, inliner_ablation_with, patching_vs_cbs_with,
    table1_with, table2, table3_with, Table2Options,
};
use cbs_repro::prelude::*;

#[test]
fn table1_renders_full_suite() {
    let t = table1_with(0.02, Parallelism::SERIAL).unwrap();
    assert_eq!(t.rows.len(), 26);
    let text = t.render();
    for b in Benchmark::all() {
        assert!(text.contains(b.name()), "{} missing", b);
    }
}

#[test]
fn table2_grid_trends() {
    let t = table2(&Table2Options::quick(VmFlavor::Jikes, 0.1)).unwrap();
    let base = t.cell(1, 1).unwrap();
    let more_samples = t.cell(1, 256).unwrap();
    let wider_stride = t.cell(15, 1).unwrap();
    // Increasing either parameter improves accuracy (paper: "As the value
    // of either parameter increases, the accuracy improves").
    assert!(more_samples.accuracy > base.accuracy + 5.0);
    assert!(wider_stride.accuracy >= base.accuracy - 2.0);
    // Overhead is driven by samples per tick.
    assert!(more_samples.overhead_pct > base.overhead_pct);
    assert!(base.overhead_pct < 0.1, "base must be ~free");
}

#[test]
fn table3_cbs_dominates_base() {
    let t = table3_with(
        0.2,
        Some(&[Benchmark::Jess, Benchmark::Mtrt, Benchmark::Javac]),
        Parallelism::SERIAL,
    )
    .unwrap();
    for r in &t.rows {
        assert!(
            r.jikes_cbs.1 > r.jikes_base.1,
            "{}-{}: cbs {} vs base {}",
            r.benchmark,
            r.size.label(),
            r.jikes_cbs.1,
            r.jikes_base.1
        );
        assert!(r.j9_cbs.1 > r.j9_base.1);
        // The chosen configurations stay under 1% overhead.
        assert!(r.jikes_cbs.0 < 1.0);
        assert!(r.j9_cbs.0 < 1.0);
    }
}

#[test]
fn figure1_reproduces_the_bias() {
    let d = figure1_demo(150, 40_000).unwrap();
    let timer = d.rows.iter().find(|r| r.profiler == "timer").unwrap();
    let cbs = d
        .rows
        .iter()
        .find(|r| r.profiler.starts_with("cbs"))
        .unwrap();
    assert!(timer.call_1_pct > 70.0, "timer bias: {timer:?}");
    assert!(cbs.accuracy > timer.accuracy + 20.0);
}

#[test]
fn figure5_jikes_cbs_never_degrades() {
    let f = figure5_with(
        VmFlavor::Jikes,
        0.3,
        Some(&[Benchmark::Javac, Benchmark::Jack]),
        Parallelism::SERIAL,
    )
    .unwrap();
    for r in &f.rows {
        assert!(
            r.cbs_speedup_pct > -0.5,
            "{}: cbs-guided inlining degraded: {r:?}",
            r.benchmark
        );
    }
}

#[test]
fn figure5_j9_timer_only_hurts() {
    let f = figure5_with(
        VmFlavor::J9,
        0.3,
        Some(&[Benchmark::Jess, Benchmark::Javac]),
        Parallelism::SERIAL,
    )
    .unwrap();
    for r in &f.rows {
        assert!(
            r.timer_speedup_pct < 0.0,
            "{}: timer-only dynamic heuristics should hurt: {r:?}",
            r.benchmark
        );
        assert!(
            r.cbs_speedup_pct > r.timer_speedup_pct,
            "{}: cbs must beat timer-only: {r:?}",
            r.benchmark
        );
    }
}

#[test]
fn ablations_match_paper_claims() {
    // §5.1: the new inliner extracts more from identical profile data.
    let a = inliner_ablation_with(0.3, Some(&[Benchmark::Mtrt]), Parallelism::SERIAL).unwrap();
    assert!(a.new_minus_old() > 0.0, "new-old = {}", a.new_minus_old());

    // §3.1: exhaustive PIC counters cost 15–50%.
    let e = exhaustive_overhead_with(0.2, Some(&[Benchmark::Jess]), Parallelism::SERIAL).unwrap();
    let oh = e.rows[0].values[0];
    assert!((10.0..60.0).contains(&oh), "exhaustive overhead {oh}%");

    // §3.2: continuous CBS beats warmup-gated bursts on short runs.
    let p = patching_vs_cbs_with(0.2, Some(&[Benchmark::Kawa]), Parallelism::SERIAL).unwrap();
    assert!(p.rows[0].values[1] > p.rows[0].values[0]);
}

#[test]
fn frequency_sweep_shows_structural_bias() {
    let f = frequency_sweep().unwrap();
    assert_eq!(f.timer_rows.len(), 3);
    // Faster ticking does not fix the timer's accuracy …
    let accs: Vec<f64> = f.timer_rows.iter().map(|r| r.2).collect();
    let spread =
        accs.iter().cloned().fold(0.0, f64::max) - accs.iter().cloned().fold(100.0, f64::min);
    assert!(
        spread < 10.0,
        "accuracy should be frequency-insensitive: {accs:?}"
    );
    // … while CBS at stock frequency is far more accurate.
    assert!(f.cbs_row.1 > accs[0] + 25.0);
    assert!(f.render().contains("1600 Hz"));
}

#[test]
fn hardware_emulation_is_cheap_and_accurate() {
    let h = hardware_vs_cbs_with(0.2, Some(&[Benchmark::Mtrt]), Parallelism::SERIAL).unwrap();
    let r = &h.rows[0];
    let (hw_acc, hw_oh) = (r.values[0], r.values[1]);
    assert!(hw_acc > 40.0, "hardware sampling accuracy {hw_acc}");
    assert!(hw_oh < 1.0, "PMU interrupts stay cheap: {hw_oh}");
    assert!(h.render().contains("hw acc"));
}

#[test]
fn context_sensitive_extension_scores() {
    let c = context_sensitivity_with(0.2, Some(&[Benchmark::Jess]), Parallelism::SERIAL).unwrap();
    let r = &c.rows[0];
    let (flat, ctx, contexts, edges) = (r.values[0], r.values[1], r.values[2], r.values[3]);
    assert!(flat > 0.0 && ctx > 0.0);
    assert!(
        ctx <= flat + 5.0,
        "context-sensitive accuracy should not exceed flat: {ctx} vs {flat}"
    );
    assert!(contexts >= edges, "at least one context per edge");
    assert!(c.render().contains("contexts"));
}

#[test]
fn table2_recommended_config_matches_paper_band() {
    let t = table2(&Table2Options::quick(VmFlavor::Jikes, 0.1)).unwrap();
    // Under the paper's 0.5% budget some configuration beats the (1,1)
    // baseline by a wide margin.
    let base = t.cell(1, 1).unwrap().accuracy;
    let best = t.best_under(0.5).expect("fits budget");
    assert!(
        best.accuracy > base + 15.0,
        "best-under-budget {} vs base {}",
        best.accuracy,
        base
    );
}
