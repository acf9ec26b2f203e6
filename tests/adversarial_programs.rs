//! The adversarial programs from §3, exercised against every mechanism.

use cbs_repro::prelude::*;
use cbs_repro::workloads::adversarial;

#[test]
fn io_variant_biases_the_timer() {
    let (program, handles) = adversarial::io_variant(40, 20_000).unwrap();
    let m = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(TimerSampler::new()),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
        ],
    )
    .unwrap();
    let timer = &m.outcomes[0];
    let cbs = &m.outcomes[1];
    let pct = |dcg: &cbs_repro::dcg::DynamicCallGraph, m: cbs_repro::bytecode::MethodId| {
        if dcg.total_weight() == 0.0 {
            0.0
        } else {
            100.0 * dcg.incoming_weight(m) / dcg.total_weight()
        }
    };
    // The tick lands during the long I/O; the first call afterwards is
    // call_1.
    assert!(
        pct(&timer.dcg, handles.call_1) > pct(&timer.dcg, handles.call_2) + 30.0,
        "I/O variant should bias the timer: call_1={} call_2={}",
        pct(&timer.dcg, handles.call_1),
        pct(&timer.dcg, handles.call_2)
    );
    assert!(
        (pct(&cbs.dcg, handles.call_1) - pct(&cbs.dcg, handles.call_2)).abs() < 10.0,
        "CBS should stay balanced"
    );
}

#[test]
fn phase_shift_defeats_burst_profiling() {
    let (program, handles) = adversarial::phase_shift(700, 100_000).unwrap();
    let m = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(CodePatchingProfiler::with_config(
                cbs_repro::profiler::PatchingConfig {
                    warmup_invocations: 500,
                    burst_samples: 100,
                    ..Default::default()
                },
            )),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
        ],
    )
    .unwrap();
    let patching = &m.outcomes[0];
    let cbs = &m.outcomes[1];

    // Truth: caller_b dominates by >100x.
    let truth_b = m
        .perfect
        .iter()
        .filter(|(e, _)| e.caller == handles.caller_b && e.callee == handles.shared)
        .map(|(_, w)| w)
        .sum::<f64>();
    let truth_a = m
        .perfect
        .iter()
        .filter(|(e, _)| e.caller == handles.caller_a && e.callee == handles.shared)
        .map(|(_, w)| w)
        .sum::<f64>();
    assert!(truth_b > truth_a * 50.0);

    // The burst fires during the warm phase and attributes `shared`
    // mostly to caller_a; CBS keeps sampling and gets caller_b right.
    assert!(
        cbs.accuracy > patching.accuracy + 10.0,
        "cbs {} vs patching {}",
        cbs.accuracy,
        patching.accuracy
    );
    let burst_a = patching
        .dcg
        .iter()
        .filter(|(e, _)| e.caller == handles.caller_a)
        .map(|(_, w)| w)
        .sum::<f64>();
    assert!(
        burst_a > 0.0,
        "the burst must have captured the warmup phase"
    );
}

#[test]
fn pc_sampler_builds_context_tree_but_misses_calls() {
    let (program, handles) = adversarial::figure1(150, 30_000).unwrap();
    let mut pc = PcSampler::new();
    Vm::new(&program, VmConfig::default())
        .run_with(&mut pc)
        .unwrap();
    assert!(pc.samples_taken() > 0);
    assert!(pc.cct().max_depth() >= 2);
    // M dominates the stack; the short calls are nearly invisible.
    let total = pc.dcg().total_weight();
    let short = pc.dcg().incoming_weight(handles.call_1) + pc.dcg().incoming_weight(handles.call_2);
    assert!(
        short < total * 0.2,
        "stack sampling should miss the short calls: {short}/{total}"
    );
}
