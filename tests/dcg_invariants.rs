//! §2 invariants across the whole stack: every dynamic call graph any
//! profiler collects must be a subgraph of the complete static call
//! graph (the oracle in `support/static_graph.rs`), and profiles must
//! survive serialization.

#[path = "support/static_graph.rs"]
mod static_graph;

use cbs_repro::dcg::serialize;
use cbs_repro::prelude::*;
use static_graph::StaticCallGraph;

#[test]
fn every_profiler_respects_the_static_call_graph() {
    let program = Benchmark::Mtrt
        .spec(InputSize::Small)
        .scaled(0.1)
        .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
    let scg = StaticCallGraph::build(&program);
    assert!(scg.num_edges() > 0);

    let m = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(TimerSampler::new()),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
            Box::new(PcSampler::new()),
            Box::new(CodePatchingProfiler::new()),
        ],
    )
    .unwrap();

    assert!(
        scg.violation(&m.perfect).is_none(),
        "perfect DCG contains an impossible edge: {:?}",
        scg.violation(&m.perfect)
    );
    for o in &m.outcomes {
        assert!(
            scg.violation(&o.dcg).is_none(),
            "{}: sampled an impossible edge {:?}",
            o.name,
            scg.violation(&o.dcg)
        );
    }
    // The exhaustive profile covers far more of the static graph than any
    // sampler.
    let cbs = m.outcome("cbs(stride=3,samples=16)").unwrap();
    assert!(scg.coverage(&m.perfect) >= scg.coverage(&cbs.dcg));
}

#[test]
fn static_containment_survives_inlining() {
    // After the inliner transforms the program, re-collected profiles
    // must respect the *transformed* program's static graph.
    let mut program = Benchmark::Jess
        .spec(InputSize::Small)
        .scaled(0.05)
        .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
    let m = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
    )
    .unwrap();
    inline_program(
        &mut program,
        Some(&m.outcomes[0].dcg),
        &NewLinearPolicy::default(),
        &InlineBudget::default(),
        true,
    );
    let scg = StaticCallGraph::build(&program);
    let m2 = measure(&program, VmConfig::default(), vec![]).unwrap();
    assert!(
        scg.violation(&m2.perfect).is_none(),
        "post-inlining profile violates the static graph"
    );
}

#[test]
fn profiles_round_trip_through_text() {
    let program = Benchmark::Db
        .spec(InputSize::Small)
        .scaled(0.05)
        .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
    let m = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
    )
    .unwrap();
    let dcg = &m.outcomes[0].dcg;
    let parsed = serialize::from_text(&serialize::to_text(dcg)).unwrap();
    assert_eq!(&parsed, dcg, "profile serialization must be lossless");
    // A deserialized profile drives the inliner identically.
    let mut a = program.clone();
    let mut b = program.clone();
    inline_program(
        &mut a,
        Some(dcg),
        &NewLinearPolicy::default(),
        &InlineBudget::default(),
        false,
    );
    inline_program(
        &mut b,
        Some(&parsed),
        &NewLinearPolicy::default(),
        &InlineBudget::default(),
        false,
    );
    assert_eq!(a, b);
}

trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}
