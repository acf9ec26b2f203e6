//! Cross-crate invariants of the profiling harness:
//!
//! * attaching many profilers to one run gives each exactly the results
//!   it would get alone (the Table 2 grid optimization is sound);
//! * the timer baseline coincides with CBS(stride=1, samples=1), the
//!   degenerate corner the paper identifies;
//! * profiling never perturbs program results or base cycle counts.

use cbs_repro::prelude::*;

fn workload() -> Program {
    Benchmark::Jess
        .spec(InputSize::Small)
        .scaled(0.05)
        .build_program()
}

trait BuildExt {
    fn build_program(&self) -> Program;
}
impl BuildExt for cbs_repro::workloads::WorkloadSpec {
    fn build_program(&self) -> Program {
        cbs_repro::workloads::generator::build(self).expect("spec builds")
    }
}

#[test]
fn multi_attach_equals_solo_runs() {
    let program = workload();

    // Solo runs.
    let solo_timer = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(TimerSampler::new())],
    )
    .unwrap();
    let solo_cbs = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
    )
    .unwrap();

    // Combined run.
    let both = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(TimerSampler::new()),
            Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))),
        ],
    )
    .unwrap();

    assert_eq!(solo_timer.exec, both.exec, "base run must be identical");
    let t_solo = &solo_timer.outcomes[0];
    let t_both = &both.outcomes[0];
    assert_eq!(t_solo.dcg, t_both.dcg, "timer DCG differs when co-attached");
    assert_eq!(t_solo.samples, t_both.samples);
    let c_solo = &solo_cbs.outcomes[0];
    let c_both = &both.outcomes[1];
    assert_eq!(c_solo.dcg, c_both.dcg, "cbs DCG differs when co-attached");
    assert!((c_solo.overhead_pct - c_both.overhead_pct).abs() < 1e-12);
}

#[test]
fn timer_equals_cbs_1_1() {
    // The paper: the original Jikes mechanism *is* the stride=1,
    // samples=1 corner of CBS. With a fixed initial skip of 1 event, the
    // two implementations must collect identical profiles.
    let program = workload();
    let m = measure(
        &program,
        VmConfig::default(),
        vec![
            Box::new(TimerSampler::new()),
            Box::new(CounterBasedSampler::new(CbsConfig {
                stride: 1,
                samples_per_tick: 1,
                skip_policy: SkipPolicy::Fixed,
                ..CbsConfig::default()
            })),
        ],
    )
    .unwrap();
    assert_eq!(
        m.outcomes[0].dcg, m.outcomes[1].dcg,
        "timer sampler and CBS(1,1) must see the same edges"
    );
    assert_eq!(m.outcomes[0].samples, m.outcomes[1].samples);
}

#[test]
fn profiling_does_not_perturb_execution() {
    let program = workload();
    let bare = Vm::new(&program, VmConfig::default())
        .run_unprofiled()
        .unwrap();
    let mut grid = MultiProfiler::new();
    for stride in [1, 3, 7] {
        for samples in [1, 8, 64] {
            grid.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(
                stride, samples,
            ))));
        }
    }
    let profiled = Vm::new(&program, VmConfig::default())
        .run(&mut grid)
        .unwrap();
    assert_eq!(bare, profiled, "observers must not change the observation");
}

#[test]
fn exhaustive_profile_counts_every_call() {
    let program = workload();
    let m = measure(&program, VmConfig::default(), vec![]).unwrap();
    assert_eq!(
        m.perfect.total_weight(),
        m.exec.calls as f64,
        "ground truth must count exactly the dynamic calls"
    );
}

#[test]
fn j9_flavor_sees_fewer_events_than_jikes() {
    // Jikes samples entries and exits; J9 entries only. Same program,
    // same CBS config: the Jikes-hosted sampler takes its window quota
    // from a denser event stream.
    let program = workload();
    let run = |flavor| {
        let m = measure(
            &program,
            VmConfig::with_flavor(flavor),
            vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
        )
        .unwrap();
        (m.outcomes[0].samples, m.outcomes[0].accuracy)
    };
    let (jikes_samples, jikes_acc) = run(VmFlavor::Jikes);
    let (j9_samples, j9_acc) = run(VmFlavor::J9);
    assert!(jikes_samples > 0 && j9_samples > 0);
    assert!((0.0..=100.0).contains(&jikes_acc));
    assert!((0.0..=100.0).contains(&j9_acc));
}

/// Forwards every hook and keeps the default `Profiler::armed`, so the
/// interpreter delivers every event — what every profiler got before
/// `armed` existed. Counts the deliveries the inner profiler had
/// declared it has no use for.
struct AlwaysArmed<P> {
    inner: P,
    idle_deliveries: u64,
}

impl<P: cbs_vm::Profiler> AlwaysArmed<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            idle_deliveries: 0,
        }
    }
}

impl<P: cbs_vm::Profiler> cbs_vm::Profiler for AlwaysArmed<P> {
    fn on_tick(&mut self, clock: u64, thread: cbs_vm::ThreadId, stack: cbs_vm::StackSlice<'_>) {
        self.inner.on_tick(clock, thread, stack);
    }
    fn on_entry(&mut self, event: &cbs_vm::CallEvent<'_>) {
        self.idle_deliveries += u64::from(!self.inner.armed(event.thread));
        self.inner.on_entry(event);
    }
    fn on_exit(&mut self, event: &cbs_vm::CallEvent<'_>) {
        self.idle_deliveries += u64::from(!self.inner.armed(event.thread));
        self.inner.on_exit(event);
    }
    fn on_finish(&mut self, clock: u64) {
        self.inner.on_finish(clock);
    }
}

/// Everything a sampler leaves behind, to the bit and in order: the
/// graph's edges and total, the sample count, the simulated overhead.
fn residue<P: CallGraphProfiler>(p: &P) -> (Vec<(CallEdge, u64)>, u64, u64, u64) {
    (
        p.dcg().iter().map(|(e, w)| (*e, w.to_bits())).collect(),
        p.dcg().total_weight().to_bits(),
        p.samples_taken(),
        p.overhead_cycles(),
    )
}

/// `Profiler::armed` only spares the interpreter events the profiler
/// would have ignored: for every workload, thread count and CBS mode,
/// the sampler on its own (gated) and the same sampler behind
/// [`AlwaysArmed`] end bit-identical — and the events the gate spared
/// were there to spare, unless the mode never disarms.
fn armed_gating_changes_nothing_a_sampler_keeps(flavor: VmFlavor) {
    for bench in Benchmark::all() {
        let program = bench.spec(InputSize::Small).scaled(0.01).build_program();
        for num_threads in [1, 3] {
            // A 2 500-cycle period: windows open by the dozen, and most
            // close before the next tick.
            let vm = Vm::new(
                &program,
                VmConfig {
                    flavor,
                    num_threads,
                    timer_hz: 4_000,
                    timer_jitter: 300,
                    ..VmConfig::default()
                },
            );
            let what = format!("{bench} {flavor:?} x{num_threads}");

            for (explicit_entry_check, context_sensitive) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let mk = || {
                    CounterBasedSampler::new(CbsConfig {
                        explicit_entry_check,
                        context_sensitive,
                        ..CbsConfig::new(3, 16)
                    })
                };
                let what = format!("{what} check={explicit_entry_check}");
                let mut gated = mk();
                let mut ungated = AlwaysArmed::new(mk());
                assert_eq!(
                    vm.run_with(&mut gated).unwrap(),
                    vm.run_with(&mut ungated).unwrap(),
                    "{what}: ExecReport"
                );
                assert_eq!(residue(&gated), residue(&ungated.inner), "{what}");
                let cct = |p: &CounterBasedSampler| {
                    p.cct().map(|t| {
                        t.iter()
                            .map(|(id, step, w)| (id, step, w.to_bits()))
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(cct(&gated), cct(&ungated.inner), "{what}: CCT");
                assert_eq!(cct(&gated).is_some(), context_sensitive);
                assert!(gated.samples_taken() > 0, "{what}: windows opened");
                assert_eq!(
                    ungated.idle_deliveries > 0,
                    !explicit_entry_check,
                    "{what}: an explicit entry check never disarms"
                );
            }

            let mut gated = TimerSampler::new();
            let mut ungated = AlwaysArmed::new(TimerSampler::new());
            assert_eq!(
                vm.run_with(&mut gated).unwrap(),
                vm.run_with(&mut ungated).unwrap(),
                "{what}: ExecReport under the timer sampler"
            );
            assert_eq!(residue(&gated), residue(&ungated.inner), "{what}: timer");
            assert!(gated.samples_taken() > 0, "{what}: the timer sampled");
            assert!(ungated.idle_deliveries > 0, "{what}: the timer disarms");
        }
    }
}

// One test per flavor, so the two halves of the sweep run side by side.
#[test]
fn armed_gating_changes_nothing_a_sampler_keeps_jikes() {
    armed_gating_changes_nothing_a_sampler_keeps(VmFlavor::Jikes);
}

#[test]
fn armed_gating_changes_nothing_a_sampler_keeps_j9() {
    armed_gating_changes_nothing_a_sampler_keeps(VmFlavor::J9);
}
