//! Deeper sampling-theory checks: the timer is a *time* profiler (correct
//! metric: exclusive time; wrong metric: call frequency), and the
//! randomized initial skip defends CBS against the §4 adversary.

#[path = "support/call_tree_tracer.rs"]
mod call_tree_tracer;

use call_tree_tracer::CallTreeTracer;
use cbs_repro::prelude::*;
use cbs_repro::workloads::adversarial;

/// The timer tick histogram over methods must converge to the exact
/// exclusive-time distribution — same trigger as the biased DCG sampler,
/// but pointed at the metric it actually estimates.
#[test]
fn tick_histogram_matches_exact_exclusive_time() {
    use cbs_repro::adaptive::HotMethodSampler;

    let overlap_at = |scale: f64| -> f64 {
        let program = Benchmark::Mtrt
            .spec(InputSize::Small)
            .scaled(scale)
            .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
        let mut tracer = CallTreeTracer::new();
        Vm::new(&program, VmConfig::default())
            .run_with(&mut tracer)
            .unwrap();
        let mut hot = HotMethodSampler::new();
        Vm::new(&program, VmConfig::default())
            .run_with(&mut hot)
            .unwrap();
        // Compare the two distributions with the paper's overlap idea:
        // Σ min(share_ticks, share_exclusive) over methods.
        let total_ticks = hot.total() as f64;
        let total_excl = tracer.total_exclusive() as f64;
        let mut overlap = 0.0;
        for (m, t) in tracer.by_exclusive() {
            let exact = 100.0 * t.exclusive as f64 / total_excl;
            let sampled = 100.0 * hot.samples_of(m) as f64 / total_ticks;
            overlap += exact.min(sampled);
        }
        overlap
    };
    // The tick histogram *converges* to the exact exclusive-time
    // distribution as the run (and thus the sample count) grows —
    // whereas the same ticks never converge to the call-frequency
    // distribution (Figure 1 / frequency-sweep experiments).
    let short = overlap_at(1.0);
    let long = overlap_at(4.0);
    assert!(
        long > short + 10.0,
        "no convergence: {short:.1} -> {long:.1}"
    );
    assert!(long > 60.0, "long-run overlap too low: {long:.1}");
}

/// §4's adversary: with the event pattern aligned to the stride, the
/// plain Figure 3 countdown (fixed initial skip) samples the same call
/// positions forever; round-robin skip selection de-biases it.
#[test]
fn round_robin_skip_defeats_stride_aliasing() {
    // 3 callees → 6 invocation events (entry+exit) per iteration under
    // the Jikes flavor; stride 3 divides 6, so a fixed skip revisits the
    // same two event positions in every window.
    // Iteration cost without padding is 67 cycles; 33 nops make it 100,
    // which divides the 100_000-cycle timer period: every (jitter-free)
    // tick lands at the same phase of the call pattern.
    let (program, handles) = adversarial::stride_aliasing(3, 200_000, 33).unwrap();

    let run = |policy: SkipPolicy| {
        let mut cbs = CounterBasedSampler::new(CbsConfig {
            stride: 3,
            samples_per_tick: 8,
            skip_policy: policy,
            ..CbsConfig::default()
        });
        // The adversary requires a perfectly periodic timer: production
        // jitter already de-aliases the window start, so disable it to
        // expose the §4 worst case the randomized skip defends against.
        let vm_config = VmConfig {
            timer_jitter: 0,
            ..VmConfig::default()
        };
        Vm::new(&program, vm_config).run_with(&mut cbs).unwrap();
        let dcg = cbs.dcg().clone();
        let shares: Vec<f64> = handles
            .callees
            .iter()
            .map(|&m| {
                if dcg.total_weight() == 0.0 {
                    0.0
                } else {
                    100.0 * dcg.incoming_weight(m) / dcg.total_weight()
                }
            })
            .collect();
        shares
    };

    let spread = |shares: &[f64]| {
        let max = shares.iter().cloned().fold(0.0, f64::max);
        let min = shares.iter().cloned().fold(100.0, f64::min);
        max - min
    };

    let fixed = run(SkipPolicy::Fixed);
    let rr = run(SkipPolicy::RoundRobin);
    let random = run(SkipPolicy::Random { seed: 7 });

    // Truth: all three callees are exactly equally hot. The rotation
    // policy retains a small deterministic residue correlation; the
    // random policy is the cleanest; the fixed policy collapses to two
    // of the three callees.
    assert!(
        spread(&rr) < 16.0,
        "round-robin should be near-uniform: {rr:?}"
    );
    assert!(
        spread(&random) < 12.0,
        "random skip should be near-uniform: {random:?}"
    );
    assert!(
        spread(&fixed) > 30.0,
        "fixed skip should alias hard: {fixed:?}"
    );
    assert!(spread(&fixed) > spread(&rr) + 15.0);
    assert!(spread(&fixed) > spread(&random) + 15.0);
}

/// Per-thread CBS windows stay independent under multi-threaded
/// round-robin scheduling.
#[test]
fn cbs_under_multithreaded_scheduling() {
    let program = Benchmark::Jbb
        .spec(InputSize::Small)
        .scaled(0.05)
        .pipe(|s| cbs_repro::workloads::generator::build(&s).unwrap());
    let config = VmConfig {
        num_threads: 4,
        ..VmConfig::default()
    };
    let m = measure(
        &program,
        config,
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
    )
    .unwrap();
    assert_eq!(m.exec.return_values.len(), 4);
    let cbs = &m.outcomes[0];
    assert!(cbs.samples > 0);
    assert!(
        cbs.accuracy > 30.0,
        "multithreaded sampling still converges: {}",
        cbs.accuracy
    );
}

trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}
