//! Counter-based sampling — the paper's contribution (§4).
//!
//! Sampling is triggered by the timer, but instead of one sample per
//! interrupt, a *window* opens in which every `stride`-th
//! invocation event is sampled until `samples_per_tick` samples have been
//! taken; then the mechanism disarms until the next tick. The logic below
//! is the pseudocode of the paper's Figure 3, with the initial skip count
//! optionally randomized or rotated (round-robin) over `[1..=stride]` so
//! every call in the window has an equal chance of being profiled.

use crate::costs::{OverheadMeter, ProfilingCosts};
use crate::traits::CallGraphProfiler;
use cbs_dcg::{CallEdge, CallingContextTree, DynamicCallGraph};
use cbs_prng::SmallRng;
use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId};

/// How the initial `skipped_invocations` counter of each window is chosen
/// (paper §4: "via either a pseudo-random number generator or a
/// round-robin approach").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipPolicy {
    /// Always start at `stride` (the plain Figure 3 pseudocode).
    Fixed,
    /// Uniformly random in `[1..=stride]`, seeded for reproducibility.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Rotates through `1, 2, …, stride, 1, …` across windows.
    RoundRobin,
}

/// Configuration of a [`CounterBasedSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct CbsConfig {
    /// Sample every `stride`-th invocation event within a window (`i` in
    /// the paper). Must be ≥ 1.
    pub stride: u32,
    /// Samples taken per timer interrupt (`N` in the paper). Must be ≥ 1.
    pub samples_per_tick: u32,
    /// Initial-skip selection policy.
    pub skip_policy: SkipPolicy,
    /// Model a VM that cannot overload an existing method-entry check and
    /// must pay three instructions on every entry (§4 "Implementation
    /// Options"). When `false` (the default, matching Jikes RVM and J9),
    /// an idle sampler costs nothing.
    pub explicit_entry_check: bool,
    /// Additionally record full stack walks into a
    /// [`CallingContextTree`] (the context-sensitive extension).
    pub context_sensitive: bool,
    /// Cost model for overhead accounting.
    pub costs: ProfilingCosts,
}

impl Default for CbsConfig {
    fn default() -> Self {
        Self {
            stride: 3,
            samples_per_tick: 16,
            skip_policy: SkipPolicy::RoundRobin,
            explicit_entry_check: false,
            context_sensitive: false,
            costs: ProfilingCosts::default(),
        }
    }
}

impl CbsConfig {
    /// Convenience constructor for the two headline parameters.
    pub fn new(stride: u32, samples_per_tick: u32) -> Self {
        Self {
            stride,
            samples_per_tick,
            ..Self::default()
        }
    }
}

/// Per-thread sampling state.
///
/// The paper keeps *all* CBS counters in thread-local variables ("to
/// avoid potential scalability issues or race conditions"), so the
/// round-robin cursor and the randomized-skip RNG live here too: each
/// thread walks its own deterministic skip sequence regardless of how
/// thread events interleave.
#[derive(Debug, Clone)]
struct WindowState {
    enabled: bool,
    skipped: u32,
    samples_left: u32,
    /// Next round-robin initial skip (1..=stride), per thread.
    round_robin_next: u32,
    /// Per-thread RNG for [`SkipPolicy::Random`], seeded from the policy
    /// seed and the thread index.
    rng: SmallRng,
}

impl WindowState {
    fn new(seed: u64, thread_index: usize) -> Self {
        Self {
            enabled: false,
            skipped: 0,
            samples_left: 0,
            round_robin_next: 1,
            rng: SmallRng::seed_for_stream(seed, thread_index as u64),
        }
    }

    /// Draws the initial skip count for a new window (paper §4: "via
    /// either a pseudo-random number generator or a round-robin
    /// approach").
    fn initial_skip(&mut self, policy: &SkipPolicy, stride: u32) -> u32 {
        match policy {
            SkipPolicy::Fixed => stride,
            SkipPolicy::Random { .. } => self.rng.gen_range(1..=stride),
            SkipPolicy::RoundRobin => {
                let v = self.round_robin_next;
                self.round_robin_next = if v >= stride { 1 } else { v + 1 };
                v
            }
        }
    }
}

/// The counter-based sampler (CBS).
///
/// Implements [`cbs_vm::Profiler`]; attach it to a [`Vm`](cbs_vm::Vm) run
/// and read the resulting [`DynamicCallGraph`] afterwards.
///
/// Counters are kept per thread, as in the J9 implementation ("thread-local
/// variables are used for the counters to avoid potential scalability
/// issues or race conditions").
#[derive(Debug)]
pub struct CounterBasedSampler {
    config: CbsConfig,
    threads: Vec<WindowState>,
    dcg: DynamicCallGraph,
    /// Sampled edges not yet flushed into `dcg`. Samples are buffered
    /// while windows are open and flushed in batches
    /// ([`DynamicCallGraph::record_batch`]) when a window closes, when
    /// the run finishes, and on [`CallGraphProfiler::take_dcg`] — so the
    /// per-sample cost inside a window is one `Vec` push. Unit sample
    /// weights sum exactly, so the resulting graph is identical to
    /// per-sample recording no matter how the batches split.
    pending: Vec<CallEdge>,
    cct: Option<CallingContextTree>,
    meter: OverheadMeter,
    samples: u64,
    /// Seed for per-thread RNG streams (from [`SkipPolicy::Random`]).
    seed: u64,
}

impl CounterBasedSampler {
    /// Creates a sampler with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `samples_per_tick` is zero.
    pub fn new(config: CbsConfig) -> Self {
        assert!(config.stride >= 1, "stride must be >= 1");
        assert!(
            config.samples_per_tick >= 1,
            "samples_per_tick must be >= 1"
        );
        let seed = match config.skip_policy {
            SkipPolicy::Random { seed } => seed,
            _ => 0,
        };
        let cct = config.context_sensitive.then(CallingContextTree::new);
        Self {
            config,
            threads: Vec::new(),
            dcg: DynamicCallGraph::new(),
            pending: Vec::new(),
            cct,
            meter: OverheadMeter::new(),
            samples: 0,
            seed,
        }
    }

    /// Flushes buffered window samples into the graph.
    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            self.dcg.record_batch(&self.pending);
            self.pending.clear();
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CbsConfig {
        &self.config
    }

    /// The calling context tree, when `context_sensitive` was enabled.
    pub fn cct(&self) -> Option<&CallingContextTree> {
        self.cct.as_ref()
    }

    fn state(&mut self, thread: ThreadId) -> &mut WindowState {
        let idx = thread.index();
        while idx >= self.threads.len() {
            let t = self.threads.len();
            self.threads.push(WindowState::new(self.seed, t));
        }
        &mut self.threads[idx]
    }

    /// Shared handling of entry and exit invocation events: the Figure 3
    /// countdown.
    fn on_invocation_event(&mut self, event: &CallEvent<'_>) {
        let enabled = {
            let st = self.state(event.thread);
            st.enabled
        };
        if !enabled {
            return; // common case: the overloaded check falls through free
        }
        self.meter.charge(self.config.costs.countdown_millicycles);
        let take = {
            let st = self.state(event.thread);
            st.skipped = st.skipped.saturating_sub(1);
            st.skipped == 0
        };
        if !take {
            return;
        }
        // sampleCallStack(): walk the stack, update the repository —
        // deeper stacks cost more to walk.
        self.meter.charge(
            self.config
                .costs
                .sample_cost_millicycles(event.stack.depth()),
        );
        self.samples += 1;
        crate::metrics::CbsMetrics::get().samples.inc();
        self.pending.push(event.edge);
        if let Some(cct) = &mut self.cct {
            cct.add_sample_iter(event.stack.context_steps());
        }
        let policy = self.config.skip_policy.clone();
        let stride = self.config.stride;
        let st = self.state(event.thread);
        st.samples_left = st.samples_left.saturating_sub(1);
        if st.samples_left == 0 {
            st.enabled = false; // disable until next timer interrupt
            self.flush_pending();
        } else {
            // Figure 3 resets to STRIDE; randomized policies re-draw so
            // window positions stay unbiased. The draw comes from this
            // thread's own cursor/RNG, so per-thread skip sequences do
            // not depend on how threads interleave.
            st.skipped = st.initial_skip(&policy, stride);
        }
    }
}

impl Profiler for CounterBasedSampler {
    fn on_tick(&mut self, _clock: u64, thread: ThreadId, _stack: StackSlice<'_>) {
        self.meter
            .charge(self.config.costs.tick_service_millicycles);
        let policy = self.config.skip_policy.clone();
        let stride = self.config.stride;
        let samples = self.config.samples_per_tick;
        let st = self.state(thread);
        if !st.enabled {
            st.enabled = true;
            st.samples_left = samples;
            st.skipped = st.initial_skip(&policy, stride);
            crate::metrics::CbsMetrics::get().windows.inc();
        }
        // If a window is still open (it outlived the timer period), the
        // flag is already true and sampling simply continues — the
        // emergent "continuous sampling" regime of very large
        // stride × samples products.
    }

    fn on_entry(&mut self, event: &CallEvent<'_>) {
        if self.config.explicit_entry_check {
            self.meter.charge(self.config.costs.entry_check_millicycles);
        }
        self.on_invocation_event(event);
    }

    fn on_exit(&mut self, event: &CallEvent<'_>) {
        // Delivered only under the Jikes flavor, where epilogue
        // yieldpoints are taken during a window.
        self.on_invocation_event(event);
    }

    fn on_finish(&mut self, _clock: u64) {
        // A window that outlives the run would otherwise strand its
        // buffered samples.
        self.flush_pending();
    }

    /// Figure 3's overloaded check: armed while the thread's window is
    /// open. A VM that cannot overload an existing check pays its
    /// explicit one on every entry, so that configuration never disarms.
    #[inline]
    fn armed(&self, thread: ThreadId) -> bool {
        self.config.explicit_entry_check
            || self
                .threads
                .get(thread.index())
                .is_some_and(|st| st.enabled)
    }
}

impl CallGraphProfiler for CounterBasedSampler {
    fn name(&self) -> String {
        format!(
            "cbs(stride={},samples={})",
            self.config.stride, self.config.samples_per_tick
        )
    }

    fn dcg(&self) -> &DynamicCallGraph {
        &self.dcg
    }

    fn take_dcg(&mut self) -> DynamicCallGraph {
        self.flush_pending();
        std::mem::take(&mut self.dcg)
    }

    fn overhead_cycles(&self) -> u64 {
        self.meter.cycles()
    }

    fn samples_taken(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_dcg::CallEdge;
    use cbs_vm::{Frame, ThreadId};

    fn event_frames() -> Vec<Frame> {
        let mut outer = Frame::new(MethodId::new(0), 0);
        outer.set_pending_site(Some(CallSiteId::new(0)));
        vec![outer, Frame::new(MethodId::new(1), 0)]
    }

    fn fire_entry(s: &mut CounterBasedSampler, frames: &[Frame], callee: u32) {
        let ev = CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(callee)),
            clock: 0,
            thread: ThreadId(0),
            stack: stack_slice(frames),
        };
        s.on_entry(&ev);
    }

    fn stack_slice(frames: &[Frame]) -> StackSlice<'_> {
        StackSlice::for_testing(frames)
    }

    #[test]
    #[should_panic(expected = "stride must be >= 1")]
    fn zero_stride_rejected() {
        let _ = CounterBasedSampler::new(CbsConfig::new(0, 1));
    }

    #[test]
    fn idle_sampler_is_free_and_empty() {
        let mut s = CounterBasedSampler::new(CbsConfig::new(3, 4));
        let frames = event_frames();
        for _ in 0..100 {
            fire_entry(&mut s, &frames, 1);
        }
        assert_eq!(s.overhead_cycles(), 0, "no window open: zero overhead");
        assert!(s.dcg().is_empty());
        assert_eq!(s.samples_taken(), 0);
    }

    #[test]
    fn window_takes_exactly_samples_per_tick() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            stride: 3,
            samples_per_tick: 4,
            skip_policy: SkipPolicy::Fixed,
            ..CbsConfig::default()
        });
        let frames = event_frames();
        s.on_tick(0, ThreadId(0), stack_slice(&frames));
        for _ in 0..100 {
            fire_entry(&mut s, &frames, 1);
        }
        assert_eq!(s.samples_taken(), 4);
        assert_eq!(s.dcg().total_weight(), 4.0);
    }

    #[test]
    fn fixed_policy_samples_every_stride_th_event() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            stride: 5,
            samples_per_tick: 2,
            skip_policy: SkipPolicy::Fixed,
            ..CbsConfig::default()
        });
        let frames = event_frames();
        s.on_tick(0, ThreadId(0), stack_slice(&frames));
        // Events 1..=4 skipped, 5th sampled, 6..9 skipped, 10th sampled.
        for i in 1..=10u32 {
            fire_entry(&mut s, &frames, i);
        }
        let callees: Vec<u32> = s.dcg().iter().map(|(e, _)| u32::from(e.callee)).collect();
        let mut sorted = callees.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![5, 10]);
    }

    #[test]
    fn explicit_entry_check_charges_every_entry() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            explicit_entry_check: true,
            ..CbsConfig::new(3, 4)
        });
        let frames = event_frames();
        for _ in 0..1000 {
            fire_entry(&mut s, &frames, 1);
        }
        let expected = 1000 * s.config().costs.entry_check_millicycles / 1000;
        assert_eq!(s.overhead_cycles(), expected);
    }

    #[test]
    fn round_robin_rotates_initial_skip() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            stride: 3,
            samples_per_tick: 1,
            skip_policy: SkipPolicy::RoundRobin,
            ..CbsConfig::default()
        });
        let frames = event_frames();
        // Window 1: initial skip 1 → first event sampled.
        s.on_tick(0, ThreadId(0), stack_slice(&frames));
        fire_entry(&mut s, &frames, 1);
        assert_eq!(s.samples_taken(), 1);
        // Window 2: initial skip 2 → second event sampled.
        s.on_tick(1, ThreadId(0), stack_slice(&frames));
        fire_entry(&mut s, &frames, 2);
        assert_eq!(s.samples_taken(), 1, "first event of window 2 skipped");
        fire_entry(&mut s, &frames, 3);
        assert_eq!(s.samples_taken(), 2);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = CounterBasedSampler::new(CbsConfig {
                stride: 7,
                samples_per_tick: 3,
                skip_policy: SkipPolicy::Random { seed },
                ..CbsConfig::default()
            });
            let frames = event_frames();
            s.on_tick(0, ThreadId(0), stack_slice(&frames));
            for i in 0..50 {
                fire_entry(&mut s, &frames, i);
            }
            s.dcg()
                .edges_by_weight()
                .iter()
                .map(|(e, _)| u32::from(e.callee))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn per_thread_windows_are_independent() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            stride: 1,
            samples_per_tick: 1,
            skip_policy: SkipPolicy::Fixed,
            ..CbsConfig::default()
        });
        let frames = event_frames();
        s.on_tick(0, ThreadId(1), stack_slice(&frames));
        // Thread 0 has no window: its events must not be sampled.
        let ev0 = CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(9)),
            clock: 0,
            thread: ThreadId(0),
            stack: stack_slice(&frames),
        };
        s.on_entry(&ev0);
        assert_eq!(s.samples_taken(), 0);
        // Thread 1's window is armed.
        let ev1 = CallEvent {
            thread: ThreadId(1),
            ..ev0
        };
        s.on_entry(&ev1);
        assert_eq!(s.samples_taken(), 1);
    }

    /// Regression test: the round-robin cursor (and the Random-policy
    /// RNG) must be per-thread state, not sampler-global — otherwise the
    /// skip sequence each thread sees depends on how thread events
    /// happen to interleave.
    #[test]
    fn per_thread_skip_sequences_are_interleaving_independent() {
        let configs = [SkipPolicy::RoundRobin, SkipPolicy::Random { seed: 99 }];
        for policy in configs {
            let config = CbsConfig {
                stride: 3,
                samples_per_tick: 2,
                skip_policy: policy,
                ..CbsConfig::default()
            };
            let frames = event_frames();

            // Reference: thread 1 running alone, four windows. Record
            // which event positions get sampled (as callee ids).
            let solo = |thread: u32| {
                let mut s = CounterBasedSampler::new(config.clone());
                let mut sampled = Vec::new();
                for window in 0..4u32 {
                    s.on_tick(u64::from(window), ThreadId(thread), stack_slice(&frames));
                    for i in 0..12u32 {
                        let before = s.samples_taken();
                        let ev = CallEvent {
                            edge: CallEdge::new(
                                MethodId::new(0),
                                CallSiteId::new(0),
                                MethodId::new(window * 100 + i),
                            ),
                            clock: 0,
                            thread: ThreadId(thread),
                            stack: stack_slice(&frames),
                        };
                        s.on_entry(&ev);
                        if s.samples_taken() > before {
                            sampled.push(window * 100 + i);
                        }
                    }
                }
                sampled
            };

            // Interleaved: the same event streams for threads 0 and 1,
            // with thread 0's events injected between every thread-1
            // event (and vice versa).
            let interleaved = {
                let mut s = CounterBasedSampler::new(config.clone());
                let mut sampled = vec![Vec::new(), Vec::new()];
                for window in 0..4u32 {
                    for t in [0u32, 1] {
                        s.on_tick(u64::from(window), ThreadId(t), stack_slice(&frames));
                    }
                    for i in 0..12u32 {
                        for t in [0u32, 1] {
                            let before = s.samples_taken();
                            let ev = CallEvent {
                                edge: CallEdge::new(
                                    MethodId::new(0),
                                    CallSiteId::new(0),
                                    MethodId::new(window * 100 + i),
                                ),
                                clock: 0,
                                thread: ThreadId(t),
                                stack: stack_slice(&frames),
                            };
                            s.on_entry(&ev);
                            if s.samples_taken() > before {
                                sampled[t as usize].push(window * 100 + i);
                            }
                        }
                    }
                }
                sampled
            };

            assert_eq!(
                interleaved[0],
                solo(0),
                "{:?}: thread 0's sample positions changed under interleaving",
                config.skip_policy
            );
            assert_eq!(
                interleaved[1],
                solo(1),
                "{:?}: thread 1's sample positions changed under interleaving",
                config.skip_policy
            );
        }
    }

    #[test]
    fn random_policy_threads_use_distinct_streams() {
        // Two threads with the same seed must not mirror each other's
        // skip sequence (they get derived per-thread streams).
        let config = CbsConfig {
            stride: 7,
            samples_per_tick: 1,
            skip_policy: SkipPolicy::Random { seed: 5 },
            ..CbsConfig::default()
        };
        let frames = event_frames();
        let mut s = CounterBasedSampler::new(config);
        let mut first_sampled = [0u32; 2];
        for t in [0u32, 1] {
            for window in 0..8u32 {
                s.on_tick(u64::from(window), ThreadId(t), stack_slice(&frames));
                for i in 0..7u32 {
                    let before = s.samples_taken();
                    let ev = CallEvent {
                        edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(i)),
                        clock: 0,
                        thread: ThreadId(t),
                        stack: stack_slice(&frames),
                    };
                    s.on_entry(&ev);
                    if s.samples_taken() > before {
                        // Accumulate a fingerprint of sampled positions.
                        first_sampled[t as usize] = first_sampled[t as usize] * 7 + i + 1;
                    }
                }
            }
        }
        assert_ne!(
            first_sampled[0], first_sampled[1],
            "per-thread Random streams should differ"
        );
    }

    /// Window samples are buffered and batch-flushed; a window that is
    /// still open when the run ends must flush on `on_finish` (the VM
    /// delivers it once on successful completion), and `take_dcg` must
    /// also flush for profilers driven outside a VM run.
    #[test]
    fn open_window_samples_flush_on_finish_and_take() {
        use crate::traits::CallGraphProfiler as _;
        let mk = || {
            let mut s = CounterBasedSampler::new(CbsConfig {
                stride: 1,
                samples_per_tick: 100, // window stays open
                skip_policy: SkipPolicy::Fixed,
                ..CbsConfig::default()
            });
            let frames = event_frames();
            s.on_tick(0, ThreadId(0), stack_slice(&frames));
            for i in 0..5 {
                fire_entry(&mut s, &frames, i);
            }
            assert_eq!(s.samples_taken(), 5);
            s
        };

        let mut s = mk();
        assert!(s.dcg().is_empty(), "samples still buffered mid-window");
        s.on_finish(123);
        assert_eq!(s.dcg().total_weight(), 5.0);

        let mut s = mk();
        let dcg = s.take_dcg();
        assert_eq!(dcg.total_weight(), 5.0, "take_dcg flushes the buffer");
    }

    #[test]
    fn context_sensitive_mode_builds_cct() {
        let mut s = CounterBasedSampler::new(CbsConfig {
            stride: 1,
            samples_per_tick: 8,
            context_sensitive: true,
            skip_policy: SkipPolicy::Fixed,
            ..CbsConfig::default()
        });
        let frames = event_frames();
        s.on_tick(0, ThreadId(0), stack_slice(&frames));
        fire_entry(&mut s, &frames, 1);
        let cct = s.cct().expect("context tree enabled");
        assert!(cct.num_nodes() > 1);
        assert_eq!(cct.total_weight(), 1.0);
    }

    #[test]
    fn name_encodes_parameters() {
        let s = CounterBasedSampler::new(CbsConfig::new(7, 32));
        assert_eq!(s.name(), "cbs(stride=7,samples=32)");
    }
}
