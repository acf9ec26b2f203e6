//! Attach many profilers to one run.
//!
//! Because every profiler accounts for its own *simulated* overhead and
//! the VM's base clock is profiler-independent, a whole set of profilers
//! (Table 2's Stride × Samples grid, a fleet's sampler replicas) can
//! observe a single deterministic interpretation. The timer is the VM's
//! and the countdown is the profiler's (§4), so each attached profiler
//! either shares the VM's timer or carries a [`TickSchedule`] of its own
//! and replays it against the events it observes. Either way it ends
//! exactly as it would alone — asserted by tests.

use crate::traits::CallGraphProfiler;
use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId, TickSchedule};

/// A fan-out profiler delivering every event to each attached profiler.
///
/// `P` is [`dyn CallGraphProfiler`](CallGraphProfiler) by default; a fan-out
/// of one concrete type (say, a fleet's [`CounterBasedSampler`]s) makes
/// every per-event call a static one.
///
/// A profiler attached with [`attach_with_timer`](Self::attach_with_timer)
/// ignores the VM's ticks and replays its own schedule: before each entry,
/// exit and `on_finish` it takes every tick due at or before the event's
/// clock, as a run of its own would have delivered them, and gets an event
/// only while it is armed. This is exact only on one thread, where a tick's
/// switch request resumes the thread it interrupted, so the executed
/// instructions and every event's clock are the same under any timer.
///
/// [`CounterBasedSampler`]: crate::CounterBasedSampler
pub struct MultiProfiler<P: ?Sized + CallGraphProfiler = dyn CallGraphProfiler> {
    attached: Vec<(Option<TickSchedule>, Box<P>)>,
    replays: bool,
}

impl<P: ?Sized + CallGraphProfiler> Default for MultiProfiler<P> {
    fn default() -> Self {
        Self {
            attached: Vec::new(),
            replays: false,
        }
    }
}

impl<P: ?Sized + CallGraphProfiler> std::fmt::Debug for MultiProfiler<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.attached.iter().map(|(_, p)| p.name()).collect();
        f.debug_struct("MultiProfiler")
            .field("profilers", &names)
            .finish()
    }
}

impl<P: ?Sized + CallGraphProfiler> MultiProfiler<P> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a profiler on the VM's timer, returning its index.
    pub fn attach(&mut self, profiler: Box<P>) -> usize {
        self.attached.push((None, profiler));
        self.attached.len() - 1
    }

    /// Attaches a profiler that replays `timer` instead of taking the
    /// VM's ticks, returning its index. It ends as it would in a run of
    /// its own under the configuration `timer` was built from. From then
    /// on the fan-out stays armed, so it sees every event, and it panics
    /// when asked about any thread but the first, as the VM does when it
    /// schedules one: with two threads each timer's switches interleave
    /// them differently.
    ///
    /// # Panics
    ///
    /// Panics if the profiler's `on_tick` reads the stack
    /// ([`CallGraphProfiler::tick_reads_stack`]): a replayed tick is
    /// shown the stack of the event it precedes, not its own.
    pub fn attach_with_timer(&mut self, profiler: Box<P>, timer: TickSchedule) -> usize {
        assert!(
            !profiler.tick_reads_stack(),
            "{} reads the stack at a tick, so it cannot replay a timer of its own",
            profiler.name()
        );
        self.replays = true;
        self.attached.push((Some(timer), profiler));
        self.attached.len() - 1
    }

    /// Shared access to one attached profiler.
    pub fn get(&self, index: usize) -> Option<&P> {
        self.attached.get(index).map(|(_, p)| p.as_ref())
    }

    /// Consumes the fan-out, returning the attached profilers in
    /// attachment order.
    pub fn into_inner(self) -> Vec<Box<P>> {
        self.attached.into_iter().map(|(_, p)| p).collect()
    }

    /// Hands `event` to each profiler. One with its own timer first takes
    /// the ticks due by then, and gets the event only while armed, as the
    /// VM would hand it on a run of its own; the others ignore events
    /// they are not armed for.
    fn deliver(&mut self, event: &CallEvent<'_>, hook: impl Fn(&mut P, &CallEvent<'_>)) {
        for (timer, profiler) in &mut self.attached {
            let profiler = profiler.as_mut();
            if let Some(timer) = timer {
                while timer.deadline() <= event.clock {
                    profiler.on_tick(timer.advance(), event.thread, event.stack);
                }
                if !profiler.armed(event.thread) {
                    continue;
                }
            }
            hook(profiler, event);
        }
    }
}

impl<P: ?Sized + CallGraphProfiler> Profiler for MultiProfiler<P> {
    fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
        for (timer, profiler) in &mut self.attached {
            if timer.is_none() {
                profiler.on_tick(clock, thread, stack);
            }
        }
    }

    fn on_entry(&mut self, event: &CallEvent<'_>) {
        self.deliver(event, P::on_entry);
    }

    fn on_exit(&mut self, event: &CallEvent<'_>) {
        self.deliver(event, P::on_exit);
    }

    /// Armed while any attached profiler is, or always once one replays
    /// its own timer: its ticks fall between events the VM cannot see.
    fn armed(&self, thread: ThreadId) -> bool {
        if self.replays {
            assert!(
                thread == ThreadId(0),
                "profilers with timers of their own observe one interpretation only on a single thread"
            );
            return true;
        }
        self.attached.iter().any(|(_, p)| p.armed(thread))
    }

    fn on_finish(&mut self, clock: u64) {
        for (timer, profiler) in &mut self.attached {
            if let Some(timer) = timer {
                while timer.deadline() <= clock {
                    profiler.on_tick(timer.advance(), ThreadId(0), StackSlice::default());
                }
            }
            profiler.on_finish(clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbs::{CbsConfig, CounterBasedSampler};
    use crate::exhaustive::ExhaustiveProfiler;
    use crate::pc::PcSampler;
    use crate::timer::TimerSampler;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_dcg::CallEdge;
    use cbs_vm::{Frame, VmConfig};

    fn event(frames: &[Frame], clock: u64) -> CallEvent<'_> {
        CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1)),
            clock,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(frames),
        }
    }

    #[test]
    fn fan_out_reaches_all() {
        let mut m = MultiProfiler::<dyn CallGraphProfiler>::new();
        m.attach(Box::new(ExhaustiveProfiler::new()));
        m.attach(Box::new(TimerSampler::new()));
        m.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(1, 1))));
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        m.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        m.on_entry(&event(&frames, 1));
        assert!(m.get(3).is_none());
        for p in m.into_inner() {
            assert_eq!(p.dcg().total_weight(), 1.0, "{}", p.name());
        }
    }

    /// An own timer's ticks due after the last event are replayed at
    /// `on_finish`, and the VM's ticks are not its own: the sampler ends
    /// charged for exactly the ticks a run of its own would have taken.
    #[test]
    fn on_finish_replays_the_ticks_due_after_the_last_event() {
        let config = VmConfig {
            timer_jitter: 0,
            ..VmConfig::default()
        };
        let period = config.timer_period();
        let mut m = MultiProfiler::new();
        m.attach_with_timer(Box::new(TimerSampler::new()), TickSchedule::new(&config));
        assert!(m.armed(ThreadId(0)), "a replaying fan-out sees every event");
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        m.on_entry(&event(&frames, period));
        m.on_tick(period + 1, ThreadId(0), StackSlice::for_testing(&frames));
        let after_event = m.get(0).unwrap().overhead_cycles();
        m.on_finish(4 * period);

        let mut alone = TimerSampler::new();
        for tick in 1..=4 {
            alone.on_tick(tick * period, ThreadId(0), StackSlice::default());
            if tick == 1 {
                alone.on_entry(&event(&frames, period));
            }
        }
        let replayed = m.get(0).unwrap();
        assert_eq!(replayed.samples_taken(), 1);
        assert_eq!(replayed.overhead_cycles(), alone.overhead_cycles());
        assert!(replayed.overhead_cycles() > after_event);
    }

    #[test]
    #[should_panic(expected = "cannot replay a timer of its own")]
    fn a_stack_reading_tick_refuses_a_timer_of_its_own() {
        let mut m = MultiProfiler::<dyn CallGraphProfiler>::new();
        let timer = TickSchedule::new(&VmConfig::default());
        m.attach_with_timer(Box::new(PcSampler::new()), timer);
    }
}
