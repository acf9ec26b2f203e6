//! Attach many profiler configurations to one run.
//!
//! Because every profiler accounts for its own *simulated* overhead and
//! the VM's base clock is profiler-independent, a whole grid of sampler
//! configurations (e.g. Table 2's Stride × Samples sweep) can observe a
//! single deterministic interpretation. Each attached profiler behaves
//! exactly as it would alone — asserted by integration tests.

use crate::traits::CallGraphProfiler;
use cbs_vm::{CallEvent, Profiler, StackSlice, ThreadId};

/// A fan-out profiler delivering every event to each attached profiler.
#[derive(Default)]
pub struct MultiProfiler {
    profilers: Vec<Box<dyn CallGraphProfiler>>,
}

impl std::fmt::Debug for MultiProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiProfiler")
            .field("profilers", &self.names())
            .finish()
    }
}

impl MultiProfiler {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a profiler, returning its index.
    pub fn attach(&mut self, profiler: Box<dyn CallGraphProfiler>) -> usize {
        self.profilers.push(profiler);
        self.profilers.len() - 1
    }

    /// Number of attached profilers.
    pub fn len(&self) -> usize {
        self.profilers.len()
    }

    /// Returns `true` when nothing is attached.
    pub fn is_empty(&self) -> bool {
        self.profilers.is_empty()
    }

    /// Shared access to one attached profiler.
    pub fn get(&self, index: usize) -> Option<&dyn CallGraphProfiler> {
        self.profilers.get(index).map(|b| b.as_ref())
    }

    /// Mutable access to one attached profiler.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut (dyn CallGraphProfiler + 'static)> {
        self.profilers.get_mut(index).map(|b| b.as_mut())
    }

    /// Names of all attached profilers, in attachment order.
    pub fn names(&self) -> Vec<String> {
        self.profilers.iter().map(|p| p.name()).collect()
    }

    /// Iterates over the attached profilers.
    pub fn iter(&self) -> impl Iterator<Item = &dyn CallGraphProfiler> + '_ {
        self.profilers.iter().map(|b| b.as_ref())
    }

    /// Consumes the fan-out, returning the attached profilers.
    pub fn into_inner(self) -> Vec<Box<dyn CallGraphProfiler>> {
        self.profilers
    }

    /// Splits the fan-out into at most `num_shards` contiguous chunks,
    /// preserving attachment order across the concatenation of shards.
    ///
    /// Because attached profilers never interact (every profiler
    /// accounts only for its own simulated overhead against the
    /// profiler-independent base clock), running each shard in its own
    /// `Vm` observes the *same* events and produces the same per-profiler
    /// state as one mega-run — which is what lets the parallel experiment
    /// runner evaluate a configuration grid as independent cells.
    ///
    /// Earlier shards are at most one profiler larger than later ones.
    /// Fewer, non-empty shards are returned when there are fewer
    /// profilers than `num_shards`; `num_shards == 0` is treated as 1.
    pub fn into_shards(self, num_shards: usize) -> Vec<MultiProfiler> {
        let total = self.profilers.len();
        let shards = num_shards.max(1).min(total.max(1));
        let base = total / shards;
        let extra = total % shards;
        let mut iter = self.profilers.into_iter();
        (0..shards)
            .map(|s| {
                let size = base + usize::from(s < extra);
                MultiProfiler {
                    profilers: iter.by_ref().take(size).collect(),
                }
            })
            .filter(|m| !m.is_empty())
            .collect()
    }
}

impl Profiler for MultiProfiler {
    fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
        for p in &mut self.profilers {
            p.on_tick(clock, thread, stack);
        }
    }

    fn on_entry(&mut self, event: &CallEvent<'_>) {
        for p in &mut self.profilers {
            p.on_entry(event);
        }
    }

    fn on_exit(&mut self, event: &CallEvent<'_>) {
        for p in &mut self.profilers {
            p.on_exit(event);
        }
    }

    /// Armed while any attached profiler is: the others ignore the
    /// extra events exactly as they would alone.
    fn armed(&self, thread: ThreadId) -> bool {
        self.profilers.iter().any(|p| p.armed(thread))
    }

    fn on_finish(&mut self, clock: u64) {
        for p in &mut self.profilers {
            p.on_finish(clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbs::{CbsConfig, CounterBasedSampler};
    use crate::exhaustive::ExhaustiveProfiler;
    use crate::timer::TimerSampler;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_dcg::CallEdge;
    use cbs_vm::Frame;

    #[test]
    fn fan_out_reaches_all() {
        let mut m = MultiProfiler::new();
        let a = m.attach(Box::new(ExhaustiveProfiler::new()));
        let b = m.attach(Box::new(TimerSampler::new()));
        let c = m.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(1, 1))));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());

        let frames = vec![Frame::new(MethodId::new(0), 0)];
        m.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        let ev = CallEvent {
            edge: CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1)),
            clock: 1,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(&frames),
        };
        m.on_entry(&ev);
        assert_eq!(m.get(a).unwrap().dcg().total_weight(), 1.0);
        assert_eq!(m.get(b).unwrap().dcg().total_weight(), 1.0);
        assert_eq!(m.get(c).unwrap().dcg().total_weight(), 1.0);
        assert!(m.get(99).is_none());
    }

    #[test]
    fn names_in_attachment_order() {
        let mut m = MultiProfiler::new();
        m.attach(Box::new(TimerSampler::new()));
        m.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16))));
        assert_eq!(m.names(), vec!["timer", "cbs(stride=3,samples=16)"]);
    }

    #[test]
    fn into_inner_returns_profilers() {
        let mut m = MultiProfiler::new();
        m.attach(Box::new(TimerSampler::new()));
        let inner = m.into_inner();
        assert_eq!(inner.len(), 1);
    }

    fn grid(n: u32) -> MultiProfiler {
        let mut m = MultiProfiler::new();
        for stride in 1..=n {
            m.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(
                stride, 1,
            ))));
        }
        m
    }

    #[test]
    fn into_shards_preserves_order_and_balances() {
        let names = grid(7).names();
        let shards = grid(7).into_shards(3);
        assert_eq!(
            shards.iter().map(MultiProfiler::len).collect::<Vec<_>>(),
            vec![3, 2, 2],
            "earlier shards at most one larger"
        );
        let rejoined: Vec<String> = shards.iter().flat_map(|s| s.names()).collect();
        assert_eq!(rejoined, names, "concatenation preserves attachment order");
    }

    #[test]
    fn into_shards_edge_cases() {
        // More shards than profilers: one profiler per shard, no empties.
        let shards = grid(2).into_shards(5);
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.len() == 1));
        // Zero is treated as one.
        let shards = grid(3).into_shards(0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 3);
        // Empty fan-out shards to nothing.
        assert!(MultiProfiler::new().into_shards(4).is_empty());
    }
}
