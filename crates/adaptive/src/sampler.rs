//! Hot-method detection via timer sampling.

use cbs_bytecode::MethodId;
use cbs_vm::{Profiler, StackSlice, ThreadId};

/// Records which method is executing at each timer tick — the classic
/// Jikes RVM "method listener" that drives recompilation decisions.
///
/// Note this is the *right* use of a time-based trigger: it estimates
/// where time is spent, which is exactly what recompilation wants (and
/// exactly what a DCG profiler must *not* use it for — §3.3).
#[derive(Debug, Default)]
pub struct HotMethodSampler {
    samples: Vec<u64>,
    total: u64,
}

impl HotMethodSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Timer samples attributed to `method`.
    pub fn samples_of(&self, method: MethodId) -> u64 {
        self.samples.get(method.index()).copied().unwrap_or(0)
    }

    /// Total timer samples taken.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Methods with at least `min_samples`, hottest first.
    pub fn hot_methods(&self, min_samples: u64) -> Vec<(MethodId, u64)> {
        let mut v: Vec<(MethodId, u64)> = self
            .samples
            .iter()
            .enumerate()
            .filter(|(_, &n)| n >= min_samples && n > 0)
            .map(|(i, &n)| (MethodId::new(i as u32), n))
            .collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clears all counts (e.g. between adaptive iterations with decay).
    pub fn reset(&mut self) {
        self.samples.clear();
        self.total = 0;
    }
}

impl Profiler for HotMethodSampler {
    fn on_tick(&mut self, _clock: u64, _thread: ThreadId, stack: StackSlice<'_>) {
        let m = stack.top().method;
        if m.index() >= self.samples.len() {
            self.samples.resize(m.index() + 1, 0);
        }
        self.samples[m.index()] += 1;
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_vm::Frame;

    #[test]
    fn attributes_ticks_to_top_of_stack() {
        let mut s = HotMethodSampler::new();
        let frames = vec![
            Frame::new(MethodId::new(0), 0, None),
            Frame::new(MethodId::new(3), 0, None),
        ];
        for _ in 0..5 {
            s.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
        }
        assert_eq!(s.samples_of(MethodId::new(3)), 5);
        assert_eq!(s.samples_of(MethodId::new(0)), 0);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn hot_methods_sorted_and_thresholded() {
        let mut s = HotMethodSampler::new();
        let a = vec![Frame::new(MethodId::new(1), 0, None)];
        let b = vec![Frame::new(MethodId::new(2), 0, None)];
        for _ in 0..3 {
            s.on_tick(0, ThreadId(0), StackSlice::for_testing(&a));
        }
        s.on_tick(0, ThreadId(0), StackSlice::for_testing(&b));
        assert_eq!(
            s.hot_methods(1),
            vec![(MethodId::new(1), 3), (MethodId::new(2), 1)]
        );
        assert_eq!(s.hot_methods(2).len(), 1);
        s.reset();
        assert_eq!(s.total(), 0);
    }
}
