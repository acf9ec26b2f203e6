//! Profiling events and the [`Profiler`] hook trait.
//!
//! The interpreter reports every dynamic event a production VM's profiling
//! hosting mechanism could observe: timer interrupts, method entries
//! (prologue yieldpoints / entry checks) and method exits (epilogue
//! yieldpoints; Jikes flavor only). Profilers decide — exactly as the
//! runtime logic of the paper's Figure 3 does — which events to act on,
//! and account for their own *simulated* cost, so many profiler
//! configurations can observe a single run without perturbing it or each
//! other.

use crate::frame::Frame;
use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, ContextStep};
use std::fmt;

/// Identifies a VM green thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Synthetic call site used for the entry frame of each thread, which has
/// no caller.
pub const ROOT_SITE: CallSiteId = CallSiteId(u32::MAX);

/// A read-only view of one thread's call stack at an event.
///
/// Walking the stack is how a sample is taken; the *simulated* cost of the
/// walk is charged by the profiler via its cost model, not by this type.
#[derive(Debug, Clone, Copy)]
pub struct StackSlice<'a> {
    frames: &'a [Frame],
}

/// One frame reported by a stack walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Executing method.
    pub method: MethodId,
    /// Current instruction index.
    pub pc: u32,
}

impl<'a> StackSlice<'a> {
    /// Wraps a frame stack (outermost first, as stored by the VM).
    pub(crate) fn new(frames: &'a [Frame]) -> Self {
        Self { frames }
    }

    /// Builds a stack view from raw frames, for testing profilers without
    /// running a VM. Real slices are only ever produced by the
    /// interpreter.
    #[doc(hidden)]
    pub fn for_testing(frames: &'a [Frame]) -> Self {
        Self { frames }
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Returns frame `i`, where 0 is the **innermost** (currently
    /// executing) frame. `None` when out of range.
    pub fn frame(&self, i: usize) -> Option<FrameInfo> {
        let idx = self.frames.len().checked_sub(i + 1)?;
        let f = &self.frames[idx];
        Some(FrameInfo {
            method: f.method(),
            pc: f.pc(),
        })
    }

    /// The innermost frame.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack, which the VM never reports.
    pub fn top(&self) -> FrameInfo {
        self.frame(0)
            .expect("events are never delivered on empty stacks")
    }

    /// The full calling context as [`ContextStep`]s, outermost first,
    /// without allocating.
    ///
    /// The entry frame's step uses the synthetic [`ROOT_SITE`], since it
    /// has no caller. This is the hot-path form of
    /// [`context_path`](Self::context_path): samplers that feed a calling
    /// context tree walk the iterator directly instead of materializing a
    /// `Vec<ContextStep>` per sample.
    pub fn context_steps(&self) -> impl Iterator<Item = ContextStep> + '_ {
        self.frames.iter().enumerate().map(|(i, f)| {
            let site = if i == 0 {
                ROOT_SITE
            } else {
                self.frames[i - 1]
                    .pending_site()
                    .expect("inner frames are reached through a call")
            };
            ContextStep {
                site,
                method: f.method(),
            }
        })
    }

    /// The full calling context as a `Vec<ContextStep>`, outermost first.
    ///
    /// Allocating convenience wrapper over
    /// [`context_steps`](Self::context_steps); prefer the iterator on
    /// per-sample paths.
    pub fn context_path(&self) -> Vec<ContextStep> {
        self.context_steps().collect()
    }
}

/// A method entry or exit observed by the hosting mechanism.
#[derive(Debug, Clone, Copy)]
pub struct CallEvent<'a> {
    /// The dynamic call edge (for an exit event: the edge being returned
    /// across).
    pub edge: CallEdge,
    /// Virtual clock at the event.
    pub clock: u64,
    /// Thread on which the event occurred.
    pub thread: ThreadId,
    /// The thread's stack, innermost frame = the callee.
    pub stack: StackSlice<'a>,
}

/// A call-graph profiler plugged into the VM.
///
/// All methods default to no-ops so a profiler implements only the events
/// its mechanism can observe. Implementations accumulate their own
/// simulated overhead (see `cbs-profiler`); the VM charges nothing on
/// their behalf.
pub trait Profiler {
    /// A timer interrupt fired at `clock` while `thread` was executing
    /// with the given stack.
    fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
        let _ = (clock, thread, stack);
    }

    /// A method was entered (prologue yieldpoint / entry check).
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        let _ = event;
    }

    /// A method is about to return (epilogue yieldpoint). Only delivered
    /// by the Jikes flavor.
    fn on_exit(&mut self, event: &CallEvent<'_>) {
        let _ = event;
    }

    /// Whether entry and exit events on `thread` can matter to this
    /// profiler right now — the paper's overloaded check (§4, Figures
    /// 3–4): a disarmed sampler rides a test the VM already makes, so
    /// its idle path costs nothing.
    ///
    /// While this answers `false` the interpreter materialises no
    /// [`CallEvent`] and delivers neither [`on_entry`](Self::on_entry)
    /// nor [`on_exit`](Self::on_exit) for that thread. It asks again
    /// when a thread is scheduled and after every `on_tick`, `on_entry`
    /// and `on_exit` it delivers, so the answer may change only inside
    /// those hooks. A profiler whose hooks would ignore the event anyway
    /// may answer `false`; the default, `true`, sees every event.
    fn armed(&self, thread: ThreadId) -> bool {
        let _ = thread;
        true
    }

    /// The run completed successfully at `clock`. Delivered exactly once,
    /// after the last thread finishes and before the VM builds its
    /// report. Profilers that buffer samples (e.g. CBS window batches)
    /// flush them here so post-run graph reads observe every sample; it
    /// is not delivered when the run traps.
    fn on_finish(&mut self, clock: u64) {
        let _ = clock;
    }
}

/// A profiler that observes nothing: the baseline configuration against
/// which overhead is measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    #[inline]
    fn armed(&self, _thread: ThreadId) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn frame(method: u32, pc: u32, pending: Option<u32>) -> Frame {
        let mut f = Frame::new(MethodId::new(method), 0);
        f.set_pc(pc);
        if let Some(s) = pending {
            f.set_pending_site(Some(CallSiteId::new(s)));
        }
        f
    }

    #[test]
    fn stack_slice_indexes_innermost_first() {
        let frames = vec![
            frame(0, 5, Some(1)),
            frame(1, 2, Some(3)),
            frame(2, 0, None),
        ];
        let s = StackSlice::new(&frames);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.top().method, MethodId::new(2));
        assert_eq!(s.frame(2).unwrap().method, MethodId::new(0));
        assert!(s.frame(3).is_none());
    }

    #[test]
    fn context_path_is_outermost_first_with_root_site() {
        let frames = vec![
            frame(0, 5, Some(1)),
            frame(1, 2, Some(3)),
            frame(2, 0, None),
        ];
        let s = StackSlice::new(&frames);
        let path = s.context_path();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].site, ROOT_SITE);
        assert_eq!(path[0].method, MethodId::new(0));
        assert_eq!(path[1].site, CallSiteId::new(1));
        assert_eq!(path[2].site, CallSiteId::new(3));
        assert_eq!(path[2].method, MethodId::new(2));
    }

    #[test]
    fn null_profiler_ignores_everything() {
        let mut p = NullProfiler;
        let frames = vec![frame(0, 0, None)];
        p.on_tick(1, ThreadId(0), StackSlice::new(&frames));
        assert!(!p.armed(ThreadId(0)));
        // No state, nothing to assert beyond "did not panic".
    }
}
