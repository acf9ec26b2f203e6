//! Call frames.

use cbs_bytecode::{CallSiteId, MethodId};

/// One activation record: what a stack walker reads, plus where the
/// frame's locals start on its thread's value stack.
///
/// A thread keeps every frame's locals and operands in one value stack:
/// a frame's locals begin at its `base` (its arguments are its first
/// locals, left there by the caller) and its operands follow them.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    method: MethodId,
    pc: u32,
    /// The call site through which this frame called into the next inner
    /// frame (set while a call is in flight; cleared on return). This is
    /// what lets a stack walk attribute each frame pair to a call site.
    pending_site: Option<CallSiteId>,
    base: usize,
}

impl Frame {
    /// A frame of `method` stopped at `pc`, having called inward through
    /// `pending_site`; for building stacks to show a profiler without
    /// running a VM.
    pub fn new(method: MethodId, pc: u32, pending_site: Option<CallSiteId>) -> Self {
        Self {
            method,
            pc,
            pending_site,
            base: 0,
        }
    }

    /// A frame entering `method`, its locals starting at `base`.
    #[inline]
    pub(crate) fn entering(method: MethodId, base: usize) -> Self {
        Self {
            method,
            pc: 0,
            pending_site: None,
            base,
        }
    }

    /// The executing method.
    #[inline]
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// Current instruction index.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The in-flight call site, if this frame has called inward.
    #[inline]
    pub fn pending_site(&self) -> Option<CallSiteId> {
        self.pending_site
    }

    /// Sets the instruction index.
    #[inline]
    pub(crate) fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Records or clears the in-flight call site.
    #[inline]
    pub(crate) fn set_pending_site(&mut self, site: Option<CallSiteId>) {
        self.pending_site = site;
    }

    /// Where this frame's locals start on the thread's value stack.
    #[inline]
    pub(crate) fn base(&self) -> usize {
        self.base
    }
}
