//! Call frames.

use crate::value::Value;
use cbs_bytecode::{CallSiteId, MethodId};

/// One activation record: locals, operand stack, and the bookkeeping a
/// stack walker needs.
#[derive(Debug, Clone)]
pub struct Frame {
    method: MethodId,
    pc: u32,
    locals: Vec<Value>,
    stack: Vec<Value>,
    /// The call site through which this frame called into the next inner
    /// frame (set while a call is in flight; cleared on return). This is
    /// what lets a stack walk attribute each frame pair to a call site.
    pending_site: Option<CallSiteId>,
}

impl Frame {
    /// Creates a frame for `method` with `num_locals` zeroed local slots.
    pub fn new(method: MethodId, num_locals: u16) -> Self {
        Self {
            method,
            pc: 0,
            locals: vec![Value::default(); usize::from(num_locals)],
            stack: Vec::new(),
            pending_site: None,
        }
    }

    /// Reinitializes a recycled frame as if freshly built by
    /// [`Frame::new`], reusing its allocations. Used by the interpreter's
    /// per-thread frame pool so a call does not heap-allocate.
    pub(crate) fn reset(&mut self, method: MethodId, num_locals: u16) {
        self.method = method;
        self.pc = 0;
        self.locals.clear();
        self.locals
            .resize(usize::from(num_locals), Value::default());
        self.stack.clear();
        self.pending_site = None;
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

    /// Sets the instruction index.
    #[inline]
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The in-flight call site, if this frame has called inward.
    #[inline]
    pub fn pending_site(&self) -> Option<CallSiteId> {
        self.pending_site
    }

    /// Records or clears the in-flight call site.
    #[inline]
    pub fn set_pending_site(&mut self, site: Option<CallSiteId>) {
        self.pending_site = site;
    }

    /// Local slots (read).
    #[inline]
    pub fn locals(&self) -> &[Value] {
        &self.locals
    }

    /// Local slots (write).
    #[inline]
    pub fn locals_mut(&mut self) -> &mut [Value] {
        &mut self.locals
    }

    /// Operand stack (read).
    #[inline]
    pub fn stack(&self) -> &[Value] {
        &self.stack
    }

    /// Pushes onto the operand stack.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.stack.push(v);
    }

    /// Pops from the operand stack.
    #[inline]
    pub fn pop(&mut self) -> Option<Value> {
        self.stack.pop()
    }

    /// Peeks `depth` values below the top (0 = top). `None` if too
    /// shallow.
    #[inline]
    pub fn peek(&self, depth: usize) -> Option<Value> {
        let len = self.stack.len();
        len.checked_sub(depth + 1).map(|i| self.stack[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_zeroes_locals() {
        let f = Frame::new(MethodId::new(1), 3);
        assert_eq!(f.locals(), &[Value::Int(0); 3]);
        assert_eq!(f.pc(), 0);
        assert_eq!(f.peek(0), None);
        assert_eq!(f.pending_site(), None);
    }

    #[test]
    fn push_pop_peek() {
        let mut f = Frame::new(MethodId::new(0), 0);
        f.push(Value::Int(1));
        f.push(Value::Int(2));
        assert_eq!(f.peek(0), Some(Value::Int(2)));
        assert_eq!(f.peek(1), Some(Value::Int(1)));
        assert_eq!(f.peek(2), None);
        assert_eq!(f.pop(), Some(Value::Int(2)));
        assert_eq!(f.pop(), Some(Value::Int(1)));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn pending_site_round_trip() {
        let mut f = Frame::new(MethodId::new(0), 0);
        f.set_pending_site(Some(CallSiteId::new(4)));
        assert_eq!(f.pending_site(), Some(CallSiteId::new(4)));
        f.set_pending_site(None);
        assert_eq!(f.pending_site(), None);
    }
}
