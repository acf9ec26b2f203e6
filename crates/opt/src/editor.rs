//! Safe in-place code editing with jump-target maintenance.
//!
//! Optimizer passes mark instructions as removed or replace them; the
//! editor tracks which instruction indices are jump targets (multi-
//! instruction rewrites must not span a join point) and, between passes,
//! compacts the code in place, remapping every jump target to the first
//! surviving instruction at or after its old position.
//!
//! One editor serves every pass and iteration over a method body, and
//! the optimizer reuses it from method to method: [`CodeEditor::load`]
//! and [`CodeEditor::compact`] refill its buffers instead of allocating.
//! Every state change moves [`CodeEditor::version`], so a pass or an
//! analysis that saw some version can tell whether the code has moved
//! since.

use cbs_bytecode::Op;

/// An editable view of one method body.
#[derive(Debug, Default)]
pub(crate) struct CodeEditor {
    ops: Vec<Op>,
    removed: Vec<bool>,
    is_target: Vec<bool>,
    /// `remap[old]` during compaction; kept to reuse its allocation.
    remap: Vec<u32>,
    removals: usize,
    version: u64,
}

impl CodeEditor {
    /// Creates an editor over a method body.
    #[cfg(test)]
    pub(crate) fn new(code: &[Op]) -> Self {
        let mut editor = Self::default();
        editor.load(code);
        editor
    }

    /// Replaces the edited body with `code`, reusing the buffers.
    pub(crate) fn load(&mut self, code: &[Op]) {
        self.ops.clear();
        self.ops.extend_from_slice(code);
        self.reset_marks();
    }

    /// Clears the removal marks and recomputes the jump targets of
    /// `ops`, starting a new version.
    fn reset_marks(&mut self) {
        let len = self.ops.len();
        self.removed.clear();
        self.removed.resize(len, false);
        self.is_target.clear();
        self.is_target.resize(len, false);
        for op in &self.ops {
            if let Some(t) = op.jump_target() {
                if let Some(flag) = self.is_target.get_mut(t as usize) {
                    *flag = true;
                }
            }
        }
        self.removals = 0;
        self.version += 1;
    }

    /// Number of instructions (including removed ones).
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The instruction at `pc`, or `None` if it was removed.
    pub(crate) fn op(&self, pc: usize) -> Option<&Op> {
        if *self.removed.get(pc)? {
            None
        } else {
            self.ops.get(pc)
        }
    }

    /// Returns `true` if some jump targets instruction `pc`.
    ///
    /// A rewrite that fuses `pc` with its predecessor is only safe when
    /// `pc` is *not* a target (a jumping path would otherwise skip part of
    /// the fused semantics). Targets are those of the code as last loaded
    /// or compacted; edits since then do not move them.
    pub(crate) fn is_target(&self, pc: usize) -> bool {
        self.is_target.get(pc).copied().unwrap_or(false)
    }

    /// Marks `pc` removed. No-op if already removed.
    pub(crate) fn remove(&mut self, pc: usize) {
        if !self.removed[pc] {
            self.removed[pc] = true;
            self.removals += 1;
            self.version += 1;
        }
    }

    /// Replaces the instruction at `pc`.
    ///
    /// The replacement must have the same net stack effect along every
    /// path — passes are responsible for that invariant; the optimizer
    /// re-verifies every method it optimizes.
    pub(crate) fn replace(&mut self, pc: usize, op: Op) {
        if self.ops[pc] != op {
            self.ops[pc] = op;
            self.version += 1;
        }
    }

    /// A number that changes whenever the code, its removal marks or its
    /// jump targets do: within one editor, equal versions mean identical
    /// state.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Compacts the code in place, dropping removed instructions and
    /// remapping every jump target to the first surviving instruction at
    /// or after its old position, then recomputes the jump targets.
    pub(crate) fn compact(&mut self) {
        if self.removals > 0 {
            // remap[old] = index in the compacted code of the first
            // surviving instruction with position >= old.
            self.remap.clear();
            let mut count = 0u32;
            for &removed in &self.removed {
                self.remap.push(count);
                count += u32::from(!removed);
            }
            self.remap.push(count);
            let mut write = 0;
            for read in 0..self.ops.len() {
                if !self.removed[read] {
                    let op = self.ops[read];
                    self.ops[write] = match op.jump_target() {
                        Some(t) => op.with_jump_target(self.remap[t as usize]),
                        None => op,
                    };
                    write += 1;
                }
            }
            self.ops.truncate(write);
        }
        self.reset_marks();
    }

    /// The code as last loaded or compacted.
    ///
    /// # Panics
    ///
    /// Debug builds panic if removals are pending: call
    /// [`compact`](Self::compact) first.
    pub(crate) fn code(&self) -> &[Op] {
        debug_assert_eq!(self.removals, 0, "compact before reading");
        &self.ops
    }

    /// Compacts the code and returns it.
    #[cfg(test)]
    pub(crate) fn finish(mut self) -> Vec<Op> {
        self.compact();
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let code = vec![Op::Const(1), Op::JumpIfZero(0), Op::Return];
        let e = CodeEditor::new(&code);
        assert_eq!(e.finish(), code);
    }

    #[test]
    fn removal_remaps_forward_jumps() {
        // 0: jump @3 ; 1: nop(removed) ; 2: nop ; 3: return
        let code = vec![Op::Jump(3), Op::Nop, Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        e.remove(1);
        let out = e.finish();
        assert_eq!(out, vec![Op::Jump(2), Op::Nop, Op::Return]);
    }

    #[test]
    fn removing_a_target_retargets_to_next_survivor() {
        // 0: jump @2 ; 1: const ; 2: nop(removed, target) ; 3: return
        let code = vec![Op::Jump(2), Op::Const(1), Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        assert!(e.is_target(2));
        e.remove(2);
        let out = e.finish();
        assert_eq!(out, vec![Op::Jump(2), Op::Const(1), Op::Return]);
    }

    #[test]
    fn backedge_targets_remap() {
        // 0: nop(removed) ; 1: const ; 2: jnz @0
        let code = vec![Op::Nop, Op::Const(1), Op::JumpIfNonZero(0)];
        let mut e = CodeEditor::new(&code);
        e.remove(0);
        let out = e.finish();
        assert_eq!(out, vec![Op::Const(1), Op::JumpIfNonZero(0)]);
    }

    #[test]
    fn replace_moves_the_version_only_on_difference() {
        let code = vec![Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        let v = e.version();
        e.replace(0, Op::Nop);
        assert_eq!(e.version(), v, "identical replacement is not a change");
        e.replace(0, Op::Pop);
        assert_ne!(e.version(), v);
        assert_eq!(e.op(0), Some(&Op::Pop));
    }

    #[test]
    fn op_returns_none_for_removed() {
        let code = vec![Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        e.remove(0);
        assert_eq!(e.op(0), None);
        assert_eq!(e.op(1), Some(&Op::Return));
        assert_eq!(e.op(9), None);
    }

    #[test]
    fn compaction_in_place_allows_further_edits() {
        // 0: nop ; 1: jump @3 ; 2: const ; 3: nop ; 4: return
        let code = vec![Op::Nop, Op::Jump(3), Op::Const(1), Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        e.remove(0);
        e.remove(3);
        let v = e.version();
        e.compact();
        assert_ne!(e.version(), v, "compaction moves the version");
        assert_eq!(e.code(), &[Op::Jump(2), Op::Const(1), Op::Return]);
        assert!(e.is_target(2), "targets follow the compacted code");
        assert!(!e.is_target(3));
        e.remove(1);
        e.compact();
        assert_eq!(e.code(), &[Op::Jump(1), Op::Return]);
    }

    #[test]
    fn load_reuses_the_editor_for_another_body() {
        let mut e = CodeEditor::new(&[Op::Nop, Op::Return]);
        e.remove(0);
        let v = e.version();
        e.load(&[Op::Jump(1), Op::Return]);
        assert_ne!(e.version(), v);
        assert_eq!(e.op(0), Some(&Op::Jump(1)));
        assert!(e.is_target(1));
    }
}
