//! Safe in-place code editing with jump-target maintenance.
//!
//! Optimizer passes mark instructions as removed or replace them; the
//! editor tracks which instruction indices are jump targets (multi-
//! instruction rewrites must not span a join point) and, when the edit is
//! finished, compacts the code and remaps every jump target to the first
//! surviving instruction at or after its old position.

use cbs_bytecode::Op;

/// An editable view of one method body.
#[derive(Debug)]
pub(crate) struct CodeEditor {
    ops: Vec<Op>,
    removed: Vec<bool>,
    is_target: Vec<bool>,
    changed: bool,
}

impl CodeEditor {
    /// Creates an editor over a method body.
    pub(crate) fn new(code: &[Op]) -> Self {
        let mut is_target = vec![false; code.len()];
        for op in code {
            if let Some(t) = op.jump_target() {
                if let Some(flag) = is_target.get_mut(t as usize) {
                    *flag = true;
                }
            }
        }
        Self {
            ops: code.to_vec(),
            removed: vec![false; code.len()],
            is_target,
            changed: false,
        }
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
    /// the fused semantics).
    pub(crate) fn is_target(&self, pc: usize) -> bool {
        self.is_target.get(pc).copied().unwrap_or(false)
    }

    /// Marks `pc` removed. No-op if already removed.
    pub(crate) fn remove(&mut self, pc: usize) {
        if !self.removed[pc] {
            self.removed[pc] = true;
            self.changed = true;
        }
    }

    /// Replaces the instruction at `pc`.
    ///
    /// The replacement must have the same net stack effect along every
    /// path — passes are responsible for that invariant; the pipeline
    /// re-verifies after each pass in debug builds.
    pub(crate) fn replace(&mut self, pc: usize, op: Op) {
        if self.ops[pc] != op {
            self.ops[pc] = op;
            self.changed = true;
        }
    }

    /// Whether any edit was made.
    pub(crate) fn changed(&self) -> bool {
        self.changed
    }

    /// Compacts the code, dropping removed instructions and remapping
    /// every jump target to the first surviving instruction at or after
    /// its old position.
    pub(crate) fn finish(self) -> Vec<Op> {
        // new_index[old] = index in the compacted code of the first
        // surviving instruction with position >= old.
        let mut new_index = vec![0u32; self.ops.len() + 1];
        let mut count = 0u32;
        for (slot, removed) in new_index.iter_mut().zip(&self.removed) {
            *slot = count;
            if !removed {
                count += 1;
            }
        }
        new_index[self.ops.len()] = count;

        self.ops
            .into_iter()
            .zip(self.removed)
            .filter(|(_, removed)| !removed)
            .map(|(op, _)| match op.jump_target() {
                Some(t) => op.with_jump_target(new_index[t as usize]),
                None => op,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let code = vec![Op::Const(1), Op::JumpIfZero(0), Op::Return];
        let e = CodeEditor::new(&code);
        assert!(!e.changed());
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
    fn replace_marks_changed_only_on_difference() {
        let code = vec![Op::Nop, Op::Return];
        let mut e = CodeEditor::new(&code);
        e.replace(0, Op::Nop);
        assert!(!e.changed(), "identical replacement is not a change");
        e.replace(0, Op::Pop);
        assert!(e.changed());
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
}
