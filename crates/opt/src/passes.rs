//! The optimizer passes.
//!
//! Each pass performs one linear scan, applying non-overlapping local
//! rewrites; the [`Optimizer`](crate::Optimizer) pipeline runs passes to a
//! fixpoint. Multi-instruction rewrites are applied only when their
//! interior instructions are not jump targets, so every control-flow path
//! observes the same semantics.
//!
//! These are precisely the "downstream optimizations" whose scope inlining
//! enlarges: a trivial getter inlined as `store L; load L; getfield F`
//! collapses to a bare `getfield F` under peephole + liveness-based
//! dead-store elimination, which is where the indirect benefit of the paper's
//! profile-directed inlining comes from.

use crate::cfg::ControlFlowGraph;
use crate::editor::CodeEditor;
use crate::liveness::Liveness;
use cbs_bytecode::Op;
use std::fmt;

/// A rewriting pass over one method body.
///
/// A pass must be a deterministic function of the editor's state: the
/// pipeline skips a pass that left the current code version unchanged.
/// Passes are `Send + Sync` so that whatever holds an
/// [`Optimizer`](crate::Optimizer) can cross threads.
pub(crate) trait Pass: fmt::Debug + Send + Sync {
    /// Stable pass name for statistics.
    fn name(&self) -> &'static str;

    /// Applies the pass, returning the number of rewrites performed.
    fn apply(&self, editor: &mut CodeEditor, scratch: &mut Scratch) -> usize;
}

/// Analysis buffers the passes share over one editor, kept from run to
/// run so that no pass allocates once they have grown.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The editor's CFG, rebuilt when its version moves.
    pub(crate) cfg: ControlFlowGraph,
    /// Live sets for dead-store elimination.
    pub(crate) liveness: Liveness,
    /// The code as jump threading found it, which every chain resolves
    /// against.
    pub(crate) snapshot: Vec<Option<Op>>,
}

/// Evaluates operations whose operands are constants.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConstantFolding;

impl ConstantFolding {
    fn fold_binop(op: &Op, a: i64, b: i64) -> Option<i64> {
        Some(match op {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::Div if b != 0 => a.wrapping_div(b),
            Op::Rem if b != 0 => a.wrapping_rem(b),
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Shl => a.wrapping_shl(b as u32 & 63),
            Op::Shr => a.wrapping_shr(b as u32 & 63),
            Op::CmpEq => i64::from(a == b),
            Op::CmpLt => i64::from(a < b),
            Op::CmpGt => i64::from(a > b),
            _ => return None,
        })
    }
}

impl Pass for ConstantFolding {
    fn name(&self) -> &'static str {
        "constant-folding"
    }

    fn apply(&self, editor: &mut CodeEditor, _scratch: &mut Scratch) -> usize {
        let mut rewrites = 0;
        let mut pc = 0;
        while pc < editor.len() {
            // Every rewrite starts at a constant.
            if !matches!(editor.op(pc), Some(Op::Const(_))) {
                pc += 1;
                continue;
            }
            // [const a, const b, binop] => [const (a op b)]
            if pc + 2 < editor.len() && !editor.is_target(pc + 1) && !editor.is_target(pc + 2) {
                if let (Some(&Op::Const(a)), Some(&Op::Const(b)), Some(op)) =
                    (editor.op(pc), editor.op(pc + 1), editor.op(pc + 2))
                {
                    if let Some(v) = Self::fold_binop(op, a, b) {
                        editor.replace(pc, Op::Const(v));
                        editor.remove(pc + 1);
                        editor.remove(pc + 2);
                        rewrites += 1;
                        pc += 3;
                        continue;
                    }
                }
            }
            if pc + 1 < editor.len() && !editor.is_target(pc + 1) {
                match (editor.op(pc), editor.op(pc + 1)) {
                    // [const a, neg] => [const -a]
                    (Some(&Op::Const(a)), Some(&Op::Neg)) => {
                        editor.replace(pc, Op::Const(a.wrapping_neg()));
                        editor.remove(pc + 1);
                        rewrites += 1;
                        pc += 2;
                        continue;
                    }
                    // [const c, jz/jnz t] => unconditional or fallthrough
                    (Some(&Op::Const(c)), Some(&Op::JumpIfZero(t))) => {
                        if c == 0 {
                            editor.remove(pc);
                            editor.replace(pc + 1, Op::Jump(t));
                        } else {
                            editor.remove(pc);
                            editor.remove(pc + 1);
                        }
                        rewrites += 1;
                        pc += 2;
                        continue;
                    }
                    (Some(&Op::Const(c)), Some(&Op::JumpIfNonZero(t))) => {
                        if c != 0 {
                            editor.remove(pc);
                            editor.replace(pc + 1, Op::Jump(t));
                        } else {
                            editor.remove(pc);
                            editor.remove(pc + 1);
                        }
                        rewrites += 1;
                        pc += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            pc += 1;
        }
        rewrites
    }
}

/// Local stack-pattern simplifications.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Peephole;

impl Pass for Peephole {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn apply(&self, editor: &mut CodeEditor, _scratch: &mut Scratch) -> usize {
        let mut rewrites = 0;
        let mut pc = 0;
        while pc < editor.len() {
            // Single-instruction rewrites: (conditional) jump to the
            // immediately following instruction. These do not need the
            // join-point check — the jump itself is what made pc+1 a
            // target.
            match editor.op(pc) {
                Some(&Op::Jump(t)) if t as usize == pc + 1 => {
                    editor.remove(pc);
                    rewrites += 1;
                    pc += 1;
                    continue;
                }
                Some(&Op::JumpIfZero(t)) | Some(&Op::JumpIfNonZero(t)) if t as usize == pc + 1 => {
                    // Only the pop of the condition remains.
                    editor.replace(pc, Op::Pop);
                    rewrites += 1;
                    pc += 1;
                    continue;
                }
                _ => {}
            }
            if pc + 1 < editor.len() && !editor.is_target(pc + 1) {
                let rewrite = match (editor.op(pc), editor.op(pc + 1)) {
                    // Value produced then immediately discarded.
                    (Some(Op::Dup | Op::Const(_) | Op::Load(_)), Some(Op::Pop)) => Some(None),
                    // Self-inverse pairs.
                    (Some(Op::Swap), Some(Op::Swap)) | (Some(Op::Neg), Some(Op::Neg)) => Some(None),
                    // Algebraic identities.
                    (Some(&Op::Const(0)), Some(Op::Add | Op::Sub | Op::Or | Op::Xor)) => Some(None),
                    (Some(&Op::Const(1)), Some(Op::Mul | Op::Div)) => Some(None),
                    (Some(&Op::Const(0)), Some(Op::Shl | Op::Shr)) => Some(None),
                    // Round-trip through a local.
                    (Some(&Op::Load(x)), Some(&Op::Store(y))) if x == y => Some(None),
                    // store x; load x => dup; store x (keeps the value
                    // available without the reload).
                    (Some(&Op::Store(x)), Some(&Op::Load(y))) if x == y => {
                        Some(Some((Op::Dup, Op::Store(x))))
                    }
                    _ => None,
                };
                match rewrite {
                    Some(None) => {
                        editor.remove(pc);
                        editor.remove(pc + 1);
                        rewrites += 1;
                        pc += 2;
                        continue;
                    }
                    Some(Some((a, b))) => {
                        editor.replace(pc, a);
                        editor.replace(pc + 1, b);
                        rewrites += 1;
                        pc += 2;
                        continue;
                    }
                    None => {}
                }
            }
            pc += 1;
        }
        rewrites
    }
}

/// Removes `nop` padding.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NopElimination;

impl Pass for NopElimination {
    fn name(&self) -> &'static str {
        "nop-elimination"
    }

    fn apply(&self, editor: &mut CodeEditor, _scratch: &mut Scratch) -> usize {
        let mut rewrites = 0;
        for pc in 0..editor.len() {
            if let Some(Op::Nop) = editor.op(pc) {
                editor.remove(pc);
                rewrites += 1;
            }
        }
        rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pass: &dyn Pass, code: Vec<Op>) -> Vec<Op> {
        let mut e = CodeEditor::new(&code);
        pass.apply(&mut e, &mut Scratch::default());
        e.finish()
    }

    #[test]
    fn folds_arithmetic_chain() {
        let out = run(
            &ConstantFolding,
            vec![Op::Const(3), Op::Const(4), Op::Add, Op::Return],
        );
        assert_eq!(out, vec![Op::Const(7), Op::Return]);
    }

    #[test]
    fn does_not_fold_across_join_points() {
        // pc2 (const 4) is a jump target: folding would break the jumping
        // path.
        let code = vec![
            Op::JumpIfZero(2),
            Op::Const(3),
            Op::Const(4),
            Op::Add,
            Op::Return,
        ];
        let out = run(&ConstantFolding, code.clone());
        assert_eq!(out, code, "join point must block the rewrite");
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let code = vec![Op::Const(1), Op::Const(0), Op::Div, Op::Return];
        let out = run(&ConstantFolding, code.clone());
        assert_eq!(out, code, "div-by-zero trap must be preserved");
    }

    #[test]
    fn folds_constant_conditionals() {
        let out = run(
            &ConstantFolding,
            vec![Op::Const(0), Op::JumpIfZero(3), Op::Nop, Op::Return],
        );
        assert_eq!(out, vec![Op::Jump(2), Op::Nop, Op::Return]);
        let out = run(
            &ConstantFolding,
            vec![Op::Const(5), Op::JumpIfZero(3), Op::Nop, Op::Return],
        );
        assert_eq!(out, vec![Op::Nop, Op::Return]);
    }

    #[test]
    fn peephole_removes_push_pop() {
        let out = run(&Peephole, vec![Op::Const(1), Op::Pop, Op::Return]);
        assert_eq!(out, vec![Op::Return]);
        let out = run(&Peephole, vec![Op::Load(0), Op::Pop, Op::Return]);
        assert_eq!(out, vec![Op::Return]);
        let out = run(&Peephole, vec![Op::Dup, Op::Pop, Op::Return]);
        assert_eq!(out, vec![Op::Return]);
    }

    #[test]
    fn peephole_store_load_becomes_dup_store() {
        let out = run(&Peephole, vec![Op::Store(2), Op::Load(2), Op::Return]);
        assert_eq!(out, vec![Op::Dup, Op::Store(2), Op::Return]);
    }

    #[test]
    fn peephole_load_store_same_slot_removed() {
        let out = run(
            &Peephole,
            vec![Op::Load(1), Op::Store(1), Op::Const(0), Op::Return],
        );
        assert_eq!(out, vec![Op::Const(0), Op::Return]);
    }

    #[test]
    fn peephole_algebraic_identities() {
        let out = run(&Peephole, vec![Op::Const(0), Op::Add, Op::Return]);
        assert_eq!(out, vec![Op::Return]);
        let out = run(&Peephole, vec![Op::Const(1), Op::Mul, Op::Return]);
        assert_eq!(out, vec![Op::Return]);
    }

    #[test]
    fn peephole_jump_to_next_removed() {
        let out = run(&Peephole, vec![Op::Jump(1), Op::Return]);
        assert_eq!(out, vec![Op::Return]);
    }

    #[test]
    fn peephole_cond_jump_to_next_becomes_pop() {
        let out = run(&Peephole, vec![Op::Const(1), Op::JumpIfZero(2), Op::Return]);
        // The conditional collapses to a pop of the condition. (The
        // const/pop pair is left for the next fixpoint iteration.)
        assert_eq!(out, vec![Op::Const(1), Op::Pop, Op::Return]);
    }

    #[test]
    fn nops_removed_and_targets_fixed() {
        let out = run(
            &NopElimination,
            vec![
                Op::Nop,
                Op::Const(1),
                Op::JumpIfNonZero(0),
                Op::Const(0),
                Op::Return,
            ],
        );
        assert_eq!(
            out,
            vec![Op::Const(1), Op::JumpIfNonZero(0), Op::Const(0), Op::Return]
        );
    }
}
