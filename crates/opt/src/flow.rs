//! Control-flow passes: jump threading and unreachable-code elimination.
//!
//! Inlining leaves chains of jumps behind (every inlined `return` becomes
//! a jump to the join point, and guard chains jump over one another);
//! these passes clean them up, which both shrinks code and removes real
//! simulated branch cycles.

use crate::editor::CodeEditor;
use crate::passes::Pass;
use cbs_bytecode::Op;

/// Retargets jumps whose destination is itself an unconditional jump.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JumpThreading;

impl JumpThreading {
    /// Follows a chain of unconditional jumps from `target`, returning
    /// the final destination. Bounded by the code length so cycles
    /// (`jump @self`) terminate.
    fn resolve(code_at: impl Fn(usize) -> Option<Op>, mut target: u32, len: usize) -> u32 {
        for _ in 0..len {
            match code_at(target as usize) {
                Some(Op::Jump(next)) if next != target => target = next,
                _ => break,
            }
        }
        target
    }
}

impl Pass for JumpThreading {
    fn name(&self) -> &'static str {
        "jump-threading"
    }

    fn apply(&self, editor: &mut CodeEditor) -> usize {
        let len = editor.len();
        let snapshot: Vec<Option<Op>> = (0..len).map(|pc| editor.op(pc).copied()).collect();
        let mut rewrites = 0;
        for pc in 0..len {
            let Some(op) = editor.op(pc).copied() else {
                continue;
            };
            if let Some(t) = op.jump_target() {
                let resolved = Self::resolve(|i| snapshot.get(i).copied().flatten(), t, len);
                if resolved != t {
                    editor.replace(pc, op.with_jump_target(resolved));
                    rewrites += 1;
                }
            }
        }
        rewrites
    }
}

/// Removes instructions no control-flow path can reach.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UnreachableCodeElimination;

impl Pass for UnreachableCodeElimination {
    fn name(&self) -> &'static str {
        "unreachable-code-elimination"
    }

    fn apply(&self, editor: &mut CodeEditor) -> usize {
        let len = editor.len();
        if len == 0 {
            return 0;
        }
        let mut reachable = vec![false; len];
        let mut worklist = vec![0u32];
        while let Some(pc) = worklist.pop() {
            let idx = pc as usize;
            if idx >= len || reachable[idx] {
                continue;
            }
            reachable[idx] = true;
            let Some(op) = editor.op(idx) else { continue };
            if op.falls_through() {
                worklist.push(pc + 1);
            }
            if let Some(t) = op.jump_target() {
                worklist.push(t);
            }
        }
        let mut rewrites = 0;
        for (pc, seen) in reachable.iter().enumerate() {
            if !seen && editor.op(pc).is_some() {
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
        pass.apply(&mut e);
        e.finish()
    }

    #[test]
    fn threads_jump_chains() {
        // 0: jump @2 ; 1: return ; 2: jump @4 ; 3: return ; 4: const; 5: return
        let out = run(
            &JumpThreading,
            vec![
                Op::Jump(2),
                Op::Return,
                Op::Jump(4),
                Op::Return,
                Op::Const(1),
                Op::Return,
            ],
        );
        assert_eq!(out[0], Op::Jump(4), "chain 0->2->4 must collapse");
    }

    #[test]
    fn threads_conditional_through_unconditional() {
        let out = run(
            &JumpThreading,
            vec![
                Op::Const(1),
                Op::JumpIfZero(3),
                Op::Return,
                Op::Jump(5),
                Op::Nop,
                Op::Const(2),
                Op::Return,
            ],
        );
        assert_eq!(out[1], Op::JumpIfZero(5));
    }

    #[test]
    fn self_jump_terminates() {
        // Degenerate `jump @self` (an intentional infinite loop) must not
        // hang the pass.
        let code = vec![Op::Jump(0)];
        let out = run(&JumpThreading, code.clone());
        assert_eq!(out, code);
    }

    #[test]
    fn removes_unreachable_block() {
        // 0: jump @3 ; 1: const(dead) ; 2: pop(dead) ; 3: const ; 4: ret
        let out = run(
            &UnreachableCodeElimination,
            vec![Op::Jump(3), Op::Const(9), Op::Pop, Op::Const(1), Op::Return],
        );
        assert_eq!(out, vec![Op::Jump(1), Op::Const(1), Op::Return]);
    }

    #[test]
    fn keeps_code_reached_only_by_jumps() {
        // 0: jz @3 ; 1: const ; 2: return ; 3: const ; 4: return — all
        // reachable.
        let code = vec![
            Op::Const(0),
            Op::JumpIfZero(4),
            Op::Const(1),
            Op::Return,
            Op::Const(2),
            Op::Return,
        ];
        let out = run(&UnreachableCodeElimination, code.clone());
        assert_eq!(out, code);
    }

    #[test]
    fn code_after_return_is_removed() {
        let out = run(
            &UnreachableCodeElimination,
            vec![Op::Const(1), Op::Return, Op::Nop, Op::Nop],
        );
        assert_eq!(out, vec![Op::Const(1), Op::Return]);
    }
}
