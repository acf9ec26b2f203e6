//! Liveness-based dead-store elimination.
//!
//! A classic backward liveness dataflow over the [`ControlFlowGraph`]: a
//! store becomes a pop when its slot is not live-out at that program
//! point — every path re-stores before any load, or no path loads the
//! slot at all. Inlined bodies produce exactly this shape: the argument
//! spill slots are overwritten by the next inlined call's spills.
//!
//! Live sets are `u64`-word bitsets over the stored local slots, held in
//! buffers reused from run to run.

use crate::cfg::{self, ControlFlowGraph};
use crate::editor::CodeEditor;
use crate::passes::{Pass, Scratch};
use cbs_bytecode::Op;

/// Liveness-driven dead-store elimination.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LivenessDse;

/// Per-block live-in and live-out sets, `words` per block.
#[derive(Debug, Default)]
pub(crate) struct Liveness {
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    live: Vec<u64>,
}

impl Liveness {
    /// Solves the backward fixpoint over `cfg`:
    /// live_in = use ∪ (live_out − def); live_out = ∪ successors' live_in.
    fn solve(&mut self, cfg: &ControlFlowGraph) {
        let w = cfg.words();
        let n = cfg.blocks().len();
        self.live_in.clear();
        self.live_in.resize(n * w, 0);
        self.live_out.clear();
        self.live_out.resize(n * w, 0);
        let mut changed = true;
        while changed {
            changed = false;
            for (i, block) in cfg.blocks().iter().enumerate().rev() {
                let (uses, defs) = (cfg.uses(i), cfg.defs(i));
                for k in 0..w {
                    let out = block
                        .successors()
                        .iter()
                        .fold(0, |out, &s| out | self.live_in[s as usize * w + k]);
                    let inp = uses[k] | (out & !defs[k]);
                    if inp != self.live_in[i * w + k] || out != self.live_out[i * w + k] {
                        self.live_in[i * w + k] = inp;
                        self.live_out[i * w + k] = out;
                        changed = true;
                    }
                }
            }
        }
    }
}

impl Pass for LivenessDse {
    fn name(&self) -> &'static str {
        "liveness-dse"
    }

    fn apply(&self, editor: &mut CodeEditor, scratch: &mut Scratch) -> usize {
        let Scratch { cfg, liveness, .. } = scratch;
        cfg.refresh(editor);
        let w = cfg.words();
        if w == 0 {
            return 0;
        }
        liveness.solve(cfg);

        // Walk each block backwards tracking liveness per instruction;
        // a store to a non-live slot becomes a pop. Positions are the
        // editor's own, removed instructions included.
        let mut rewrites = 0;
        for (i, block) in cfg.blocks().iter().enumerate() {
            let live = &mut liveness.live;
            live.clear();
            live.extend_from_slice(&liveness.live_out[i * w..][..w]);
            for pc in block.range().rev() {
                match editor.op(pc) {
                    Some(&Op::Store(x)) => {
                        if cfg::contains(live, x) {
                            cfg::remove(live, x);
                        } else {
                            editor.replace(pc, Op::Pop);
                            rewrites += 1;
                        }
                    }
                    Some(&Op::Load(x)) if usize::from(x) < w * 64 => cfg::insert(live, x),
                    _ => {}
                }
            }
        }
        rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: Vec<Op>) -> Vec<Op> {
        let mut e = CodeEditor::new(&code);
        LivenessDse.apply(&mut e, &mut Scratch::default());
        e.finish()
    }

    #[test]
    fn overwritten_store_is_dead() {
        // store 0 is immediately overwritten before any load.
        let code = vec![
            Op::Const(1),
            Op::Store(0),
            Op::Const(2),
            Op::Store(0),
            Op::Load(0),
            Op::Return,
        ];
        let out = run(code);
        assert_eq!(out[1], Op::Pop, "first store is dead");
        assert_eq!(out[3], Op::Store(0), "second store is live");
    }

    #[test]
    fn store_live_across_branch_survives() {
        // store 0 at pc1 is read on the else arm only — still live.
        let code = vec![
            Op::Const(1),
            Op::Store(0),
            Op::Const(7),
            Op::JumpIfZero(6),
            Op::Const(9),
            Op::Return,
            Op::Load(0),
            Op::Return,
        ];
        let out = run(code.clone());
        assert_eq!(out, code, "store read on the else arm must survive");
    }

    #[test]
    fn store_dead_on_all_paths_removed() {
        // Both arms overwrite slot 0 before loading it.
        let code = vec![
            Op::Const(1),
            Op::Store(0), // dead: both arms re-store
            Op::Const(7),
            Op::JumpIfZero(7),
            Op::Const(2),
            Op::Store(0),
            Op::Jump(9),
            Op::Const(3),
            Op::Store(0),
            Op::Load(0),
            Op::Return,
        ];
        let out = run(code);
        assert_eq!(out[1], Op::Pop);
        assert_eq!(out[5], Op::Store(0));
        assert_eq!(out[8], Op::Store(0));
    }

    #[test]
    fn loop_carried_liveness_is_respected() {
        // slot 1 is accumulated across iterations: the store feeds the
        // next iteration's load through the backedge.
        let code = vec![
            Op::Const(3),
            Op::Store(0),
            // head: (2)
            Op::Load(0),
            Op::JumpIfZero(13),
            Op::Load(1),
            Op::Const(1),
            Op::Add,
            Op::Store(1), // must survive: read next iteration
            Op::Load(0),
            Op::Const(1),
            Op::Sub,
            Op::Store(0), // must survive: read through the backedge
            Op::Jump(2),
            // exit: (13)
            Op::Load(1),
            Op::Return,
        ];
        let out = run(code.clone());
        assert_eq!(out, code, "loop-carried stores must all survive");
    }

    #[test]
    fn final_store_with_no_later_load_is_dead() {
        let code = vec![Op::Const(1), Op::Store(3), Op::Const(0), Op::Return];
        let out = run(code);
        assert_eq!(out[1], Op::Pop);
    }

    #[test]
    fn addresses_the_editors_positions_with_removals_pending() {
        // 0: const 1 ; 1: nop (removed) ; 2: store 0 (dead) ; 3: const 2 ;
        // 4: store 0 ; 5: load 0 ; 6: return
        let code = vec![
            Op::Const(1),
            Op::Nop,
            Op::Store(0),
            Op::Const(2),
            Op::Store(0),
            Op::Load(0),
            Op::Return,
        ];
        let mut e = CodeEditor::new(&code);
        e.remove(1);
        assert_eq!(LivenessDse.apply(&mut e, &mut Scratch::default()), 1);
        assert_eq!(e.op(2), Some(&Op::Pop), "the dead store, not its neighbour");
        assert_eq!(e.op(1), None, "the removal stays pending");
        assert_eq!(
            e.finish(),
            vec![
                Op::Const(1),
                Op::Pop,
                Op::Const(2),
                Op::Store(0),
                Op::Load(0),
                Op::Return,
            ]
        );
    }

    /// A slot next to `s` in the neighbouring bitset word where there is
    /// one, so a word-indexing slip shows.
    fn neighbour(s: u16) -> u16 {
        if s % 64 == 63 {
            s + 1
        } else {
            s - 1
        }
    }

    /// A three-trip loop over counter slot 0 whose body reads `s` before
    /// re-storing it, and stores `neighbour(s)` without ever reading it.
    fn loop_reading_slot(s: u16) -> Vec<Op> {
        vec![
            Op::Const(0),
            Op::Store(s),
            Op::Const(3),
            Op::Store(0),
            // head: (4)
            Op::Load(0),
            Op::JumpIfZero(17),
            Op::Load(s), // reads the previous trip's store
            Op::Pop,
            Op::Const(5),
            Op::Store(s), // live only through the backedge
            Op::Const(9),
            Op::Store(neighbour(s)), // never read
            Op::Load(0),
            Op::Const(1),
            Op::Sub,
            Op::Store(0),
            Op::Jump(4),
            // exit: (17)
            Op::Const(0),
            Op::Return,
        ]
    }

    #[test]
    fn word_boundary_slots_across_a_loop_backedge() {
        for s in [63, 64, 65, 127, 128] {
            let mut code = loop_reading_slot(s);
            let out = run(code.clone());
            assert_eq!(out[1], Op::Store(s), "slot {s}: read on the first trip");
            assert_eq!(out[9], Op::Store(s), "slot {s}: live through the backedge");
            assert_eq!(out[11], Op::Pop, "slot {}: never read", neighbour(s));
            assert_eq!(out[15], Op::Store(0), "the counter");
            // Without the read, both stores of `s` are dead.
            code[6] = Op::Const(0);
            let out = run(code);
            assert_eq!(out[1], Op::Pop, "slot {s}: dead without the read");
            assert_eq!(out[9], Op::Pop, "slot {s}: dead without the read");
        }
    }

    #[test]
    fn word_boundary_slots_across_a_two_armed_branch() {
        for s in [63, 64, 65, 127, 128] {
            let other = neighbour(s);
            // Both arms store `s`; only the else arm reads `other`.
            let code = vec![
                Op::Const(1),
                Op::Store(s), // dead: both arms overwrite
                Op::Const(2),
                Op::Store(other), // live: the else arm reads it
                Op::Const(7),
                Op::JumpIfZero(10),
                Op::Const(3),
                Op::Store(s),
                Op::Load(s),
                Op::Return,
                // else: (10)
                Op::Const(4),
                Op::Store(s),
                Op::Load(other),
                Op::Pop,
                Op::Load(s),
                Op::Return,
            ];
            let out = run(code);
            assert_eq!(out[1], Op::Pop, "slot {s}: dead on both arms");
            assert_eq!(out[3], Op::Store(other), "slot {other}: read on one arm");
            assert_eq!(out[7], Op::Store(s));
            assert_eq!(out[11], Op::Store(s));
        }
    }

    #[test]
    fn more_than_128_locals() {
        // The shape inlining leaves: each spliced callee spills its
        // argument to a fresh slot, reads it back, and never again.
        let mut code = Vec::new();
        for s in 0..200u16 {
            code.extend([Op::Const(i64::from(s)), Op::Store(s)]);
            if s % 3 == 0 {
                code.extend([Op::Load(s), Op::Pop]);
            }
        }
        // Slot 150 is stored again at the end and returned.
        code.extend([Op::Const(0), Op::Store(150), Op::Load(150), Op::Return]);
        let out = run(code.clone());
        let mut at = 0;
        for s in 0..200u16 {
            let expect = if s % 3 == 0 { Op::Store(s) } else { Op::Pop };
            assert_eq!(out[at + 1], expect, "slot {s}");
            at += if s % 3 == 0 { 4 } else { 2 };
        }
        assert_eq!(out[at + 1], Op::Store(150));
    }
}
