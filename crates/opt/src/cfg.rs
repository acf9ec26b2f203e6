//! Control-flow graph construction over method bodies.
//!
//! Basic blocks are maximal straight-line instruction runs; leaders are
//! the entry, jump targets, and instructions following a branch or
//! return. The graph is built over the editor's own positions, so it
//! stays valid with removals pending: a removed instruction is an empty
//! step that falls through. Next to the blocks it keeps each block's
//! `use`/`def` sets of local slots as `u64`-word bitsets, which back the
//! liveness-based dead-store elimination.
//!
//! One graph follows one editor and rebuilds only when the editor's
//! version has moved, into the buffers of the last build.

use crate::editor::CodeEditor;
use cbs_bytecode::Op;

/// Index of a basic block within a [`ControlFlowGraph`].
pub(crate) type BlockId = usize;

/// One basic block: a half-open instruction range and its successors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BasicBlock {
    /// First instruction index.
    pub(crate) start: usize,
    /// One past the last instruction index.
    pub(crate) end: usize,
    successors: [u32; 2],
    num_successors: u8,
}

impl BasicBlock {
    /// Instruction indices of this block.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Successor blocks in control-flow order (fallthrough first).
    pub(crate) fn successors(&self) -> &[u32] {
        &self.successors[..usize::from(self.num_successors)]
    }

    fn add_successor(&mut self, block: u32) {
        // A branch to the fallthrough block is one edge.
        if self.successors().last().is_none_or(|&last| last != block) {
            self.successors[usize::from(self.num_successors)] = block;
            self.num_successors += 1;
        }
    }
}

/// A method body's control-flow graph and per-block slot sets.
#[derive(Debug, Default)]
pub(crate) struct ControlFlowGraph {
    /// Editor version the graph describes.
    version: Option<u64>,
    blocks: Vec<BasicBlock>,
    /// One plus the block a leader starts, at each leader; 0 elsewhere.
    block_at: Vec<u32>,
    /// Bitset words per block: enough for the highest stored slot.
    words: usize,
    uses: Vec<u64>,
    defs: Vec<u64>,
    reached: Vec<bool>,
    stack: Vec<u32>,
}

impl ControlFlowGraph {
    /// Builds the CFG of a whole body.
    #[cfg(test)]
    pub(crate) fn build(code: &[Op]) -> Self {
        let mut cfg = Self::default();
        cfg.refresh(&CodeEditor::new(code));
        cfg
    }

    /// Brings the graph up to date with `editor`, rebuilding only if the
    /// editor's version moved since the last call.
    pub(crate) fn refresh(&mut self, editor: &CodeEditor) {
        if self.version != Some(editor.version()) {
            self.rebuild(editor);
            self.version = Some(editor.version());
        }
    }

    fn rebuild(&mut self, editor: &CodeEditor) {
        let len = editor.len();
        self.blocks.clear();
        self.block_at.clear();
        self.block_at.resize(len, 0);
        self.uses.clear();
        self.defs.clear();
        self.words = 0;
        if len == 0 {
            return;
        }
        // Leaders: entry, every jump target, every instruction after a
        // control transfer. Loads of slots above every stored slot cannot
        // keep a store alive, so the bitsets need only cover stores.
        self.block_at[0] = 1;
        let mut max_stored: Option<u16> = None;
        for pc in 0..len {
            let Some(op) = editor.op(pc) else { continue };
            if let Some(t) = op.jump_target() {
                if let Some(l) = self.block_at.get_mut(t as usize) {
                    *l = 1;
                }
                if pc + 1 < len {
                    self.block_at[pc + 1] = 1;
                }
            }
            match *op {
                Op::Return if pc + 1 < len => self.block_at[pc + 1] = 1,
                Op::Store(x) => max_stored = max_stored.max(Some(x)),
                _ => {}
            }
        }

        let mut start = 0;
        for pc in 1..=len {
            if pc == len || self.block_at[pc] != 0 {
                self.block_at[start] = self.blocks.len() as u32 + 1;
                self.blocks.push(BasicBlock {
                    start,
                    end: pc,
                    successors: [0; 2],
                    num_successors: 0,
                });
                start = pc;
            }
        }

        // Successors from each block's terminator.
        for block in &mut self.blocks {
            let falls_through = editor.op(block.end - 1).is_none_or(Op::falls_through);
            if falls_through && block.end < len {
                block.add_successor(self.block_at[block.end] - 1);
            }
            let target = editor.op(block.end - 1).and_then(Op::jump_target);
            if let Some(&b) = target.and_then(|t| self.block_at.get(t as usize)) {
                block.add_successor(b - 1);
            }
        }

        let Some(max_stored) = max_stored else { return };
        let words = usize::from(max_stored) / 64 + 1;
        self.words = words;
        self.uses.resize(self.blocks.len() * words, 0);
        self.defs.resize(self.blocks.len() * words, 0);
        for (i, block) in self.blocks.iter().enumerate() {
            let uses = &mut self.uses[i * words..][..words];
            let defs = &mut self.defs[i * words..][..words];
            for pc in block.range() {
                match editor.op(pc) {
                    Some(&Op::Load(x)) if usize::from(x) < words * 64 && !contains(defs, x) => {
                        insert(uses, x);
                    }
                    Some(&Op::Store(x)) => insert(defs, x),
                    _ => {}
                }
            }
        }
    }

    /// The basic blocks in layout order.
    pub(crate) fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Number of blocks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` for an empty body.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Bitset words per slot set; 0 when the body stores no slot.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Slots `block` loads before any store to them, among the slots
    /// some store in the body writes.
    pub(crate) fn uses(&self, block: BlockId) -> &[u64] {
        &self.uses[block * self.words..][..self.words]
    }

    /// Slots `block` stores to.
    pub(crate) fn defs(&self, block: BlockId) -> &[u64] {
        &self.defs[block * self.words..][..self.words]
    }

    /// Instruction ranges of the blocks no path from the entry reaches.
    pub(crate) fn unreachable(&mut self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.reached.clear();
        self.reached.resize(self.blocks.len(), false);
        self.stack.clear();
        if !self.blocks.is_empty() {
            self.reached[0] = true;
            self.stack.push(0);
        }
        while let Some(b) = self.stack.pop() {
            for &s in self.blocks[b as usize].successors() {
                if !self.reached[s as usize] {
                    self.reached[s as usize] = true;
                    self.stack.push(s);
                }
            }
        }
        self.blocks
            .iter()
            .zip(&self.reached)
            .filter(|(_, &reached)| !reached)
            .map(|(block, _)| block.range())
    }
}

/// Whether the bitset `set` holds `slot`.
pub(crate) fn contains(set: &[u64], slot: u16) -> bool {
    set[usize::from(slot / 64)] >> (slot % 64) & 1 != 0
}

/// Adds `slot` to the bitset `set`.
pub(crate) fn insert(set: &mut [u64], slot: u16) {
    set[usize::from(slot / 64)] |= 1 << (slot % 64);
}

/// Takes `slot` out of the bitset `set`.
pub(crate) fn remove(set: &mut [u64], slot: u16) {
    set[usize::from(slot / 64)] &= !(1 << (slot % 64));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn successors(cfg: &ControlFlowGraph, b: BlockId) -> Vec<u32> {
        cfg.blocks()[b].successors().to_vec()
    }

    #[test]
    fn straight_line_is_one_block() {
        let code = vec![Op::Const(1), Op::Const(2), Op::Add, Op::Return];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks()[0].range(), 0..4);
        assert!(cfg.blocks()[0].successors().is_empty());
    }

    #[test]
    fn diamond_has_four_blocks() {
        // 0: const ; 1: jz @4 ; 2: const ; 3: jump @5 ; 4: const ; 5: ret
        let code = vec![
            Op::Const(1),
            Op::JumpIfZero(4),
            Op::Const(2),
            Op::Jump(5),
            Op::Const(3),
            Op::Return,
        ];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.len(), 4);
        // Entry block branches to then/else.
        assert_eq!(successors(&cfg, 0), vec![1, 2]);
        // Both arms join at the return block.
        assert_eq!(successors(&cfg, 1), vec![3]);
        assert_eq!(successors(&cfg, 2), vec![3]);
    }

    #[test]
    fn loop_backedge_creates_cycle() {
        // counted loop shape: 0: const; 1: store; 2: load; 3: jz @7;
        // 4: nop; 5: nop; 6: jump @2; 7: const; 8: ret
        let code = vec![
            Op::Const(3),
            Op::Store(0),
            Op::Load(0),
            Op::JumpIfZero(7),
            Op::Nop,
            Op::Nop,
            Op::Jump(2),
            Op::Const(0),
            Op::Return,
        ];
        let cfg = ControlFlowGraph::build(&code);
        // Blocks: entry 0..2, head 2..4, body 4..7, exit 7..9.
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.blocks()[1].range(), 2..4);
        assert_eq!(successors(&cfg, 1), vec![2, 3], "head: body, exit");
        assert_eq!(successors(&cfg, 2), vec![1], "backedge");
    }

    #[test]
    fn empty_body_is_empty_graph() {
        let cfg = ControlFlowGraph::build(&[]);
        assert!(cfg.is_empty());
        assert_eq!(cfg.len(), 0);
    }

    #[test]
    fn code_after_return_starts_new_block() {
        let code = vec![Op::Const(1), Op::Return, Op::Const(2), Op::Return];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.len(), 2);
        assert!(
            cfg.blocks()[0].successors().is_empty(),
            "return has no successors"
        );
    }

    #[test]
    fn branch_to_the_next_block_is_one_edge() {
        let code = vec![Op::Const(1), Op::JumpIfZero(2), Op::Return];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(successors(&cfg, 0), vec![1]);
    }

    #[test]
    fn removed_terminator_falls_through() {
        // 0: jump @2 (removed) ; 1: const ; 2: return
        let mut e = CodeEditor::new(&[Op::Jump(2), Op::Const(1), Op::Return]);
        e.remove(0);
        let mut cfg = ControlFlowGraph::default();
        cfg.refresh(&e);
        assert_eq!(cfg.len(), 1, "no jump, no leader");
        assert_eq!(cfg.unreachable().count(), 0);
    }

    #[test]
    fn rebuilds_when_the_version_moves() {
        let mut e = CodeEditor::new(&[Op::Const(1), Op::Store(0), Op::Return]);
        let mut cfg = ControlFlowGraph::default();
        cfg.refresh(&e);
        assert_eq!(cfg.defs(0), &[1]);
        e.replace(1, Op::Pop);
        cfg.refresh(&e);
        assert_eq!(cfg.words(), 0, "no store left");
    }

    #[test]
    fn use_def_sets_are_upward_exposed() {
        // load 1 ; store 1 ; load 1 ; store 70 ; return
        let code = vec![
            Op::Load(1),
            Op::Store(1),
            Op::Load(1),
            Op::Load(200),
            Op::Pop,
            Op::Store(70),
            Op::Return,
        ];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.words(), 2, "slot 70 needs a second word");
        assert_eq!(cfg.uses(0), &[1 << 1, 0], "slot 200 is never stored");
        assert_eq!(cfg.defs(0), &[1 << 1, 1 << 6]);
    }

    #[test]
    fn unreachable_lists_dead_blocks() {
        // 0: jump @3 ; 1: const ; 2: pop ; 3: const ; 4: return
        let code = vec![Op::Jump(3), Op::Const(9), Op::Pop, Op::Const(1), Op::Return];
        let mut cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.unreachable().collect::<Vec<_>>(), vec![1..3]);
    }
}
