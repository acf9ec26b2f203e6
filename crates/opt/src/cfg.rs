//! Control-flow graph construction over method bodies.
//!
//! Basic blocks are maximal straight-line instruction runs; leaders are
//! the entry, jump targets, and instructions following a branch or
//! return. The CFG backs the dataflow passes (liveness-based dead-store
//! elimination) and is exposed for analyses downstream crates may build.

use cbs_bytecode::Op;

/// Index of a basic block within a [`ControlFlowGraph`].
pub type BlockId = usize;

/// One basic block: a half-open instruction range and its successors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor blocks in control-flow order (fallthrough first).
    pub successors: Vec<BlockId>,
}

impl BasicBlock {
    /// Instruction indices of this block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A method body's control-flow graph.
#[derive(Debug, Clone)]
pub struct ControlFlowGraph {
    blocks: Vec<BasicBlock>,
    /// Block containing each instruction.
    block_of: Vec<BlockId>,
}

impl ControlFlowGraph {
    /// Builds the CFG of `code`.
    ///
    /// Returns an empty graph for an empty body.
    pub fn build(code: &[Op]) -> Self {
        if code.is_empty() {
            return Self {
                blocks: Vec::new(),
                block_of: Vec::new(),
            };
        }
        // Leaders: entry, every jump target, every instruction after a
        // control transfer.
        let mut leader = vec![false; code.len()];
        leader[0] = true;
        for (pc, op) in code.iter().enumerate() {
            if let Some(t) = op.jump_target() {
                if let Some(l) = leader.get_mut(t as usize) {
                    *l = true;
                }
                if pc + 1 < code.len() {
                    leader[pc + 1] = true;
                }
            }
            if matches!(op, Op::Return) && pc + 1 < code.len() {
                leader[pc + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; code.len()];
        let mut start = 0usize;
        for pc in 1..=code.len() {
            if pc == code.len() || leader[pc] {
                let id = blocks.len();
                for slot in &mut block_of[start..pc] {
                    *slot = id;
                }
                blocks.push(BasicBlock {
                    start,
                    end: pc,
                    successors: Vec::new(),
                });
                start = pc;
            }
        }

        // Successors from each block's terminator.
        let block_index_of_pc = |pc: usize, block_of: &[BlockId]| -> BlockId { block_of[pc] };
        for block in &mut blocks {
            let last = block.end - 1;
            let op = &code[last];
            let mut succs = Vec::new();
            if op.falls_through() && block.end < code.len() {
                succs.push(block_index_of_pc(block.end, &block_of));
            }
            if let Some(t) = op.jump_target() {
                succs.push(block_index_of_pc(t as usize, &block_of));
            }
            succs.dedup();
            block.successors = succs;
        }

        Self { blocks, block_of }
    }

    /// The basic blocks in layout order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` for an empty body.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block containing instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn block_of(&self, pc: usize) -> BlockId {
        self.block_of[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_one_block() {
        let code = vec![Op::Const(1), Op::Const(2), Op::Add, Op::Return];
        let cfg = ControlFlowGraph::build(&code);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks()[0].range(), 0..4);
        assert!(cfg.blocks()[0].successors.is_empty());
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
        assert_eq!(cfg.blocks()[0].successors, vec![1, 2]);
        // Both arms join at the return block.
        assert_eq!(cfg.blocks()[1].successors, vec![3]);
        assert_eq!(cfg.blocks()[2].successors, vec![3]);
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
        let head = cfg.block_of(2);
        let body = cfg.block_of(4);
        assert!(cfg.blocks()[body].successors.contains(&head), "backedge");
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
            cfg.blocks()[0].successors.is_empty(),
            "return has no successors"
        );
    }
}
