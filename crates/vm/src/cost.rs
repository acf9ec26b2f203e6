//! The simulated cycle cost model.
//!
//! Every bytecode instruction charges a fixed number of cycles to the
//! virtual clock. The constants model the *relative* costs a JIT-compiled
//! JVM would see (a virtual dispatch costs more than an add; an I/O
//! operation costs orders of magnitude more), scaled to a deliberately slow
//! virtual CPU so whole benchmarks interpret in tractable wall time.
//!
//! The profiling-action costs at the bottom are the quantities §4 of the
//! paper reasons about: they determine the overhead columns of Tables 2
//! and 3 exactly.

use cbs_bytecode::Op;

/// Per-instruction and per-profiling-action cycle costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Plain stack/ALU operation.
    pub simple: u64,
    /// Field access (`getfield`/`putfield`).
    pub field: u64,
    /// Object allocation.
    pub alloc: u64,
    /// Direct call: argument transfer + frame push.
    pub call: u64,
    /// Additional cost of a virtual dispatch over a direct call.
    pub virtual_dispatch: u64,
    /// Method return: frame pop + result transfer.
    pub ret: u64,
    /// Taken or not-taken branch.
    pub branch: u64,
    /// Class-test guard emitted by the inliner.
    pub guard: u64,
    /// Cycles per unit of `Io(cost)`.
    pub io_unit: u64,

    /// Explicit method-entry flag check (load/compare/branch), charged by
    /// profilers that cannot overload an existing VM check (§4
    /// "Implementation Options": three extra instructions).
    pub entry_check: u64,
    /// Countdown decrement + test while a sampling window is open.
    pub countdown: u64,
    /// Fixed cost of one call-stack sample (walk + repository update).
    pub stack_walk_base: u64,
    /// Additional per-frame cost of a deep stack walk.
    pub stack_walk_frame: u64,
    /// Servicing a timer interrupt (flag setting, scheduler entry).
    pub timer_service: u64,
    /// Taking (entering the runtime from) a yieldpoint.
    pub yieldpoint_taken: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            simple: 1,
            field: 3,
            alloc: 20,
            call: 10,
            virtual_dispatch: 8,
            ret: 5,
            branch: 1,
            guard: 2,
            io_unit: 100,
            entry_check: 3,
            countdown: 4,
            stack_walk_base: 400,
            stack_walk_frame: 30,
            timer_service: 200,
            yieldpoint_taken: 40,
        }
    }
}

impl CostModel {
    /// Cycles charged for executing `op` (excluding any callee cycles).
    pub fn op_cost(&self, op: &Op) -> u64 {
        match op {
            Op::Const(_)
            | Op::Load(_)
            | Op::Store(_)
            | Op::Dup
            | Op::Pop
            | Op::Swap
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Neg
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::CmpEq
            | Op::CmpLt
            | Op::CmpGt
            | Op::Nop => self.simple,
            // Division is genuinely slower on real hardware.
            Op::Div | Op::Rem => self.simple * 4,
            Op::Jump(_) | Op::JumpIfZero(_) | Op::JumpIfNonZero(_) => self.branch,
            Op::GetField(_) | Op::PutField(_) => self.field,
            Op::New(_) => self.alloc,
            Op::Call { .. } => self.call,
            Op::CallVirtual { .. } => self.call + self.virtual_dispatch,
            Op::Return => self.ret,
            Op::GuardClass { .. } => self.guard,
            Op::Io(units) => self.io_unit * u64::from(*units),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId, VirtualSlot};

    #[test]
    fn relative_costs_are_sensible() {
        let c = CostModel::default();
        assert!(c.op_cost(&Op::Add) < c.op_cost(&Op::GetField(0)));
        assert!(c.op_cost(&Op::GetField(0)) < c.op_cost(&Op::New(cbs_bytecode::ClassId::new(0))));
        let direct = c.op_cost(&Op::Call {
            site: CallSiteId::new(0),
            target: MethodId::new(0),
        });
        let virt = c.op_cost(&Op::CallVirtual {
            site: CallSiteId::new(0),
            slot: VirtualSlot::new(0),
            arity: 1,
        });
        assert!(virt > direct, "virtual dispatch must cost more");
        assert!(c.op_cost(&Op::Div) > c.op_cost(&Op::Mul));
    }

    #[test]
    fn io_scales_with_units() {
        let c = CostModel::default();
        assert_eq!(c.op_cost(&Op::Io(10)), 10 * c.io_unit);
        assert_eq!(c.op_cost(&Op::Io(0)), 0);
    }

    #[test]
    fn guard_is_cheaper_than_dispatch() {
        // The whole point of guarded inlining: a class test must be cheaper
        // than the virtual dispatch it replaces.
        let c = CostModel::default();
        assert!(c.guard < c.virtual_dispatch);
    }
}
