//! The bytecode instruction set.
//!
//! The ISA is a small stack machine modeled on Java bytecode: operands live
//! on a per-frame operand stack, locals are indexed slots (parameters occupy
//! the first slots), and calls pass arguments by popping them from the
//! caller's stack into the callee's locals.
//!
//! Two properties matter for the profiling study and are reflected in the
//! design:
//!
//! 1. Every call instruction carries a [`CallSiteId`] so a dynamic call graph
//!    edge `(caller, site, callee)` can be attributed to a static site.
//! 2. There is no explicit yieldpoint instruction. As in Jikes RVM and J9,
//!    yieldpoints are implicit in method prologues, epilogues and loop
//!    backedges; the VM materializes them while interpreting.

use crate::ids::{CallSiteId, ClassId, MethodId, VirtualSlot};
use std::fmt;

/// A single bytecode instruction.
///
/// Jump targets are absolute instruction indices within the enclosing
/// method's code array. A jump whose target is `<=` its own index is a
/// *backedge* (see [`Op::is_backedge_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Push a constant integer.
    Const(i64),
    /// Push the value of local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the top two stack values.
    Swap,

    /// Pop two integers, push their sum.
    Add,
    /// Pop two integers, push `lhs - rhs`.
    Sub,
    /// Pop two integers, push their product.
    Mul,
    /// Pop two integers, push `lhs / rhs` (traps on division by zero).
    Div,
    /// Pop two integers, push `lhs % rhs` (traps on division by zero).
    Rem,
    /// Negate the top of stack.
    Neg,
    /// Pop two integers, push bitwise and.
    And,
    /// Pop two integers, push bitwise or.
    Or,
    /// Pop two integers, push bitwise xor.
    Xor,
    /// Pop two integers, push `lhs << (rhs & 63)`.
    Shl,
    /// Pop two integers, push `lhs >> (rhs & 63)` (arithmetic).
    Shr,

    /// Pop two integers, push 1 if equal else 0.
    CmpEq,
    /// Pop two integers, push 1 if `lhs < rhs` else 0.
    CmpLt,
    /// Pop two integers, push 1 if `lhs > rhs` else 0.
    CmpGt,

    /// Unconditional jump to the absolute instruction index.
    Jump(u32),
    /// Pop an integer; jump if it is zero.
    JumpIfZero(u32),
    /// Pop an integer; jump if it is non-zero.
    JumpIfNonZero(u32),

    /// Direct (statically bound) call.
    ///
    /// Pops the callee's `num_params` arguments (last argument on top) and
    /// transfers control. The callee's single return value is pushed on
    /// return.
    Call {
        /// Static identity of this call site.
        site: CallSiteId,
        /// The statically bound callee.
        target: MethodId,
    },
    /// Virtual (receiver-dispatched) call.
    ///
    /// Pops `arity` values where the *first* popped-last value (deepest) is
    /// the receiver reference; dispatches through the receiver class's
    /// vtable at `slot`.
    CallVirtual {
        /// Static identity of this call site.
        site: CallSiteId,
        /// Vtable slot to dispatch through.
        slot: VirtualSlot,
        /// Total argument count including the receiver.
        arity: u16,
    },
    /// Pop one value and return it to the caller.
    Return,

    /// Pop a receiver reference, push the value of its field `n`.
    GetField(u16),
    /// Pop a value then a receiver reference; store the value into field `n`.
    PutField(u16),
    /// Allocate a new object of the class, push its reference.
    New(ClassId),

    /// Pop a receiver reference; if its class is exactly the named class,
    /// fall through, otherwise jump to the target.
    ///
    /// This is the class-test guard the inliner emits in front of a
    /// guarded-inlined virtual call body.
    GuardClass {
        /// Expected exact receiver class.
        class: ClassId,
        /// Absolute jump target taken when the guard fails.
        not_taken: u32,
    },

    /// Simulated long-latency operation (I/O, system call).
    ///
    /// Costs `cost` I/O units of simulated time and pushes 0. Used by
    /// adversarial workloads: time-based samplers are drawn toward the
    /// instruction that follows a long-latency region.
    Io(u32),

    /// No operation (occupies simulated time like any other instruction).
    Nop,
}

impl Op {
    /// Returns `true` if this instruction is a call of either kind.
    pub fn is_call(&self) -> bool {
        matches!(self, Op::Call { .. } | Op::CallVirtual { .. })
    }

    /// Returns the call-site identity if this instruction is a call.
    pub fn call_site(&self) -> Option<CallSiteId> {
        match self {
            Op::Call { site, .. } | Op::CallVirtual { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// Returns the jump target if this instruction can transfer control
    /// non-sequentially (excluding calls and returns).
    pub fn jump_target(&self) -> Option<u32> {
        match self {
            Op::Jump(t) | Op::JumpIfZero(t) | Op::JumpIfNonZero(t) => Some(*t),
            Op::GuardClass { not_taken, .. } => Some(*not_taken),
            _ => None,
        }
    }

    /// Returns a copy of this instruction with its jump target replaced.
    ///
    /// Returns the instruction unchanged when it has no target. Used by code
    /// transformations that relocate instructions.
    pub fn with_jump_target(self, target: u32) -> Op {
        match self {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfZero(_) => Op::JumpIfZero(target),
            Op::JumpIfNonZero(_) => Op::JumpIfNonZero(target),
            Op::GuardClass { class, .. } => Op::GuardClass {
                class,
                not_taken: target,
            },
            other => other,
        }
    }

    /// Returns `true` if this instruction, located at index `pc`, is a loop
    /// backedge (a jump whose target does not move forward).
    pub fn is_backedge_from(&self, pc: u32) -> bool {
        self.jump_target().is_some_and(|t| t <= pc)
    }

    /// Returns `true` if control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Op::Jump(_) | Op::Return)
    }

    /// Evaluates `a <op> b` for an integer binop: the one definition of
    /// each binop's result, which the interpreter, its fused runs and
    /// constant folding all call.
    ///
    /// Arithmetic wraps, shift amounts are taken modulo 64, `Shr` is
    /// arithmetic and a comparison yields 1 or 0. Returns `None` when
    /// `self` is not a binop, or is `Div` or `Rem` with `b == 0`.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
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

    /// The operand-stack signature `(pops, pushes)`, given callee arity
    /// resolution via `arity_of` for direct calls.
    ///
    /// Virtual calls carry their arity inline so `arity_of` is consulted
    /// only for [`Op::Call`].
    pub fn stack_signature<F: Fn(MethodId) -> u16>(&self, arity_of: F) -> (u32, u32) {
        match *self {
            Op::Nop | Op::Jump(_) => (0, 0),
            Op::Const(_) | Op::Load(_) | Op::New(_) | Op::Io(_) => (0, 1),
            Op::Store(_)
            | Op::Pop
            | Op::Return
            | Op::JumpIfZero(_)
            | Op::JumpIfNonZero(_)
            | Op::GuardClass { .. } => (1, 0),
            Op::Neg | Op::GetField(_) => (1, 1),
            Op::Dup => (1, 2),
            Op::PutField(_) => (2, 0),
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::CmpEq
            | Op::CmpLt
            | Op::CmpGt => (2, 1),
            Op::Swap => (2, 2),
            Op::Call { target, .. } => (u32::from(arity_of(target)), 1),
            Op::CallVirtual { arity, .. } => (u32::from(arity), 1),
        }
    }

    /// Net operand-stack effect (pushes minus pops) of
    /// [`stack_signature`](Self::stack_signature).
    pub fn stack_effect<F: Fn(MethodId) -> u16>(&self, arity_of: F) -> i32 {
        let (pops, pushes) = self.stack_signature(arity_of);
        pushes as i32 - pops as i32
    }

    /// Modeled encoded size of this instruction in bytes.
    ///
    /// The study reports per-benchmark code sizes in kilobytes (Table 1) and
    /// the inliners reason in "bytecode bytes"; this models a plausible
    /// JVM-style encoding.
    pub fn encoded_size(&self) -> u32 {
        match self {
            Op::Nop | Op::Dup | Op::Pop | Op::Swap | Op::Return => 1,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::Neg
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::CmpEq
            | Op::CmpLt
            | Op::CmpGt => 1,
            Op::Load(_) | Op::Store(_) => 2,
            Op::Const(_) => 3,
            Op::GetField(_) | Op::PutField(_) => 3,
            Op::Jump(_) | Op::JumpIfZero(_) | Op::JumpIfNonZero(_) => 3,
            Op::New(_) => 3,
            Op::Io(_) => 3,
            Op::Call { .. } => 3,
            Op::CallVirtual { .. } => 3,
            Op::GuardClass { .. } => 4,
        }
    }
}

/// Every opcode's spelling in the text form, against a template of it
/// whose operands are zero. [`Display`](fmt::Display) spells every op
/// through it, and the assembler parses every op without a symbolic
/// operand (a label, a method or class name, `callvirt`'s slot and
/// arity) through [`Op::parse_plain`], so a listing line of such an op
/// is valid assembly.
const MNEMONICS: [(&str, Op); 32] = [
    ("const", Op::Const(0)),
    ("load", Op::Load(0)),
    ("store", Op::Store(0)),
    ("dup", Op::Dup),
    ("pop", Op::Pop),
    ("swap", Op::Swap),
    ("add", Op::Add),
    ("sub", Op::Sub),
    ("mul", Op::Mul),
    ("div", Op::Div),
    ("rem", Op::Rem),
    ("neg", Op::Neg),
    ("and", Op::And),
    ("or", Op::Or),
    ("xor", Op::Xor),
    ("shl", Op::Shl),
    ("shr", Op::Shr),
    ("cmpeq", Op::CmpEq),
    ("cmplt", Op::CmpLt),
    ("cmpgt", Op::CmpGt),
    ("jump", Op::Jump(0)),
    ("jz", Op::JumpIfZero(0)),
    ("jnz", Op::JumpIfNonZero(0)),
    (
        "call",
        Op::Call {
            site: CallSiteId::new(0),
            target: MethodId::new(0),
        },
    ),
    (
        "callvirt",
        Op::CallVirtual {
            site: CallSiteId::new(0),
            slot: VirtualSlot::new(0),
            arity: 0,
        },
    ),
    ("ret", Op::Return),
    ("getfield", Op::GetField(0)),
    ("putfield", Op::PutField(0)),
    ("new", Op::New(ClassId::new(0))),
    (
        "guard",
        Op::GuardClass {
            class: ClassId::new(0),
            not_taken: 0,
        },
    ),
    ("io", Op::Io(0)),
    ("nop", Op::Nop),
];

impl Op {
    /// This op's spelling in the text form.
    fn mnemonic(&self) -> &'static str {
        let kind = std::mem::discriminant(self);
        MNEMONICS
            .iter()
            .find(|(_, template)| std::mem::discriminant(template) == kind)
            .map(|&(name, _)| name)
            .expect("MNEMONICS spells every opcode")
    }

    /// How many operand tokens follow `mnemonic` in the text form.
    /// `None` when `mnemonic` names no op.
    pub(crate) fn text_operands(mnemonic: &str) -> Option<usize> {
        let &(_, template) = MNEMONICS.iter().find(|(name, _)| *name == mnemonic)?;
        Some(match template {
            Op::CallVirtual { .. } | Op::GuardClass { .. } => 2,
            Op::Const(_)
            | Op::Load(_)
            | Op::Store(_)
            | Op::GetField(_)
            | Op::PutField(_)
            | Op::Io(_)
            | Op::Jump(_)
            | Op::JumpIfZero(_)
            | Op::JumpIfNonZero(_)
            | Op::Call { .. }
            | Op::New(_) => 1,
            _ => 0,
        })
    }

    /// Parses `mnemonic [operand]`, the text form of an op without a
    /// symbolic operand. `None` when `mnemonic` names no such op; the
    /// error message otherwise names a missing or malformed operand.
    pub(crate) fn parse_plain(mnemonic: &str, operand: Option<&str>) -> Option<Result<Op, String>> {
        fn num<T: std::str::FromStr>(mnemonic: &str, operand: Option<&str>) -> Result<T, String> {
            let text = operand.ok_or_else(|| format!("`{mnemonic}` needs an operand"))?;
            text.parse()
                .map_err(|_| format!("`{text}` is not a valid number"))
        }
        let &(_, template) = MNEMONICS.iter().find(|(name, _)| *name == mnemonic)?;
        Some(match template {
            Op::Const(_) => num(mnemonic, operand).map(Op::Const),
            Op::Load(_) => num(mnemonic, operand).map(Op::Load),
            Op::Store(_) => num(mnemonic, operand).map(Op::Store),
            Op::GetField(_) => num(mnemonic, operand).map(Op::GetField),
            Op::PutField(_) => num(mnemonic, operand).map(Op::PutField),
            Op::Io(_) => num(mnemonic, operand).map(Op::Io),
            Op::Jump(_)
            | Op::JumpIfZero(_)
            | Op::JumpIfNonZero(_)
            | Op::Call { .. }
            | Op::CallVirtual { .. }
            | Op::New(_)
            | Op::GuardClass { .. } => return None,
            plain => Ok(plain),
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.mnemonic();
        match *self {
            Op::Const(v) => write!(f, "{name} {v}"),
            Op::Load(n) | Op::Store(n) | Op::GetField(n) | Op::PutField(n) => {
                write!(f, "{name} {n}")
            }
            Op::Io(cost) => write!(f, "{name} {cost}"),
            Op::Jump(t) | Op::JumpIfZero(t) | Op::JumpIfNonZero(t) => write!(f, "{name} @{t}"),
            Op::Call { site, target } => write!(f, "{name} {target} [{site}]"),
            Op::CallVirtual { site, slot, arity } => write!(f, "{name} {slot}/{arity} [{site}]"),
            Op::New(c) => write!(f, "{name} {c}"),
            Op::GuardClass { class, not_taken } => {
                write!(f, "{name} {class} else @{not_taken}")
            }
            _ => f.write_str(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_predicates() {
        let c = Op::Call {
            site: CallSiteId::new(5),
            target: MethodId::new(1),
        };
        assert!(c.is_call());
        assert_eq!(c.call_site(), Some(CallSiteId::new(5)));
        assert!(!Op::Add.is_call());
        assert_eq!(Op::Add.call_site(), None);
    }

    #[test]
    fn backedge_detection() {
        assert!(Op::Jump(3).is_backedge_from(3));
        assert!(Op::Jump(0).is_backedge_from(10));
        assert!(!Op::Jump(11).is_backedge_from(10));
        assert!(!Op::Add.is_backedge_from(0));
    }

    #[test]
    fn jump_target_rewrite() {
        assert_eq!(Op::Jump(1).with_jump_target(9), Op::Jump(9));
        assert_eq!(Op::JumpIfZero(1).with_jump_target(9), Op::JumpIfZero(9));
        let g = Op::GuardClass {
            class: ClassId::new(2),
            not_taken: 4,
        };
        assert_eq!(
            g.with_jump_target(7),
            Op::GuardClass {
                class: ClassId::new(2),
                not_taken: 7
            }
        );
        // Non-jumps pass through unchanged.
        assert_eq!(Op::Mul.with_jump_target(9), Op::Mul);
    }

    #[test]
    fn stack_effects() {
        let arity = |_m: MethodId| 2u16;
        assert_eq!(Op::Const(1).stack_effect(arity), 1);
        assert_eq!(Op::Add.stack_effect(arity), -1);
        assert_eq!(Op::PutField(0).stack_effect(arity), -2);
        assert_eq!(
            Op::Call {
                site: CallSiteId::new(0),
                target: MethodId::new(0)
            }
            .stack_effect(arity),
            -1 // pops 2 args, pushes 1 result
        );
        assert_eq!(
            Op::CallVirtual {
                site: CallSiteId::new(0),
                slot: VirtualSlot::new(0),
                arity: 1
            }
            .stack_effect(arity),
            0 // pops receiver, pushes result
        );
    }

    #[test]
    fn fall_through() {
        assert!(!Op::Jump(0).falls_through());
        assert!(!Op::Return.falls_through());
        assert!(Op::JumpIfZero(0).falls_through());
        assert!(Op::Add.falls_through());
    }

    #[test]
    fn encoded_sizes_are_positive() {
        let ops = [
            Op::Nop,
            Op::Const(0),
            Op::Load(0),
            Op::GetField(1),
            Op::Jump(0),
            Op::Call {
                site: CallSiteId::new(0),
                target: MethodId::new(0),
            },
            Op::GuardClass {
                class: ClassId::new(0),
                not_taken: 0,
            },
        ];
        for op in ops {
            assert!(op.encoded_size() >= 1, "{op} has zero size");
        }
    }

    #[test]
    fn every_plain_op_parses_back_from_its_text_form() {
        let operands = [
            Op::Const(i64::MIN),
            Op::Load(3),
            Op::Store(u16::MAX),
            Op::GetField(1),
            Op::PutField(2),
            Op::Io(9),
        ];
        let mut symbolic = 0;
        for op in MNEMONICS.map(|(_, op)| op).into_iter().chain(operands) {
            let text = op.to_string();
            let mut tokens = text.split_whitespace();
            match Op::parse_plain(tokens.next().unwrap(), tokens.next()) {
                Some(parsed) => assert_eq!(parsed, Ok(op), "{text}"),
                None => symbolic += 1,
            }
        }
        // jump, jz, jnz, call, callvirt, new, guard.
        assert_eq!(symbolic, 7);
        assert_eq!(Op::Return.to_string(), "ret");
        assert_eq!(
            Op::parse_plain("load", Some("70000")),
            Some(Err("`70000` is not a valid number".to_owned()))
        );
        assert_eq!(
            Op::parse_plain("const", None),
            Some(Err("`const` needs an operand".to_owned()))
        );
        assert_eq!(Op::parse_plain("return", None), None);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Op::Nop.to_string(), "nop");
        assert_eq!(Op::Const(7).to_string(), "const 7");
        assert_eq!(
            Op::CallVirtual {
                site: CallSiteId::new(1),
                slot: VirtualSlot::new(2),
                arity: 3
            }
            .to_string(),
            "callvirt v2/3 [s1]"
        );
    }
}
