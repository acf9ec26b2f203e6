//! Bytecode verification.
//!
//! The verifier enforces the structural invariants the interpreter relies
//! on, so the interpreter itself can trust (and cheaply `debug_assert`)
//! rather than re-validate:
//!
//! * jump targets stay within the method body,
//! * local slot indices stay within the declared frame,
//! * call targets exist and virtual slots resolve in every class that could
//!   flow to them,
//! * the operand stack has a single consistent depth at every instruction
//!   (computed by abstract interpretation) and never underflows,
//! * every path ends in `return`.

use crate::ids::MethodId;
use crate::op::Op;
use crate::program::Program;
use std::error::Error;
use std::fmt;

/// A verification failure, pinpointing the offending method and pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A jump target is outside the method body.
    JumpOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A local slot index is outside the declared frame.
    LocalOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
        /// The out-of-range slot.
        slot: u16,
    },
    /// A direct call names a method id the program does not contain.
    UnknownCallTarget {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
    },
    /// A virtual call dispatches through a slot no class implements.
    UnresolvableSlot {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
        /// The dead slot index.
        slot: u16,
    },
    /// A `new` names a class id the program does not contain.
    UnknownClass {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
    },
    /// The operand stack would underflow at this instruction.
    StackUnderflow {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
    },
    /// Two control-flow paths reach an instruction with different stack
    /// depths.
    InconsistentStackDepth {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
        /// Depth recorded first.
        expected: u32,
        /// Conflicting depth.
        found: u32,
    },
    /// Control can fall off the end of the method body.
    FallsOffEnd {
        /// Offending method.
        method: MethodId,
    },
    /// A virtual call's declared arity disagrees with a resolvable target's
    /// parameter count.
    ArityMismatch {
        /// Offending method.
        method: MethodId,
        /// Offending instruction index.
        pc: u32,
    },
    /// The entry method takes parameters (the VM starts it with none).
    EntryHasParams,
    /// A method body is empty.
    EmptyBody {
        /// Offending method.
        method: MethodId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::JumpOutOfRange { method, pc, target } => {
                write!(f, "{method}@{pc}: jump target {target} out of range")
            }
            VerifyError::LocalOutOfRange { method, pc, slot } => {
                write!(f, "{method}@{pc}: local slot {slot} out of range")
            }
            VerifyError::UnknownCallTarget { method, pc } => {
                write!(f, "{method}@{pc}: unknown call target")
            }
            VerifyError::UnresolvableSlot { method, pc, slot } => {
                write!(f, "{method}@{pc}: no class implements virtual slot {slot}")
            }
            VerifyError::UnknownClass { method, pc } => {
                write!(f, "{method}@{pc}: unknown class")
            }
            VerifyError::StackUnderflow { method, pc } => {
                write!(f, "{method}@{pc}: operand stack underflow")
            }
            VerifyError::InconsistentStackDepth {
                method,
                pc,
                expected,
                found,
            } => write!(
                f,
                "{method}@{pc}: inconsistent stack depth ({expected} vs {found})"
            ),
            VerifyError::FallsOffEnd { method } => {
                write!(f, "{method}: control falls off the end of the body")
            }
            VerifyError::ArityMismatch { method, pc } => {
                write!(f, "{method}@{pc}: virtual call arity mismatch")
            }
            VerifyError::EntryHasParams => {
                write!(f, "entry method must take no parameters")
            }
            VerifyError::EmptyBody { method } => write!(f, "{method}: empty body"),
        }
    }
}

impl Error for VerifyError {}

/// Verifies every method of `program`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify(program: &Program) -> Result<(), VerifyError> {
    if program.method(program.entry()).num_params() != 0 {
        return Err(VerifyError::EntryHasParams);
    }
    for m in program.methods() {
        verify_method(program, m.id())?;
    }
    Ok(())
}

/// Verifies a single method (used after per-method transformations).
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered in the method body.
pub fn verify_method(program: &Program, id: MethodId) -> Result<(), VerifyError> {
    let m = program.method(id);
    let code = m.code();
    if code.is_empty() {
        return Err(VerifyError::EmptyBody { method: id });
    }
    let len = code.len() as u32;

    // Structural checks.
    for (pc, op) in code.iter().enumerate() {
        let pc = pc as u32;
        if let Some(t) = op.jump_target() {
            if t >= len {
                return Err(VerifyError::JumpOutOfRange {
                    method: id,
                    pc,
                    target: t,
                });
            }
        }
        match *op {
            Op::Load(slot) | Op::Store(slot) if slot >= m.num_locals() => {
                return Err(VerifyError::LocalOutOfRange {
                    method: id,
                    pc,
                    slot,
                });
            }
            Op::Call { target, .. } if target.index() >= program.num_methods() => {
                return Err(VerifyError::UnknownCallTarget { method: id, pc });
            }
            Op::CallVirtual { slot, arity, .. } => {
                let targets = program.virtual_targets(slot);
                if targets.is_empty() {
                    return Err(VerifyError::UnresolvableSlot {
                        method: id,
                        pc,
                        slot: slot.0,
                    });
                }
                if targets
                    .iter()
                    .any(|t| program.method(*t).num_params() != arity)
                {
                    return Err(VerifyError::ArityMismatch { method: id, pc });
                }
            }
            Op::New(class) | Op::GuardClass { class, .. }
                if class.index() >= program.num_classes() =>
            {
                return Err(VerifyError::UnknownClass { method: id, pc });
            }
            _ => {}
        }
    }

    // Stack-depth abstract interpretation.
    let arity_of = |t: MethodId| program.method(t).num_params();
    let mut depth_at: Vec<Option<u32>> = vec![None; code.len()];
    let mut worklist = vec![(0u32, 0u32)];
    while let Some((pc, depth)) = worklist.pop() {
        match depth_at[pc as usize] {
            Some(d) if d == depth => continue,
            Some(d) => {
                return Err(VerifyError::InconsistentStackDepth {
                    method: id,
                    pc,
                    expected: d,
                    found: depth,
                });
            }
            None => depth_at[pc as usize] = Some(depth),
        }
        let op = &code[pc as usize];
        let (pops, pushes) = op.stack_signature(arity_of);
        if depth < pops {
            return Err(VerifyError::StackUnderflow { method: id, pc });
        }
        let next_depth = depth - pops + pushes;
        if op.falls_through() {
            if pc + 1 >= len {
                return Err(VerifyError::FallsOffEnd { method: id });
            }
            worklist.push((pc + 1, next_depth));
        }
        if let Some(t) = op.jump_target() {
            worklist.push((t, next_depth));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::class::Class;
    use crate::ids::{CallSiteId, ClassId};
    use crate::method::Method;

    fn raw_program(code: Vec<Op>, num_locals: u16) -> Program {
        let m = Method::new(
            MethodId::new(0),
            "main",
            ClassId::new(0),
            0,
            num_locals,
            code,
        );
        let c = Class::new(ClassId::new(0), "C", None, 1, vec![]);
        Program::from_parts(vec![c], vec![m], MethodId::new(0), 0)
    }

    #[test]
    fn accepts_valid_program() {
        let p = raw_program(vec![Op::Const(1), Op::Return], 0);
        verify(&p).unwrap();
    }

    #[test]
    fn rejects_jump_out_of_range() {
        let p = raw_program(vec![Op::Jump(9), Op::Const(0), Op::Return], 0);
        assert!(matches!(
            verify(&p),
            Err(VerifyError::JumpOutOfRange { target: 9, .. })
        ));
    }

    #[test]
    fn rejects_local_out_of_range() {
        let p = raw_program(vec![Op::Load(3), Op::Return], 1);
        assert!(matches!(
            verify(&p),
            Err(VerifyError::LocalOutOfRange { slot: 3, .. })
        ));
    }

    #[test]
    fn rejects_unknown_call_target() {
        let p = raw_program(
            vec![
                Op::Call {
                    site: CallSiteId::new(0),
                    target: MethodId::new(42),
                },
                Op::Return,
            ],
            0,
        );
        assert!(matches!(
            verify(&p),
            Err(VerifyError::UnknownCallTarget { .. })
        ));
    }

    #[test]
    fn rejects_stack_underflow() {
        let p = raw_program(vec![Op::Add, Op::Return], 0);
        assert!(matches!(
            verify(&p),
            Err(VerifyError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn rejects_fall_off_end() {
        let p = raw_program(vec![Op::Const(1), Op::Pop], 0);
        assert!(matches!(verify(&p), Err(VerifyError::FallsOffEnd { .. })));
    }

    #[test]
    fn rejects_inconsistent_depths() {
        // Two paths reach pc 4 with different stack depths:
        //   0: const 1
        //   1: jz @3     (pops; depth 0 -> jumps to 3 at depth 0)
        //   2: const 5   (depth 1 at pc 3 via fallthrough)
        //   3: const 7   <- reached at depth 0 (jump) and depth 1 (fall)
        //   4: return
        let p = raw_program(
            vec![
                Op::Const(1),
                Op::JumpIfZero(3),
                Op::Const(5),
                Op::Const(7),
                Op::Return,
            ],
            0,
        );
        assert!(matches!(
            verify(&p),
            Err(VerifyError::InconsistentStackDepth { .. })
        ));
    }

    #[test]
    fn rejects_empty_body() {
        let p = raw_program(vec![], 0);
        assert!(matches!(verify(&p), Err(VerifyError::EmptyBody { .. })));
    }

    #[test]
    fn rejects_entry_with_params() {
        let m = Method::new(
            MethodId::new(0),
            "main",
            ClassId::new(0),
            1,
            1,
            vec![Op::Const(1), Op::Return],
        );
        let c = Class::new(ClassId::new(0), "C", None, 0, vec![]);
        let p = Program::from_parts(vec![c], vec![m], MethodId::new(0), 0);
        assert_eq!(verify(&p), Err(VerifyError::EntryHasParams));
    }

    #[test]
    fn rejects_unresolvable_virtual_slot() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.new_object(cls)
                    .call_virtual(crate::ids::VirtualSlot::new(5), 1)
                    .ret();
            })
            .unwrap();
        b.set_entry(main);
        match b.build() {
            Err(crate::builder::BuildError::Verify(VerifyError::UnresolvableSlot {
                slot, ..
            })) => assert_eq!(slot, 5),
            other => panic!("expected UnresolvableSlot, got {other:?}"),
        }
    }

    #[test]
    fn rejects_virtual_arity_mismatch() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 2, 0, |c| {
                c.const_(0).ret();
            })
            .unwrap();
        b.set_vtable(cls, crate::ids::VirtualSlot::new(0), f);
        let main = b
            .function("main", cls, 0, 0, |c| {
                // arity 1, but target takes 2 params
                c.new_object(cls)
                    .call_virtual(crate::ids::VirtualSlot::new(0), 1)
                    .ret();
            })
            .unwrap();
        b.set_entry(main);
        assert!(matches!(
            b.build(),
            Err(crate::builder::BuildError::Verify(
                VerifyError::ArityMismatch { .. }
            ))
        ));
    }

    #[test]
    fn verify_method_checks_single_method() {
        let mut p = raw_program(vec![Op::Const(1), Op::Return], 0);
        verify_method(&p, MethodId::new(0)).unwrap();
        p.replace_method(MethodId::new(0), vec![Op::Pop, Op::Return]);
        assert!(verify_method(&p, MethodId::new(0)).is_err());
    }
}
