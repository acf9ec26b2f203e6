//! The instruction set is defined once, on `Op`: these tests hold those
//! definitions to independent references.
//!
//! * `Op::eval_int`, which the interpreter, its fused runs and constant
//!   folding all call, against the reference interpreter's own `arith`
//!   (`support/oracle.rs`), on edge operands and seeded random pairs.
//! * The text form: a program that uses every opcode variant survives
//!   `disassemble` → `assemble` unchanged.

#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

use cbs_bytecode::{assemble, disassemble, Op};
use cbs_prng::SmallRng;
use cbs_repro::prelude::*;
use std::collections::HashSet;
use std::mem::discriminant;

const BINOPS: [Op; 13] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Rem,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::CmpEq,
    Op::CmpLt,
    Op::CmpGt,
];

/// What the reference interpreter computes for `a <op> b` on two
/// integers. It compares with `CmpEq` on values, outside `arith`.
fn reference(op: Op, a: i64, b: i64) -> Option<i64> {
    match op {
        Op::CmpEq => Some(i64::from(a == b)),
        op => oracle::arith(op, a, b),
    }
}

fn check(a: i64, b: i64) {
    for op in BINOPS {
        let got = op.eval_int(a, b);
        assert_eq!(got, reference(op, a, b), "{op} on ({a}, {b})");
        let zero_divisor = matches!(op, Op::Div | Op::Rem) && b == 0;
        assert_eq!(got.is_none(), zero_divisor, "{op} on ({a}, {b})");
    }
}

#[test]
fn eval_int_agrees_with_the_reference_on_every_binop() {
    let edges = [i64::MIN, i64::MAX, -1, 0, 1, 63, 64, -65];
    for a in edges {
        for b in edges {
            check(a, b);
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x15A);
    for _ in 0..10_000 {
        check(rng.next_u64() as i64, rng.next_u64() as i64);
    }
    for op in [Op::Neg, Op::Nop, Op::Const(3), Op::Load(0), Op::Return] {
        assert_eq!(op.eval_int(6, 3), None, "{op} is not a binop");
    }
}

/// Every one of `Op`'s 32 variants, each spelled once or more.
const EVERY_OPCODE: &str = r#"
class Base fields=1
class Sub extends=Base fields=0

method Base.get class=Base params=1 locals=0 {
    load 0
    getfield 0
    ret
}

method helper class=Base params=1 locals=0 {
    load 0
    const 1
    add
    ret
}

method main class=Base params=0 locals=2 {
    new Sub
    store 0
    load 0
    const 7
    putfield 0
    load 0
    callvirt 0 1
    call helper
    store 1
    load 1
    const 3
    sub
    const -2
    mul
    const 5
    div
    const 3
    rem
    neg
    const 6
    and
    const 1
    or
    const 2
    xor
    const 1
    shl
    const 1
    shr
    dup
    cmpeq
    const 0
    cmplt
    const 0
    cmpgt
    const 1
    swap
    pop
    pop
    io 5
    pop
    nop
    load 0
    guard Sub fail
    const 1
    jz fail
    const 0
    jnz fail
    jump done
fail:
    const -1
    store 1
done:
    load 1
    ret
}

vtable Base 0 Base.get
vtable Sub 0 Base.get
entry main
"#;

#[test]
fn every_opcode_round_trips_through_the_text_form() {
    let original = assemble(EVERY_OPCODE).unwrap();
    let kinds: HashSet<_> = (original.methods().iter())
        .flat_map(|m| m.code().iter().map(discriminant))
        .collect();
    assert_eq!(kinds.len(), 32, "the program must use every opcode variant");

    let text = disassemble(&original);
    let rebuilt = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for (a, b) in original.methods().iter().zip(rebuilt.methods()) {
        assert_eq!(a.code(), b.code(), "{}:\n{text}", a.name());
    }
    assert_eq!(disassemble(&rebuilt), text);

    let run = |p| Vm::new(p, VmConfig::default()).run_unprofiled().unwrap();
    assert_eq!(run(&original).return_values, run(&rebuilt).return_values);
}
