//! Decoding a program for the run loop, once per [`Vm`](crate::Vm).
//!
//! [`Decoded::new`] lays every method out in four flat tables that
//! [`Vm::run_with`](crate::Vm::run_with) reads and nothing else:
//!
//! * one [`Slot`] per op, every method's ops concatenated: the op's
//!   charge and the fused run that starts there;
//! * one table of fused runs, a [`Run`] each;
//! * one table of [`Step`]s, each carrying its operation directly;
//! * one [`Entry`] per method: its code, where its slots start, and its
//!   parameter and local counts.
//!
//! The fused runs are found by [`scan_runs`], a maximal-munch scan for
//! the superinstruction grammar ([`FusedKind`], [`RunHead`],
//! [`RunStep`]), and lowered into the tables as they are found. Each
//! table is sized exactly by a counting pass over the same scan.

use crate::cost::CostModel;
use crate::value::Value;
use cbs_bytecode::{Op, Program};

/// A run as [`scan_fused`] records it: the grammar's own view of the
/// scan, which [`Decoded::new`] lowers into a [`Run`] instead.
#[cfg(test)]
#[derive(Debug, Clone)]
struct Fused {
    total_cost: u64,
    num_ops: u64,
    next_pc: u32,
    kind: FusedKind<Box<[RunStep]>>,
}

/// The two superinstruction templates. `S` holds an integer run's steps:
/// the scan lends them as a slice.
#[derive(Debug, Clone)]
enum FusedKind<S> {
    /// A straight-line integer computation held in a register:
    ///
    /// ```text
    /// [Load src] [binop] { Const k, binop | Store d, Load d }* [Store dst]
    /// ```
    ///
    /// at least three ops and one arithmetic step long. The generator's
    /// `Load s, Const k, op, Store s` quads, the `Load s, op, Store s`
    /// accumulate emitted after every call, and the
    /// `Load s, (Const k, op)+, Store d` chains `cbs-opt`'s store/load
    /// forwarding rewrites them into are all instances.
    IntRun {
        /// Where the accumulator starts.
        head: RunHead,
        steps: S,
        /// `Store dst` closes the run; without it the result is pushed.
        dst: Option<u16>,
    },
    /// `Load s, [Const k, <op>], JumpIfZero/NonZero(target)` with a
    /// *forward* target — a guard branch, or (without the test) the
    /// loop-exit check of an inlined counted loop. Forward jumps are not
    /// backedges, so the per-op path fires no yieldpoint here either.
    TestBranch {
        slot: u16,
        test: Option<(Op, i64)>,
        target: u32,
        jump_if_zero: bool,
    },
}

#[cfg(test)]
impl<S> FusedKind<S> {
    fn map_steps<T>(self, f: impl FnOnce(S) -> T) -> FusedKind<T> {
        match self {
            FusedKind::IntRun { head, steps, dst } => FusedKind::IntRun {
                head,
                steps: f(steps),
                dst,
            },
            FusedKind::TestBranch {
                slot,
                test,
                target,
                jump_if_zero,
            } => FusedKind::TestBranch {
                slot,
                test,
                target,
                jump_if_zero,
            },
        }
    }
}

/// How an [`FusedKind::IntRun`] obtains its accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunHead {
    /// `Load s`: the local.
    Local(u16),
    /// `Load s, <binop>`: the operand-stack top folded with the local
    /// (`top <op> local`), popping the top.
    FoldTop(u16, Op),
    /// No leading `Load`: the operand-stack top, popped.
    Top,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunStep {
    /// `Const k, <binop>`: `acc = acc <op> k`.
    Arith(Op, i64),
    /// `Store d, Load d`: a spill — the local is written, the
    /// accumulator stays in its register. Spills a later step of the same
    /// run overwrites are dropped by [`scan_runs`].
    Spill(u16),
}

/// Integer binops whose fused evaluation cannot trap and exactly matches
/// the per-op arms when both operands are `Int`.
fn fusible_int_binop(op: Op) -> bool {
    matches!(
        op,
        Op::Add
            | Op::Sub
            | Op::Mul
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::CmpLt
            | Op::CmpGt
    )
}

/// [`Op::eval_int`] for an op [`scan_runs`] admitted: a binop, and a
/// `Div`/`Rem` only by a non-zero constant, so there is always a result.
#[inline]
fn fused_eval(op: Op, a: i64, b: i64) -> i64 {
    op.eval_int(a, b)
        .unwrap_or_else(|| unreachable!("scan_runs admits only binops that cannot trap"))
}

/// Matches the [`FusedKind::IntRun`] grammar at `p`, returning the pc
/// after the run and the run, its steps borrowed from `steps`, the
/// scan's scratch buffer.
fn scan_int_run<'s>(
    code: &[Op],
    p: usize,
    steps: &'s mut Vec<RunStep>,
) -> Option<(u32, FusedKind<&'s [RunStep]>)> {
    let mut q = p;
    let mut arith_steps = 0usize;
    let head = match code[q] {
        Op::Load(s) => {
            q += 1;
            match code.get(q) {
                Some(&op) if fusible_int_binop(op) => {
                    q += 1;
                    arith_steps += 1;
                    RunHead::FoldTop(s, op)
                }
                _ => RunHead::Local(s),
            }
        }
        _ => RunHead::Top,
    };
    steps.clear();
    while let (Some(&a), Some(&b)) = (code.get(q), code.get(q + 1)) {
        match (a, b) {
            // Div/Rem by a non-zero constant cannot trap either.
            (Op::Const(k), op)
                if fusible_int_binop(op) || (matches!(op, Op::Div | Op::Rem) && k != 0) =>
            {
                steps.push(RunStep::Arith(op, k));
                arith_steps += 1;
            }
            // Only the last write to a local survives the run: nothing
            // inside it reads a spilled slot back except the `Load` the
            // spill absorbs.
            (Op::Store(d), Op::Load(e)) if d == e => {
                steps.retain(|&s| s != RunStep::Spill(d));
                steps.push(RunStep::Spill(d));
            }
            _ => break,
        }
        q += 2;
    }
    let dst = match code.get(q) {
        Some(&Op::Store(d)) => {
            q += 1;
            Some(d)
        }
        _ => None,
    };
    if arith_steps == 0 || q - p < 3 {
        return None;
    }
    if let Some(d) = dst {
        steps.retain(|&s| s != RunStep::Spill(d));
    }
    Some((
        q as u32,
        FusedKind::IntRun {
            head,
            steps: steps.as_slice(),
            dst,
        },
    ))
}

/// Matches the [`FusedKind::TestBranch`] template at `p`, returning the
/// pc after the run and the run.
fn scan_test_branch<S>(code: &[Op], p: usize) -> Option<(u32, FusedKind<S>)> {
    let Op::Load(slot) = code[p] else {
        return None;
    };
    let (test, jump_pc) = match (code.get(p + 1), code.get(p + 2)) {
        (Some(&Op::Const(k)), Some(&op)) if fusible_int_binop(op) || op == Op::CmpEq => {
            (Some((op, k)), p + 3)
        }
        _ => (None, p + 1),
    };
    let (target, jump_if_zero) = match code.get(jump_pc) {
        Some(&Op::JumpIfZero(t)) => (t, true),
        Some(&Op::JumpIfNonZero(t)) => (t, false),
        _ => return None,
    };
    // A backward target is a backedge yieldpoint and must stay per-op.
    (target as usize > jump_pc).then_some((
        jump_pc as u32 + 1,
        FusedKind::TestBranch {
            slot,
            test,
            target,
            jump_if_zero,
        },
    ))
}

/// The fusion scan of one method: a maximal-munch linear scan for the
/// [`FusedKind`] templates, calling `emit(p, next_pc, run)` for each run
/// found, an integer run's steps borrowed from `scratch`. Runs are
/// recorded only at their first pc; a jump that lands inside a run
/// simply executes per-op from there (correct, just not fused).
fn scan_runs(
    code: &[Op],
    scratch: &mut Vec<RunStep>,
    mut emit: impl FnMut(usize, u32, FusedKind<&[RunStep]>),
) {
    let mut p = 0usize;
    while p < code.len() {
        // The branch first: it also swallows the jump an integer run
        // over the same `Load, Const, op` would leave to the per-op path.
        let run = match scan_test_branch(code, p) {
            Some(run) => Some(run),
            None => scan_int_run(code, p, scratch),
        };
        match run {
            Some((next_pc, kind)) => {
                emit(p, next_pc, kind);
                p = next_pc as usize;
            }
            None => p += 1,
        }
    }
}

/// The superinstruction table of one method, `costs` its per-op charges:
/// `scan_fused(code, costs)[pc]` is the run [`scan_runs`] records at
/// `pc`. The grammar's own view of the scan, which
/// [`Decoded::new`] lowers into flat tables instead.
#[cfg(test)]
fn scan_fused(code: &[Op], costs: &[u64]) -> Vec<Option<Box<Fused>>> {
    let mut out: Vec<Option<Box<Fused>>> = vec![None; code.len()];
    scan_runs(code, &mut Vec::new(), |p, next_pc, kind| {
        let q = next_pc as usize;
        out[p] = Some(Box::new(Fused {
            total_cost: costs[p..q].iter().sum(),
            num_ops: (q - p) as u64,
            next_pc,
            kind: kind.map_steps(Box::from),
        }));
    });
    out
}

/// The charge and fused run of one op: 8 bytes, so the per-op path
/// learns both from one load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The op's charge in cycles, or [`Slot::COST_ESCAPE`] for a charge
    /// that does not fit below it, which the cost model supplies.
    cost: u32,
    /// Index into [`Decoded::runs`] of the run that starts at this op; 0
    /// means none.
    pub(crate) fused: u32,
}

impl Slot {
    /// The `cost` of an op whose charge is `u32::MAX` or more.
    const COST_ESCAPE: u32 = u32::MAX;

    fn new(charge: u64) -> Self {
        Self {
            cost: u32::try_from(charge).unwrap_or(Self::COST_ESCAPE),
            fused: 0,
        }
    }

    /// The cycles `op`, the op this slot belongs to, charges under
    /// `model`, the model the slot was decoded with.
    #[inline]
    pub(crate) fn charge(self, op: &Op, model: &CostModel) -> u64 {
        if self.cost == Self::COST_ESCAPE {
            model.op_cost(op)
        } else {
            u64::from(self.cost)
        }
    }
}

/// A superinstruction as the run loop reads it: a straight-line run of
/// ops that [`Vm::run_with`](crate::Vm::run_with) executes as one
/// dispatch when no timer tick or fuel boundary can land inside it
/// (`clock + total_cost` is below both the next tick's deadline and the
/// first cycle past the budget). Under that guard the run contains no
/// profiler-observable point — no tick, no trap, no call/return/backedge
/// yieldpoint — so collapsing it changes nothing a profiler or the
/// [`ExecReport`](crate::ExecReport) can see: the clock advances by the
/// same total, the instruction count by the same number of ops, and the
/// frame ends in the same state the per-op path leaves. If the guard
/// fails (or an operand is not an `Int`, where the per-op path could
/// trap), the interpreter falls back to per-op execution of the very same
/// ops.
///
/// A run covers the pcs from its first to `next_pc`, so their difference
/// is its op count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// Sum of the constituent ops' costs.
    pub(crate) total_cost: u64,
    /// pc after the run (fall-through pc for a test-branch).
    pub(crate) next_pc: u32,
    /// An integer run's steps; a test-branch's test, if it has one.
    pub(crate) steps: StepRange,
    pub(crate) shape: Shape,
}

// The sizes the run loop's loads are laid out for.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);
const _: () = assert!(std::mem::size_of::<Run>() == 32);

/// A [`FusedKind`], lowered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    /// [`FusedKind::IntRun`]: `head`, then the steps, then `Store dst`,
    /// or a push without one.
    Int { head: Head, dst: Option<u16> },
    /// [`FusedKind::TestBranch`]: the local, the test (a step), then the
    /// jump to `target` or the fall-through.
    Branch {
        slot: u16,
        jump_if_zero: bool,
        target: u32,
    },
}

impl Shape {
    /// Lowers a run the scan found, handing its steps to `emit`.
    fn lower(kind: FusedKind<&[RunStep]>, mut emit: impl FnMut(Step)) -> Self {
        match kind {
            FusedKind::IntRun { head, steps, dst } => {
                Step::lower(steps, emit);
                let head = match head {
                    RunHead::Local(s) => Head::Local(s),
                    RunHead::FoldTop(s, op) => Head::Fold(s, BinOp::of(op)),
                    RunHead::Top => Head::Top,
                };
                Shape::Int { head, dst }
            }
            FusedKind::TestBranch {
                slot,
                test,
                target,
                jump_if_zero,
            } => {
                if let Some((op, k)) = test {
                    emit(Step::of(op, k));
                }
                Shape::Branch {
                    slot,
                    jump_if_zero,
                    target,
                }
            }
        }
    }
}

/// A [`RunHead`], lowered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Head {
    /// The local.
    Local(u16),
    /// The operand-stack top, popped, folded with the local by the op.
    Fold(u16, BinOp),
    /// The operand-stack top, popped.
    Top,
}

/// A binop a run's head folds the stack top with, in a byte.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpLt,
    CmpGt,
}

impl BinOp {
    fn of(op: Op) -> Self {
        match op {
            Op::Add => BinOp::Add,
            Op::Sub => BinOp::Sub,
            Op::Mul => BinOp::Mul,
            Op::And => BinOp::And,
            Op::Or => BinOp::Or,
            Op::Xor => BinOp::Xor,
            Op::Shl => BinOp::Shl,
            Op::Shr => BinOp::Shr,
            Op::CmpLt => BinOp::CmpLt,
            Op::CmpGt => BinOp::CmpGt,
            _ => unreachable!("scan_runs folds with no {op:?}"),
        }
    }

    /// `a <op> b`.
    #[inline(always)]
    pub(crate) fn eval(self, a: i64, b: i64) -> i64 {
        let op = match self {
            BinOp::Add => Op::Add,
            BinOp::Sub => Op::Sub,
            BinOp::Mul => Op::Mul,
            BinOp::And => Op::And,
            BinOp::Or => Op::Or,
            BinOp::Xor => Op::Xor,
            BinOp::Shl => Op::Shl,
            BinOp::Shr => Op::Shr,
            BinOp::CmpLt => Op::CmpLt,
            BinOp::CmpGt => Op::CmpGt,
        };
        fused_eval(op, a, b)
    }
}

/// Where a run's steps lie in [`Decoded::steps`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepRange {
    start: u32,
    end: u32,
}

/// One lowered [`RunStep`] (or several folded into one), or a
/// test-branch's test: the operation is the variant, so executing a step
/// is one `match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Add(i64),
    Sub(i64),
    Mul(i64),
    Div(i64),
    Rem(i64),
    And(i64),
    Or(i64),
    Xor(i64),
    Shl(i64),
    Shr(i64),
    CmpLt(i64),
    CmpGt(i64),
    CmpEq(i64),
    /// `(acc ^ x) * m + c`: adjacent steps folded into one (see
    /// [`Step::lower`]).
    XorMulAdd(i64, i64, i64),
    /// Writes the accumulator to the local at `base + d`.
    Spill(u16),
}

impl Step {
    /// `<op> k`, for an op [`scan_runs`] admits.
    fn of(op: Op, k: i64) -> Self {
        match op {
            Op::Add => Step::Add(k),
            Op::Sub => Step::Sub(k),
            Op::Mul => Step::Mul(k),
            Op::Div => Step::Div(k),
            Op::Rem => Step::Rem(k),
            Op::And => Step::And(k),
            Op::Or => Step::Or(k),
            Op::Xor => Step::Xor(k),
            Op::Shl => Step::Shl(k),
            Op::Shr => Step::Shr(k),
            Op::CmpLt => Step::CmpLt(k),
            Op::CmpGt => Step::CmpGt(k),
            Op::CmpEq => Step::CmpEq(k),
            _ => unreachable!("scan_runs admits no {op:?} step"),
        }
    }

    /// `(m, c)` with `acc <op> k == acc * m + c` in wrapping arithmetic,
    /// if the step is of that form.
    fn affine(step: RunStep) -> Option<(i64, i64)> {
        match step {
            RunStep::Arith(Op::Add, k) => Some((1, k)),
            RunStep::Arith(Op::Sub, k) => Some((1, k.wrapping_neg())),
            RunStep::Arith(Op::Mul, k) => Some((k, 0)),
            RunStep::Arith(Op::Shl, k) => Some((1i64.wrapping_shl(k as u32 & 63), 0)),
            _ => None,
        }
    }

    /// `(acc ^ x) * m + c`, as the cheapest step that computes it.
    fn fold((x, m, c): (i64, i64, i64)) -> Self {
        match (x, m, c) {
            (0, 1, c) => Step::Add(c),
            (0, m, 0) => Step::Mul(m),
            (x, 1, 0) => Step::Xor(x),
            (x, m, c) => Step::XorMulAdd(x, m, c),
        }
    }

    /// Lowers a run's steps, handing each to `emit`. Adjacent steps fold
    /// into one `(acc ^ x) * m + c`: any chain of affine steps (`Add`,
    /// `Sub`, `Mul`, `Shl`), after at most one run of `Xor`s. Composing
    /// `* m1 + c1` with `* m2 + c2`, and `^ x1` with `^ x2`, is exact in
    /// wrapping arithmetic, so the accumulator ends each folded step
    /// where its steps would have left it, and a spill between two
    /// folds still writes the value the per-op path stores.
    fn lower(run: &[RunStep], mut emit: impl FnMut(Step)) {
        let mut fold: Option<(i64, i64, i64)> = None;
        for &step in run {
            if let Some((m2, c2)) = Step::affine(step) {
                let (x, m, c) = fold.unwrap_or((0, 1, 0));
                fold = Some((x, m.wrapping_mul(m2), c.wrapping_mul(m2).wrapping_add(c2)));
                continue;
            }
            match (fold, step) {
                // A xor folds only into a fold that is all xors so far.
                (Some((x, 1, 0)), RunStep::Arith(Op::Xor, k)) => fold = Some((x ^ k, 1, 0)),
                _ => {
                    if let Some(done) = fold.take() {
                        emit(Step::fold(done));
                    }
                    match step {
                        RunStep::Arith(Op::Xor, k) => fold = Some((k, 1, 0)),
                        RunStep::Arith(op, k) => emit(Step::of(op, k)),
                        RunStep::Spill(d) => emit(Step::Spill(d)),
                    }
                }
            }
        }
        if let Some(done) = fold {
            emit(Step::fold(done));
        }
    }

    /// The accumulator after this step, which a spill also writes to
    /// the local it names, counted from `base` in `values`.
    #[inline(always)]
    pub(crate) fn apply(self, acc: i64, values: &mut [Value], base: usize) -> i64 {
        match self {
            Step::Add(k) => fused_eval(Op::Add, acc, k),
            Step::Sub(k) => fused_eval(Op::Sub, acc, k),
            Step::Mul(k) => fused_eval(Op::Mul, acc, k),
            Step::Div(k) => fused_eval(Op::Div, acc, k),
            Step::Rem(k) => fused_eval(Op::Rem, acc, k),
            Step::And(k) => fused_eval(Op::And, acc, k),
            Step::Or(k) => fused_eval(Op::Or, acc, k),
            Step::Xor(k) => fused_eval(Op::Xor, acc, k),
            Step::Shl(k) => fused_eval(Op::Shl, acc, k),
            Step::Shr(k) => fused_eval(Op::Shr, acc, k),
            Step::CmpLt(k) => fused_eval(Op::CmpLt, acc, k),
            Step::CmpGt(k) => fused_eval(Op::CmpGt, acc, k),
            Step::CmpEq(k) => fused_eval(Op::CmpEq, acc, k),
            Step::XorMulAdd(x, m, c) => (acc ^ x).wrapping_mul(m).wrapping_add(c),
            Step::Spill(d) => {
                values[base + usize::from(d)] = Value::Int(acc);
                acc
            }
        }
    }
}

/// One method, as a call or return switches to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'p> {
    /// The method's code, read from the program itself.
    pub(crate) code: &'p [Op],
    /// Where the method's slots start in [`Decoded::slots`].
    start: usize,
    pub(crate) num_params: u16,
    pub(crate) num_locals: u16,
}

/// `n` as an index into a decoded table.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("decoded tables are indexed by u32")
}

/// A program decoded for the run loop under one cost model.
#[derive(Debug)]
pub(crate) struct Decoded<'p> {
    /// One record per method, indexed by `MethodId`.
    pub(crate) entries: Vec<Entry<'p>>,
    /// One slot per op, the methods' ops concatenated.
    slots: Vec<Slot>,
    /// The fused runs; index 0 is a placeholder, as a slot's 0 means none.
    pub(crate) runs: Vec<Run>,
    /// The runs' steps, each run's contiguous.
    steps: Vec<Step>,
}

impl<'p> Decoded<'p> {
    /// Decodes `program`, charging each op what `cost` says.
    pub(crate) fn new(program: &'p Program, cost: &CostModel) -> Self {
        let methods = program.methods();
        let mut scratch = Vec::new();
        // The counting pass: exact sizes, so no table grows by doubling.
        let (mut num_runs, mut num_steps) = (1usize, 0usize);
        for m in methods {
            scan_runs(m.code(), &mut scratch, |_, _, kind| {
                num_runs += 1;
                Shape::lower(kind, |_| num_steps += 1);
            });
        }
        let num_ops = methods.iter().map(|m| m.code().len()).sum();
        let mut entries = Vec::with_capacity(methods.len());
        let mut slots = Vec::with_capacity(num_ops);
        let mut runs = Vec::with_capacity(num_runs);
        let mut steps = Vec::with_capacity(num_steps);
        runs.push(Run {
            total_cost: 0,
            next_pc: 0,
            steps: StepRange { start: 0, end: 0 },
            shape: Shape::Int {
                head: Head::Top,
                dst: None,
            },
        });
        for m in methods {
            let code = m.code();
            let start = slots.len();
            entries.push(Entry {
                code,
                start,
                num_params: m.num_params(),
                num_locals: m.num_locals(),
            });
            slots.extend(code.iter().map(|op| Slot::new(cost.op_cost(op))));
            let row = &mut slots[start..];
            scan_runs(code, &mut scratch, |p, next_pc, kind| {
                row[p].fused = index(runs.len());
                let first_step = index(steps.len());
                let shape = Shape::lower(kind, |step| steps.push(step));
                runs.push(Run {
                    total_cost: code[p..next_pc as usize]
                        .iter()
                        .map(|op| cost.op_cost(op))
                        .sum(),
                    next_pc,
                    steps: StepRange {
                        start: first_step,
                        end: index(steps.len()),
                    },
                    shape,
                });
            });
        }
        debug_assert_eq!((runs.len(), steps.len()), (num_runs, num_steps));
        Self {
            entries,
            slots,
            runs,
            steps,
        }
    }

    /// `entry`'s slots, one per op of its code.
    #[inline]
    pub(crate) fn slots(&self, entry: &Entry<'_>) -> &[Slot] {
        &self.slots[entry.start..entry.start + entry.code.len()]
    }

    /// The steps `range` names.
    #[inline]
    pub(crate) fn steps(&self, range: StepRange) -> &[Step] {
        &self.steps[range.start as usize..range.end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the two templates `scan_fused` recognizes: the integer-run
    /// grammar with each optional part present and absent, spill
    /// elision, and everything the guard's soundness rests on being
    /// refused at scan time (division by a zero constant, backward
    /// branches, runs shorter than three ops).
    #[test]
    fn scan_fused_pins_the_run_grammar() {
        use RunHead::{FoldTop, Local, Top};
        use RunStep::{Arith, Spill};
        // One cycle per op, so `total_cost == num_ops`.
        let scan = |code: &[Op]| scan_fused(code, &vec![1u64; code.len()]);
        let run_at = |code: &[Op], p: usize| {
            let f = scan(code)[p].clone().expect("run fuses");
            assert_eq!(f.total_cost, f.num_ops);
            let FusedKind::IntRun { head, steps, dst } = f.kind else {
                panic!("expected an integer run at {p}: {:?}", f.kind)
            };
            (f.num_ops, f.next_pc, head, steps.into_vec(), dst)
        };

        // The generator's quads on one slot: one maximal run, recorded
        // at its first pc only; the interior `Store 0, Load 0` is a spill
        // the closing `Store 0` overwrites, so it is dropped.
        let quads = [
            Op::Load(0),
            Op::Const(5),
            Op::Add,
            Op::Store(0),
            Op::Load(0),
            Op::Const(1),
            Op::Xor,
            Op::Store(0),
            Op::Return,
        ];
        assert_eq!(
            run_at(&quads, 0),
            (
                8,
                8,
                Local(0),
                vec![Arith(Op::Add, 5), Arith(Op::Xor, 1)],
                Some(0)
            )
        );
        assert!(scan(&quads)[1..].iter().all(Option::is_none), "interiors");

        // The optimizer's forwarded chain into another slot.
        let chain = [
            Op::Load(1),
            Op::Const(3),
            Op::Mul,
            Op::Const(7),
            Op::Sub,
            Op::Store(2),
        ];
        assert_eq!(
            run_at(&chain, 0),
            (
                6,
                6,
                Local(1),
                vec![Arith(Op::Mul, 3), Arith(Op::Sub, 7)],
                Some(2)
            )
        );

        // A leading bare binop folds the stack top in — alone (the
        // accumulate after a call) or ahead of further steps.
        let fold = [Op::Load(2), Op::Add, Op::Store(2), Op::Return];
        assert_eq!(
            run_at(&fold, 0),
            (3, 3, FoldTop(2, Op::Add), vec![], Some(2))
        );
        let fold_chain = [Op::Load(2), Op::Sub, Op::Const(9), Op::Xor, Op::Store(2)];
        assert_eq!(
            run_at(&fold_chain, 0),
            (5, 5, FoldTop(2, Op::Sub), vec![Arith(Op::Xor, 9)], Some(2))
        );

        // No closing store: the result stays on the stack.
        let open = [Op::Load(1), Op::Const(4), Op::Shl, Op::Return];
        assert_eq!(
            run_at(&open, 0),
            (3, 3, Local(1), vec![Arith(Op::Shl, 4)], None)
        );

        // No leading load: the accumulator is the stack top.
        let from_top = [Op::Nop, Op::Const(2), Op::And, Op::Store(3)];
        assert_eq!(
            run_at(&from_top, 1),
            (3, 4, Top, vec![Arith(Op::And, 2)], Some(3))
        );

        // Spills: one to a slot nothing later writes is kept, in order;
        // a trailing spill leaves the value in the local and on the stack.
        let spills = [
            Op::Load(0),
            Op::Const(1),
            Op::Add,
            Op::Store(4),
            Op::Load(4),
            Op::Const(2),
            Op::Mul,
            Op::Store(5),
            Op::Load(5),
            Op::Return,
        ];
        assert_eq!(
            run_at(&spills, 0),
            (
                9,
                9,
                Local(0),
                vec![Arith(Op::Add, 1), Spill(4), Arith(Op::Mul, 2), Spill(5)],
                None
            )
        );
        // `Store 4, Load 5` is not a spill: the run closes at the store.
        let not_spill = [
            Op::Load(0),
            Op::Const(1),
            Op::Add,
            Op::Store(4),
            Op::Load(5),
            Op::Return,
        ];
        assert_eq!(run_at(&not_spill, 0).1, 4);

        // Division fuses only by a non-zero constant: a zero divisor must
        // reach the per-op arm that traps on it.
        let div0 = [Op::Load(0), Op::Const(0), Op::Div, Op::Store(0)];
        assert!(scan(&div0).iter().all(Option::is_none));
        let rem0 = [Op::Load(0), Op::Const(0), Op::Rem, Op::Store(0)];
        assert!(scan(&rem0).iter().all(Option::is_none));
        let div2 = [Op::Load(0), Op::Const(2), Op::Div, Op::Store(0)];
        assert_eq!(run_at(&div2, 0).3, vec![Arith(Op::Div, 2)]);

        // Shorter than three ops, or no arithmetic at all: refused.
        for short in [
            &[Op::Const(1), Op::Add, Op::Return][..],
            &[Op::Load(0), Op::Add, Op::Return],
            &[Op::Load(0), Op::Store(1), Op::Load(1), Op::Store(2)],
            &[Op::Load(0), Op::Neg, Op::Store(0)],
        ] {
            assert!(scan(short).iter().all(Option::is_none), "{short:?}");
        }

        // Test-branch, with and without the test, forward targets only:
        // a backward jump is a backedge yieldpoint and stays per-op (the
        // `Load, Const, op` ahead of it still fuses as an open run).
        let branch_at = |code: &[Op], p: usize| {
            let f = scan(code)[p].clone().expect("branch fuses");
            let FusedKind::TestBranch {
                slot,
                test,
                target,
                jump_if_zero,
            } = f.kind
            else {
                panic!("expected a test-branch at {p}: {:?}", f.kind)
            };
            (f.num_ops, f.next_pc, slot, test, target, jump_if_zero)
        };
        let fwd = [
            Op::Load(1),
            Op::Const(3),
            Op::CmpEq,
            Op::JumpIfZero(6),
            Op::Nop,
            Op::Nop,
            Op::Return,
        ];
        assert_eq!(branch_at(&fwd, 0), (4, 4, 1, Some((Op::CmpEq, 3)), 6, true));
        let bare = [Op::Load(6), Op::JumpIfNonZero(3), Op::Nop, Op::Return];
        assert_eq!(branch_at(&bare, 0), (2, 2, 6, None, 3, false));
        let back = [
            Op::Nop,
            Op::Load(1),
            Op::Const(3),
            Op::And,
            Op::JumpIfNonZero(0),
            Op::Return,
        ];
        assert_eq!(
            run_at(&back, 1),
            (3, 4, Local(1), vec![Arith(Op::And, 3)], None)
        );
        let bare_back = [Op::Nop, Op::Load(1), Op::JumpIfZero(1), Op::Return];
        assert!(scan(&bare_back).iter().all(Option::is_none));
    }

    /// Lowering folds adjacent `Xor`s, then `Add`, `Sub`, `Mul` and `Shl`
    /// steps, into one: over random runs of every step the scan admits, the
    /// lowered steps leave the accumulator and every spilled local where
    /// the grammar's steps, one `Op::eval_int` at a time, leave them.
    #[test]
    fn lowered_steps_compute_what_the_run_steps_do() {
        use cbs_prng::prop::run_cases;
        const OPS: [Op; 12] = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Shl,
            Op::Add,
            Op::Mul,
            Op::Xor,
            Op::And,
            Op::Or,
            Op::Shr,
            Op::CmpLt,
            Op::Div,
        ];
        let mut folded = 0;
        run_cases("lowered_steps", 2_000, |rng| {
            let run: Vec<RunStep> = (0..rng.gen_range(1..12usize))
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => RunStep::Spill(rng.gen_range(0..3u32) as u16),
                    _ => {
                        let k = match rng.gen_range(0..4u32) {
                            0 => i64::MIN,
                            1 => -1,
                            _ => rng.next_u64() as i64 | 1,
                        };
                        RunStep::Arith(OPS[rng.gen_range(0..OPS.len())], k)
                    }
                })
                .collect();
            let acc = rng.next_u64() as i64;
            let (mut expected, mut spilled) = (acc, [Value::Int(0); 3]);
            for &step in &run {
                match step {
                    RunStep::Arith(op, k) => expected = op.eval_int(expected, k).unwrap(),
                    RunStep::Spill(d) => spilled[usize::from(d)] = Value::Int(expected),
                }
            }
            let mut lowered = Vec::new();
            Step::lower(&run, |step| lowered.push(step));
            folded += run.len() - lowered.len();
            let (mut got, mut locals) = (acc, [Value::Int(0); 3]);
            for step in lowered {
                got = step.apply(got, &mut locals, 0);
            }
            assert_eq!((got, locals), (expected, spilled), "{run:?}");
        });
        assert!(folded > 1_000, "{folded} steps folded");
    }
}
