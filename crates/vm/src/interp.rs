//! The bytecode interpreter: a cycle-accurate simulated VM.
//!
//! The interpreter executes a verified [`Program`] on a virtual clock
//! (every instruction charges its [`CostModel`](crate::CostModel) cycles),
//! fires timer interrupts at the configured frequency, and reports every
//! profiler-observable event to the attached [`Profiler`]. Green threads
//! are scheduled cooperatively: a timer interrupt requests a switch, which
//! happens at the next yieldpoint (call, return or backedge) — mirroring
//! how Jikes RVM's thread scheduler interacts with its yieldpoints.

use crate::config::{TickSchedule, VmConfig};
use crate::error::VmError;
use crate::events::{CallEvent, NullProfiler, Profiler, StackSlice, ThreadId};
use crate::frame::Frame;
use crate::metrics::VmMetrics;
use crate::report::ExecReport;
use crate::value::{Heap, Value};
use cbs_bytecode::{MethodId, Op, Program};
use cbs_dcg::CallEdge;

/// Run-local fused-dispatch tally, flushed to telemetry on drop so every
/// exit path — clean completion, traps, `OutOfFuel` — reports. Keeping
/// the counts in plain fields means the superinstruction fast path never
/// touches an atomic; the two `fetch_add`s happen once per `run_with`.
#[derive(Default)]
struct FusedTally {
    runs: u64,
    bails: u64,
}

impl Drop for FusedTally {
    fn drop(&mut self) {
        if self.runs != 0 || self.bails != 0 {
            let m = VmMetrics::get();
            m.fused_runs.add(self.runs);
            m.fused_bails.add(self.bails);
        }
    }
}

/// A configured virtual machine, ready to run a program.
///
/// `Vm` is stateless across runs: [`Vm::run_with`] builds all execution state
/// locally, so one `Vm` can run its program repeatedly (e.g. once per
/// profiler configuration) with identical results.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    /// Per-method instruction cost rows, precomputed once at
    /// construction: `cost_rows[m][pc]` is the charge for executing
    /// `methods[m].code()[pc]`, so the hot path reads a table instead of
    /// re-matching [`CostModel::op_cost`](crate::CostModel::op_cost) on
    /// every instruction.
    cost_rows: Vec<Vec<u64>>,
    /// Per-method superinstruction tables: `fused_rows[m][pc]` is the
    /// fused run starting at that pc, if the code matches one of the
    /// [`FusedKind`] templates. See [`scan_fused`].
    fused_rows: Vec<Vec<Option<Box<Fused>>>>,
}

/// A superinstruction: a straight-line run of ops that [`Vm::run_with`]
/// executes as one dispatch when no timer tick or fuel boundary can land
/// inside it (`timer.deadline() > clock + total_cost` and
/// `clock + total_cost <= budget`). Under that guard the run contains no
/// profiler-observable point — no tick, no trap, no call/return/backedge
/// yieldpoint — so collapsing it changes nothing a profiler or the
/// [`ExecReport`] can see: the clock advances by the same total, the
/// instruction count by the same number of ops, and the frame ends in the
/// same state the per-op path leaves. If the guard fails (or an operand
/// is not an `Int`, where the per-op path could trap), the interpreter
/// falls back to per-op execution of the very same ops.
#[derive(Debug, Clone)]
struct Fused {
    /// Sum of the constituent ops' costs.
    total_cost: u64,
    /// Number of constituent ops (for the `instructions` counter).
    num_ops: u64,
    /// pc after the run (fall-through pc for [`FusedKind::TestBranch`]).
    next_pc: u32,
    kind: FusedKind,
}

#[derive(Debug, Clone)]
enum FusedKind {
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
        steps: Box<[RunStep]>,
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
    /// run overwrites are dropped by [`scan_fused`].
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

/// [`Op::eval_int`] for an op [`scan_fused`] admitted: a binop, and a
/// `Div`/`Rem` only by a non-zero constant, so there is always a result.
#[inline]
fn fused_eval(op: Op, a: i64, b: i64) -> i64 {
    op.eval_int(a, b)
        .unwrap_or_else(|| unreachable!("scan_fused admits only binops that cannot trap"))
}

/// Matches the [`FusedKind::IntRun`] grammar at `p`. `steps` is the scan's
/// scratch buffer, so a run costs one exact-size allocation.
fn scan_int_run(code: &[Op], costs: &[u64], p: usize, steps: &mut Vec<RunStep>) -> Option<Fused> {
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
    Some(Fused {
        total_cost: costs[p..q].iter().sum(),
        num_ops: (q - p) as u64,
        next_pc: q as u32,
        kind: FusedKind::IntRun {
            head,
            steps: steps.as_slice().into(),
            dst,
        },
    })
}

/// Matches the [`FusedKind::TestBranch`] template at `p`.
fn scan_test_branch(code: &[Op], costs: &[u64], p: usize) -> Option<Fused> {
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
    (target as usize > jump_pc).then(|| Fused {
        total_cost: costs[p..=jump_pc].iter().sum(),
        num_ops: (jump_pc + 1 - p) as u64,
        next_pc: jump_pc as u32 + 1,
        kind: FusedKind::TestBranch {
            slot,
            test,
            target,
            jump_if_zero,
        },
    })
}

/// Builds the superinstruction table for one method: a maximal-munch
/// linear scan for the [`FusedKind`] templates. Runs are recorded only at
/// their first pc; a jump that lands inside a run simply executes per-op
/// from there (correct, just not fused).
fn scan_fused(code: &[Op], costs: &[u64]) -> Vec<Option<Box<Fused>>> {
    let mut out: Vec<Option<Box<Fused>>> = vec![None; code.len()];
    let mut steps = Vec::new();
    let mut p = 0usize;
    while p < code.len() {
        // The branch first: it also swallows the jump an integer run
        // over the same `Load, Const, op` would leave to the per-op path.
        match scan_test_branch(code, costs, p).or_else(|| scan_int_run(code, costs, p, &mut steps))
        {
            Some(f) => {
                let next = f.next_pc as usize;
                out[p] = Some(Box::new(f));
                p = next;
            }
            None => p += 1,
        }
    }
    out
}

#[derive(Debug)]
struct ThreadState {
    /// The call stack, outermost first; the running frame is the last.
    frames: Vec<Frame>,
    /// The one value stack all of the thread's frames share: each
    /// frame's locals, from its [`Frame::base`], then its operands.
    values: Vec<Value>,
    done: bool,
    result: Value,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program`.
    ///
    /// The program is assumed verified (as [`ProgramBuilder::build`]
    /// guarantees); the interpreter traps rather than panics on dynamic
    /// faults, but structural faults in unverified code may still panic.
    ///
    /// [`ProgramBuilder::build`]: cbs_bytecode::ProgramBuilder::build
    pub fn new(program: &'p Program, config: VmConfig) -> Self {
        let cost = &config.cost;
        let cost_rows: Vec<Vec<u64>> = program
            .methods()
            .iter()
            .map(|m| m.code().iter().map(|op| cost.op_cost(op)).collect())
            .collect();
        let fused_rows = program
            .methods()
            .iter()
            .zip(&cost_rows)
            .map(|(m, costs)| scan_fused(m.code(), costs))
            .collect();
        Self {
            program,
            config,
            cost_rows,
            fused_rows,
        }
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Runs the program to completion with no profiler attached.
    ///
    /// [`Vm::run_with`] at [`NullProfiler`], instantiated inside `cbs-vm`,
    /// so the event hooks compile to nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any runtime trap.
    pub fn run_unprofiled(&self) -> Result<ExecReport, VmError> {
        self.run_with(&mut NullProfiler)
    }

    /// Runs the program to completion, reporting events to `profiler`.
    ///
    /// This is the interpreter's one run loop and the hot path of every
    /// experiment. It is generic over the profiler; `?Sized` lets a
    /// caller holding a trait object pass `&mut dyn Profiler`, which
    /// costs one indirect call per *delivered* hook and per
    /// [`Profiler::armed`] re-read.
    ///
    /// Each thread keeps its frames' locals and operands in one value
    /// stack. A call's arguments become the callee's first locals where
    /// the caller pushed them, and a return truncates the stack to the
    /// callee's locals and pushes the result, so a call copies no
    /// argument, and allocates nothing once the stack has reached the
    /// run's deepest point. Five micro-architectural optimizations below
    /// change no observable behavior: reports, event sequences and trap
    /// points match an independent reference interpreter bit for bit
    /// (`tests/dispatch_equivalence.rs`).
    ///
    /// 1. **Monomorphized dispatch** — with a concrete `P`, profiler
    ///    hooks inline; for [`NullProfiler`] they vanish entirely. The
    ///    instantiation lives in the *caller's* crate, so every helper
    ///    this function calls per op or per call (`Frame`'s accessors,
    ///    `Value::as_int`, `Heap::get_field`, `pop_val`, `peek`,
    ///    `Op::eval_int`, …) is `#[inline]`: without that a downstream
    ///    `run_with(&mut NullProfiler)` is slower than
    ///    [`Vm::run_unprofiled`] on the same run (`interp_throughput`
    ///    gates the two within 5 %).
    /// 2. **Cached code cursor** — the running frame's method, pc and
    ///    locals base are held in locals, along with where its operands
    ///    start and the method's code slice and precomputed cost row
    ///    (built once in [`Vm::new`]), so the per-op path performs no
    ///    frame loads/stores and no `CostModel::op_cost` re-match. The
    ///    frame itself stays on the frame stack; only its pc goes stale,
    ///    and it is written back wherever the stack is observable: tick
    ///    delivery, a delivered exit, a thread switch at a backedge. A
    ///    call writes it as the caller's return address.
    /// 3. **Cheap liveness / budget checks** — a live-thread counter
    ///    replaces the per-slice `threads.iter().any(..)` scan, and an
    ///    absent `max_cycles` budget becomes `u64::MAX` so the per-op
    ///    fuel check is one always-false compare instead of an `Option`
    ///    test.
    /// 4. **Superinstruction fusion** — two templates, detected once in
    ///    [`Vm::new`]: the integer run
    ///    `[Load src] [binop] { Const k, binop | Store d, Load d }* [Store dst]`
    ///    (the accumulator lives in a register from a local or the stack
    ///    top to a local or the stack top; it covers the generator's
    ///    `Load, Const, op, Store` quads and the longer chains `cbs-opt`
    ///    forwards them into alike) and the forward test-branch
    ///    `Load s, [Const k, op], JumpIf*`. A run executes as a single
    ///    dispatch whenever no timer tick or fuel boundary can land
    ///    inside it and every operand is an `Int`; otherwise the same
    ///    ops run through the ordinary per-op path, so every observable
    ///    event and trap falls at exactly the same cycle and pc either
    ///    way.
    /// 5. **The overloaded check** — [`Profiler::armed`] is held in a
    ///    local and re-read only after a hook is delivered. While it is
    ///    `false` a call builds no [`CallEvent`] and makes no profiler
    ///    call: a disarmed sampler costs a flag test, as the paper's
    ///    Figures 3–4 have it.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on division by zero, type mismatch, stack
    /// overflow, out-of-range field access, unresolvable dispatch, or an
    /// exhausted cycle budget.
    pub fn run_with<P: Profiler + ?Sized>(&self, profiler: &mut P) -> Result<ExecReport, VmError> {
        let program = self.program;
        let samples_exits = self.config.flavor.samples_exits();
        let backedge_yieldpoints = self.config.flavor.has_backedge_yieldpoints();
        let max_stack_depth = self.config.max_stack_depth;
        let entry = program.entry();
        let entry_locals = usize::from(program.method(entry).num_locals());
        let cost_rows = self.cost_rows.as_slice();

        let mut heap = Heap::new();
        let mut invocations = vec![0u64; program.num_methods()];
        let mut threads: Vec<ThreadState> = (0..self.config.num_threads.max(1))
            .map(|_| {
                invocations[entry.index()] += 1;
                ThreadState {
                    frames: vec![Frame::entering(entry, 0)],
                    values: vec![Value::default(); entry_locals],
                    done: false,
                    result: Value::default(),
                }
            })
            .collect();

        let mut timer = TickSchedule::new(&self.config);
        let mut clock: u64 = 0;
        let mut ticks: u64 = 0;
        let mut instructions: u64 = 0;
        let mut calls: u64 = 0;
        let mut cur = 0usize;
        // An absent budget becomes an unreachable one, keeping the per-op
        // fuel check branchless in spirit: one compare, always false.
        let budget = self.config.max_cycles.unwrap_or(u64::MAX);
        let mut live = threads.len();
        let mut fused_tally = FusedTally::default();

        while live > 0 {
            if threads[cur].done {
                cur = (cur + 1) % threads.len();
                continue;
            }
            let tid = ThreadId(cur as u32);
            let ThreadState {
                frames,
                values,
                done,
                result,
            } = &mut threads[cur];
            let mut pending_switch = false;
            // The overloaded check: entry and exit events are built and
            // delivered only while the profiler is armed on this thread.
            // Its answer can change only inside a hook, so it is re-read
            // after each hook that is delivered and nowhere else.
            let mut armed = profiler.armed(tid);

            // The code cursor: the running frame's method, pc and locals
            // base, where its operands start (`floor`: a pop below it
            // underflows), and the method's code slice, cost row and
            // fused runs, all held in locals so the per-op path reads no
            // frame. The frame stays on `frames`; its pc is written back
            // at every point where the stack becomes observable (tick
            // delivery, call entry/exit, thread switch), so profiler
            // hooks see the whole stack, top frame and pc included.
            let top = *frames.last().expect("running thread has frames");
            let mut mid = top.method();
            let mut pc = top.pc();
            let mut base = top.base();
            let mut floor = base + usize::from(program.method(mid).num_locals());
            let mut code = program.method(mid).code();
            let mut costs = cost_rows[mid.index()].as_slice();
            let mut fused = self.fused_rows[mid.index()].as_slice();

            'slice: loop {
                // Superinstruction fast path: execute a whole fused run in
                // one dispatch when no tick or fuel boundary can land
                // inside it and the operands are `Int`s (so the per-op
                // path could not trap). Otherwise fall through and
                // interpret the same ops one at a time.
                if let Some(f) = fused[pc as usize].as_deref() {
                    let end_clock = clock + f.total_cost;
                    if timer.deadline() <= end_clock || end_clock > budget {
                        // A tick or fuel boundary lands inside the run:
                        // bail to per-op execution so the boundary is
                        // observed at its exact cycle.
                        fused_tally.bails += 1;
                    } else {
                        let next = match &f.kind {
                            FusedKind::IntRun { head, steps, dst } => {
                                // Every operand is checked before anything
                                // is popped or written.
                                let start = match *head {
                                    RunHead::Local(s) => values[base + usize::from(s)].as_int(),
                                    RunHead::FoldTop(s, op) => {
                                        match (
                                            peek(values, floor, 0),
                                            values[base + usize::from(s)],
                                        ) {
                                            (Some(Value::Int(top)), Value::Int(loc)) => {
                                                values.pop();
                                                Some(fused_eval(op, top, loc))
                                            }
                                            _ => None,
                                        }
                                    }
                                    RunHead::Top => match peek(values, floor, 0) {
                                        Some(Value::Int(top)) => {
                                            values.pop();
                                            Some(top)
                                        }
                                        _ => None,
                                    },
                                };
                                start.map(|mut acc| {
                                    for step in steps.iter() {
                                        match *step {
                                            RunStep::Arith(op, k) => acc = fused_eval(op, acc, k),
                                            RunStep::Spill(d) => {
                                                values[base + usize::from(d)] = Value::Int(acc);
                                            }
                                        }
                                    }
                                    match *dst {
                                        Some(d) => values[base + usize::from(d)] = Value::Int(acc),
                                        None => values.push(Value::Int(acc)),
                                    }
                                    f.next_pc
                                })
                            }
                            FusedKind::TestBranch {
                                slot,
                                test,
                                target,
                                jump_if_zero,
                            } => values[base + usize::from(*slot)].as_int().map(|loc| {
                                let v = match *test {
                                    Some((op, k)) => fused_eval(op, loc, k),
                                    None => loc,
                                };
                                if (v == 0) == *jump_if_zero {
                                    *target
                                } else {
                                    f.next_pc
                                }
                            }),
                        };
                        if let Some(next_pc) = next {
                            fused_tally.runs += 1;
                            clock = end_clock;
                            instructions += f.num_ops;
                            pc = next_pc;
                            continue;
                        }
                        // Operand shape mismatch (a non-`Int` where the
                        // per-op path could trap): bail to per-op.
                        fused_tally.bails += 1;
                    }
                }

                let op = code[pc as usize];

                clock += costs[pc as usize];
                instructions += 1;
                if clock > budget {
                    return Err(VmError::OutOfFuel { budget });
                }
                // ── Tick-at-yieldpoint semantics ────────────────────────
                // The virtual timer is checked once per instruction,
                // *after* the instruction's cost is charged and *before*
                // it executes. A tick whose deadline lands inside the
                // instruction's cost interval is therefore delivered at
                // the instruction boundary — the sampled pc is the
                // instruction about to execute — and `pending_switch` is
                // raised before the op's own yieldpoint logic runs. In
                // particular a backedge (`Op::Jump`, or a conditional
                // jump with target <= pc) observes a tick that landed
                // "inside" the jump itself and yields at that very
                // backedge; there is no one-op delay, and ticks are never
                // delivered mid-op. If one expensive op (e.g. `Op::Io`)
                // spans several timer periods, every elapsed deadline
                // fires, in order, at the same boundary. The regression
                // test `tick_counts_are_pinned_per_flavor` pins exact
                // tick counts for a tight loop under both flavors.
                if timer.deadline() <= clock {
                    running(frames).set_pc(pc);
                    while timer.deadline() <= clock {
                        ticks += 1;
                        profiler.on_tick(timer.advance(), tid, StackSlice::new(frames));
                        pending_switch = true;
                    }
                    armed = profiler.armed(tid);
                }

                match op {
                    Op::Const(v) => {
                        values.push(Value::Int(v));
                        pc += 1;
                    }
                    Op::Load(n) => {
                        let v = values[base + usize::from(n)];
                        values.push(v);
                        pc += 1;
                    }
                    Op::Store(n) => {
                        let v = pop_val(values, floor, mid, pc)?;
                        values[base + usize::from(n)] = v;
                        pc += 1;
                    }
                    Op::Dup => {
                        let v = peek(values, floor, 0)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        values.push(v);
                        pc += 1;
                    }
                    Op::Pop => {
                        pop_val(values, floor, mid, pc)?;
                        pc += 1;
                    }
                    Op::Swap => {
                        let b = pop_val(values, floor, mid, pc)?;
                        let a = pop_val(values, floor, mid, pc)?;
                        values.push(b);
                        values.push(a);
                        pc += 1;
                    }
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
                    | Op::CmpLt
                    | Op::CmpGt => {
                        let b = pop_int(values, floor, mid, pc)?;
                        let a = pop_int(values, floor, mid, pc)?;
                        // A binop has no result only for a zero divisor.
                        let r = op
                            .eval_int(a, b)
                            .ok_or(VmError::DivisionByZero { method: mid, pc })?;
                        values.push(Value::Int(r));
                        pc += 1;
                    }
                    Op::Neg => {
                        let a = pop_int(values, floor, mid, pc)?;
                        values.push(Value::Int(a.wrapping_neg()));
                        pc += 1;
                    }
                    Op::CmpEq => {
                        let b = pop_val(values, floor, mid, pc)?;
                        let a = pop_val(values, floor, mid, pc)?;
                        values.push(Value::Int(i64::from(a == b)));
                        pc += 1;
                    }
                    Op::Jump(target) => {
                        let backedge = target <= pc;
                        pc = target;
                        if backedge && backedge_yieldpoints && pending_switch {
                            running(frames).set_pc(pc);
                            break 'slice;
                        }
                    }
                    Op::JumpIfZero(target) | Op::JumpIfNonZero(target) => {
                        let v = pop_val(values, floor, mid, pc)?;
                        let jump = if matches!(op, Op::JumpIfZero(_)) {
                            !v.is_truthy()
                        } else {
                            v.is_truthy()
                        };
                        if jump {
                            let backedge = target <= pc;
                            pc = target;
                            if backedge && backedge_yieldpoints && pending_switch {
                                running(frames).set_pc(pc);
                                break 'slice;
                            }
                        } else {
                            pc += 1;
                        }
                    }
                    Op::Call { .. } | Op::CallVirtual { .. } => {
                        let (site, target) = match op {
                            Op::Call { site, target } => (site, target),
                            Op::CallVirtual { site, slot, arity } => {
                                let receiver = peek(values, floor, usize::from(arity) - 1)
                                    .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                                let r = receiver.as_ref().ok_or(VmError::TypeMismatch {
                                    method: mid,
                                    pc,
                                    expected: "object receiver",
                                })?;
                                let target = program
                                    .class(heap.class_of(r))
                                    .resolve(slot)
                                    .ok_or(VmError::BadVirtualDispatch { method: mid, pc })?;
                                (site, target)
                            }
                            _ => unreachable!(),
                        };
                        calls += 1;
                        invocations[target.index()] += 1;
                        if frames.len() >= max_stack_depth {
                            return Err(VmError::StackOverflow {
                                limit: max_stack_depth,
                            });
                        }
                        // The arguments, the caller's top operands, stay
                        // put as the callee's first locals; its other
                        // locals are zeroed above them.
                        let callee = program.method(target);
                        base = values
                            .len()
                            .checked_sub(usize::from(callee.num_params()))
                            .filter(|&args| args >= floor)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        floor = base + usize::from(callee.num_locals());
                        values.resize(floor, Value::default());
                        let caller = running(frames);
                        caller.set_pc(pc + 1); // return address
                        caller.set_pending_site(Some(site));
                        frames.push(Frame::entering(target, base));
                        if armed {
                            profiler.on_entry(&CallEvent {
                                edge: CallEdge::new(mid, site, target),
                                clock,
                                thread: tid,
                                stack: StackSlice::new(frames),
                            });
                            armed = profiler.armed(tid);
                        }
                        if pending_switch {
                            break 'slice;
                        }
                        pc = 0;
                        mid = target;
                        code = callee.code();
                        costs = cost_rows[mid.index()].as_slice();
                        fused = self.fused_rows[mid.index()].as_slice();
                    }
                    Op::Return => {
                        let rv = pop_val(values, floor, mid, pc)?;
                        if frames.len() == 1 {
                            *done = true;
                            live -= 1;
                            *result = rv;
                            break 'slice;
                        }
                        if armed && samples_exits {
                            // The exit event shows the stack with the
                            // returning frame still on top.
                            running(frames).set_pc(pc);
                            let caller = &frames[frames.len() - 2];
                            let edge = CallEdge::new(
                                caller.method(),
                                caller.pending_site().expect("caller has in-flight site"),
                                mid,
                            );
                            profiler.on_exit(&CallEvent {
                                edge,
                                clock,
                                thread: tid,
                                stack: StackSlice::new(frames),
                            });
                            armed = profiler.armed(tid);
                        }
                        frames.pop();
                        values.truncate(base);
                        values.push(rv);
                        let caller = running(frames);
                        caller.set_pending_site(None);
                        if pending_switch {
                            break 'slice;
                        }
                        mid = caller.method();
                        pc = caller.pc();
                        base = caller.base();
                        let method = program.method(mid);
                        floor = base + usize::from(method.num_locals());
                        code = method.code();
                        costs = cost_rows[mid.index()].as_slice();
                        fused = self.fused_rows[mid.index()].as_slice();
                    }
                    Op::GetField(n) => {
                        let r = pop_obj(values, floor, mid, pc)?;
                        let v = heap
                            .get_field(r, n)
                            .ok_or(VmError::FieldOutOfRange { method: mid, pc })?;
                        values.push(v);
                        pc += 1;
                    }
                    Op::PutField(n) => {
                        let v = pop_val(values, floor, mid, pc)?;
                        let r = pop_obj(values, floor, mid, pc)?;
                        if !heap.put_field(r, n, v) {
                            return Err(VmError::FieldOutOfRange { method: mid, pc });
                        }
                        pc += 1;
                    }
                    Op::New(class) => {
                        let num_fields = program.class(class).num_fields();
                        let r = heap.alloc(class, num_fields);
                        values.push(Value::Ref(r));
                        pc += 1;
                    }
                    Op::GuardClass { class, not_taken } => {
                        let r = pop_obj(values, floor, mid, pc)?;
                        if heap.class_of(r) == class {
                            pc += 1;
                        } else {
                            pc = not_taken;
                        }
                    }
                    Op::Io(_) => {
                        // Cost was charged above; the "result" is a dummy.
                        values.push(Value::Int(0));
                        pc += 1;
                    }
                    Op::Nop => {
                        pc += 1;
                    }
                }
            }

            cur = (cur + 1) % threads.len();
        }

        profiler.on_finish(clock);
        Ok(ExecReport {
            cycles: clock,
            seconds: self.config.cycles_to_seconds(clock),
            instructions,
            calls,
            ticks,
            invocations,
            return_values: threads.into_iter().map(|t| t.result).collect(),
        })
    }
}

/// The running frame: the last on its thread's frame stack.
#[inline]
fn running(frames: &mut [Frame]) -> &mut Frame {
    frames.last_mut().expect("running thread has frames")
}

/// The operand `depth` below the top of the running frame's operands,
/// which start at `floor` on the thread's value stack. `None` if there
/// are not that many.
#[inline]
fn peek(values: &[Value], floor: usize, depth: usize) -> Option<Value> {
    let i = values.len().checked_sub(depth + 1)?;
    (i >= floor).then(|| values[i])
}

/// Pops the running frame's top operand; a pop below `floor`, where its
/// operands start, underflows.
#[inline]
fn pop_val(
    values: &mut Vec<Value>,
    floor: usize,
    method: MethodId,
    pc: u32,
) -> Result<Value, VmError> {
    let v = if values.len() > floor {
        values.pop()
    } else {
        None
    };
    v.ok_or(VmError::OperandUnderflow { method, pc })
}

#[inline]
fn pop_int(
    values: &mut Vec<Value>,
    floor: usize,
    method: MethodId,
    pc: u32,
) -> Result<i64, VmError> {
    pop_val(values, floor, method, pc)?
        .as_int()
        .ok_or(VmError::TypeMismatch {
            method,
            pc,
            expected: "integer",
        })
}

#[inline]
fn pop_obj(
    values: &mut Vec<Value>,
    floor: usize,
    method: MethodId,
    pc: u32,
) -> Result<crate::value::ObjRef, VmError> {
    pop_val(values, floor, method, pc)?
        .as_ref()
        .ok_or(VmError::TypeMismatch {
            method,
            pc,
            expected: "object reference",
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{ProgramBuilder, VirtualSlot};

    fn run_program(b: ProgramBuilder) -> ExecReport {
        let p = b.build().unwrap();
        Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap()
    }

    #[test]
    fn arithmetic_program_computes() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 0, |c| {
                // (3 + 4) * 5 - 1 = 34
                c.const_(3)
                    .const_(4)
                    .add()
                    .const_(5)
                    .mul()
                    .const_(1)
                    .sub()
                    .ret();
            })
            .unwrap();
        b.set_entry(main);
        let r = run_program(b);
        assert_eq!(r.return_values, vec![Value::Int(34)]);
        assert!(r.cycles > 0);
        assert!(r.instructions >= 7);
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let sub2 = b
            .function("sub2", cls, 2, 0, |c| {
                c.load(0).load(1).sub().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.const_(10).const_(3).call(sub2).ret();
            })
            .unwrap();
        b.set_entry(main);
        let r = run_program(b);
        assert_eq!(r.return_values, vec![Value::Int(7)]);
        assert_eq!(r.calls, 1);
        assert_eq!(r.invocations_of(sub2), 1);
        assert_eq!(r.methods_executed(), 2);
    }

    #[test]
    fn loop_iterates_correct_count() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 2, |c| {
                // sum 1..=5 via a counted loop (slot 0 counter, slot 1 acc)
                c.counted_loop(0, 5, |c| {
                    c.load(1).load(0).add().store(1);
                });
                c.load(1).ret();
            })
            .unwrap();
        b.set_entry(main);
        let r = run_program(b);
        assert_eq!(r.return_values, vec![Value::Int(15)]);
    }

    #[test]
    fn virtual_dispatch_selects_by_receiver_class() {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 0);
        let f_base = b
            .function("Base.f", base, 1, 0, |c| {
                c.const_(1).ret();
            })
            .unwrap();
        b.set_vtable(base, VirtualSlot::new(0), f_base);
        let sub = b.add_subclass("Sub", base, 0);
        let f_sub = b
            .function("Sub.f", sub, 1, 0, |c| {
                c.const_(2).ret();
            })
            .unwrap();
        b.set_vtable(sub, VirtualSlot::new(0), f_sub);
        let main = b
            .function("main", base, 0, 0, |c| {
                c.new_object(base)
                    .call_virtual(VirtualSlot::new(0), 1)
                    .new_object(sub)
                    .call_virtual(VirtualSlot::new(0), 1)
                    .const_(10)
                    .mul()
                    .add()
                    .ret();
            })
            .unwrap();
        b.set_entry(main);
        let r = run_program(b);
        // base.f()=1 + sub.f()=2 * 10 = 21
        assert_eq!(r.return_values, vec![Value::Int(21)]);
    }

    #[test]
    fn fields_store_and_load() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 2);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.new_object(cls).store(0);
                c.load(0).const_(5).put_field(1);
                c.load(0).get_field(1).ret();
            })
            .unwrap();
        b.set_entry(main);
        let r = run_program(b);
        assert_eq!(r.return_values, vec![Value::Int(5)]);
    }

    #[test]
    fn guard_class_branches_on_exact_class() {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 0);
        let sub = b.add_subclass("Sub", base, 0);
        // Dummy virtual method so classes are realistic (not required).
        let main = b
            .function("main", base, 0, 1, |c| {
                let miss = c.label();
                let done = c.label();
                c.new_object(sub).store(0);
                c.load(0).guard_class(base, miss);
                c.const_(1).jump(done);
                c.bind(miss).const_(2);
                c.bind(done).ret();
            })
            .unwrap();
        let _ = sub;
        b.set_entry(main);
        let r = run_program(b);
        assert_eq!(
            r.return_values,
            vec![Value::Int(2)],
            "guard must miss: Sub != Base"
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.const_(1).const_(0).div().ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let err = Vm::new(&p, VmConfig::default())
            .run_unprofiled()
            .unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { .. }));
    }

    #[test]
    fn stack_overflow_traps() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let rec = b.declare("rec", cls, 0);
        b.define(rec, 0, |c| {
            c.call(rec).ret();
        })
        .unwrap();
        b.set_entry(rec);
        let p = b.build().unwrap();
        let config = VmConfig {
            max_stack_depth: 64,
            ..VmConfig::default()
        };
        let err = Vm::new(&p, config).run_unprofiled().unwrap_err();
        assert_eq!(err, VmError::StackOverflow { limit: 64 });
    }

    #[test]
    fn out_of_fuel_traps() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 1_000_000, |c| {
                    c.nop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let config = VmConfig {
            max_cycles: Some(10_000),
            ..VmConfig::default()
        };
        let err = Vm::new(&p, config).run_unprofiled().unwrap_err();
        assert_eq!(err, VmError::OutOfFuel { budget: 10_000 });
    }

    #[test]
    fn arithmetic_on_reference_traps() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.new_object(cls).const_(1).add().ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let err = Vm::new(&p, VmConfig::default())
            .run_unprofiled()
            .unwrap_err();
        assert!(matches!(err, VmError::TypeMismatch { .. }));
    }

    #[test]
    fn timer_ticks_fire_at_configured_rate() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 100_000, |c| {
                    c.nop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let vm = Vm::new(&p, VmConfig::default());
        let r = vm.run_unprofiled().unwrap();
        let expected = r.cycles / vm.config().timer_period();
        assert!(r.ticks > 0, "program long enough to see ticks");
        // Jittered periods average out to the configured rate.
        assert!(
            r.ticks.abs_diff(expected) <= expected / 4 + 1,
            "ticks {} vs expected {expected}",
            r.ticks
        );
        // With jitter disabled the rate is exact.
        let exact_cfg = VmConfig {
            timer_jitter: 0,
            ..VmConfig::default()
        };
        let exact_vm = Vm::new(&p, exact_cfg);
        let r2 = exact_vm.run_unprofiled().unwrap();
        assert_eq!(r2.ticks, r2.cycles / exact_vm.config().timer_period());
    }

    /// Satellite regression test for the tick-at-yieldpoint semantics
    /// documented at the tick-delivery loop: ticks fire at instruction
    /// boundaries (after the op's cost is charged, before it executes),
    /// so a tick landing "inside" a backedge jump is seen by that
    /// backedge's yieldpoint. The counts below pin the exact behavior for
    /// a tight loop under both flavors — any change to where ticks are
    /// delivered relative to the backedge (e.g. delivering them after the
    /// op executes, or one op late) shifts these numbers.
    #[test]
    fn tick_counts_are_pinned_per_flavor() {
        use crate::config::VmFlavor;
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 200_000, |c| {
                    c.nop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();

        // The flavors differ only in event delivery, never in timing:
        // the virtual clock advances identically, so the (jittered,
        // seeded) tick sequence is identical too.
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let cfg = VmConfig {
                flavor,
                ..VmConfig::default()
            };
            let r = Vm::new(&p, cfg).run_unprofiled().unwrap();
            assert_eq!(
                (r.cycles, r.ticks),
                (1_600_010, 15),
                "pinned tick count changed under {flavor:?}"
            );
        }

        // With jitter disabled every period is exact, so the count is
        // exactly cycles / period.
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let cfg = VmConfig {
                flavor,
                timer_jitter: 0,
                ..VmConfig::default()
            };
            let vm = Vm::new(&p, cfg);
            let r = vm.run_unprofiled().unwrap();
            assert_eq!(r.ticks, r.cycles / vm.config().timer_period());
            assert_eq!(r.ticks, 16, "pinned exact-period tick count");
        }
    }

    /// The clocks `run_with` hands to `on_tick` are the deadlines of the
    /// configuration's [`TickSchedule`], in order, with none skipped: a
    /// profiler holding its own copy of a schedule replays exactly the
    /// ticks a run under that configuration would deliver.
    #[test]
    fn ticks_fire_at_the_schedule_deadlines() {
        use crate::config::VmFlavor;
        #[derive(Default)]
        struct TickClocks(Vec<u64>);
        impl Profiler for TickClocks {
            fn on_tick(&mut self, clock: u64, _thread: ThreadId, _stack: StackSlice<'_>) {
                self.0.push(clock);
            }
        }

        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 1, 0, |c| {
                c.load(0).const_(3).mul().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 2_000, |c| {
                    c.const_(2).call(f).pop().io(100).pop();
                });
                // One op spanning several periods: every deadline it
                // passes fires at the same boundary, in order.
                c.io(3_000).pop();
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            for timer_jitter in [0, VmConfig::default().timer_jitter] {
                for timer_seed in [VmConfig::default().timer_seed, 0xF1EE7] {
                    let config = VmConfig {
                        flavor,
                        timer_jitter,
                        timer_seed,
                        ..VmConfig::default()
                    };
                    let mut seen = TickClocks::default();
                    let report = Vm::new(&p, config.clone()).run_with(&mut seen).unwrap();
                    let mut timer = TickSchedule::new(&config);
                    let due: Vec<u64> = seen.0.iter().map(|_| timer.advance()).collect();
                    let what = format!("{flavor:?} jitter={timer_jitter} seed={timer_seed:#x}");
                    assert!(seen.0.len() > 100, "{what}: {} ticks", seen.0.len());
                    assert_eq!(seen.0, due, "{what}");
                    assert_eq!(report.ticks, due.len() as u64, "{what}");
                    // The run ends before the next deadline.
                    assert!(timer.deadline() > report.cycles, "{what}");
                }
            }
        }
    }

    /// The `Profiler::armed` contract, from the profiler's side: entries
    /// and exits arrive only while it says it is armed, and its answer is
    /// re-read after every hook — so a sampler that wants three events
    /// per tick is delivered exactly three, under both flavors and with
    /// threads interleaving. The same profiler behind a forwarder that
    /// keeps the default `armed` shows the events were there to deliver.
    #[test]
    fn entries_and_exits_are_delivered_only_while_armed() {
        use crate::config::VmFlavor;

        #[derive(Default)]
        struct ThreePerTick {
            wanted: [u32; 2],
            ticks: u64,
            acted_on: u64,
            delivered_idle: u64,
        }
        impl ThreePerTick {
            fn event(&mut self, thread: ThreadId) {
                let wanted = &mut self.wanted[thread.index()];
                if *wanted == 0 {
                    self.delivered_idle += 1;
                } else {
                    *wanted -= 1;
                    self.acted_on += 1;
                }
            }
        }
        impl Profiler for ThreePerTick {
            fn on_tick(&mut self, _clock: u64, thread: ThreadId, _stack: StackSlice<'_>) {
                self.wanted[thread.index()] = 3;
                self.ticks += 1;
            }
            fn on_entry(&mut self, event: &CallEvent<'_>) {
                self.event(event.thread);
            }
            fn on_exit(&mut self, event: &CallEvent<'_>) {
                self.event(event.thread);
            }
            fn armed(&self, thread: ThreadId) -> bool {
                self.wanted[thread.index()] > 0
            }
        }
        struct Ungated<'a>(&'a mut ThreePerTick);
        impl Profiler for Ungated<'_> {
            fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
                self.0.on_tick(clock, thread, stack);
            }
            fn on_entry(&mut self, event: &CallEvent<'_>) {
                self.0.on_entry(event);
            }
            fn on_exit(&mut self, event: &CallEvent<'_>) {
                self.0.on_exit(event);
            }
        }

        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 1, 0, |c| {
                c.load(0).const_(3).mul().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 20_000, |c| {
                    c.const_(2).call(f).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let vm = Vm::new(
                &p,
                VmConfig {
                    flavor,
                    num_threads: 2,
                    // Exact periods, far longer than three events take.
                    timer_hz: 10_000,
                    timer_jitter: 0,
                    ..VmConfig::default()
                },
            );
            let mut gated = ThreePerTick::default();
            let report = vm.run_with(&mut gated).unwrap();
            assert!(gated.ticks > 100 && gated.ticks == report.ticks);
            assert_eq!(gated.delivered_idle, 0, "{flavor:?}");
            // The last window of each thread may outlive the run.
            assert!(
                gated.acted_on <= 3 * gated.ticks && gated.acted_on + 6 > 3 * gated.ticks,
                "{flavor:?}: {} events for {} ticks",
                gated.acted_on,
                gated.ticks
            );

            let mut ungated = ThreePerTick::default();
            assert_eq!(vm.run_with(&mut Ungated(&mut ungated)).unwrap(), report);
            assert_eq!(ungated.acted_on, gated.acted_on, "{flavor:?}");
            assert!(ungated.delivered_idle > 10 * ungated.acted_on);
        }
    }

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

    #[test]
    fn deterministic_across_runs() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 1, 0, |c| {
                c.load(0).const_(3).mul().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.const_(0).store(0);
                c.counted_loop(0, 1000, |c| {
                    c.const_(2).call(f).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let vm = Vm::new(&p, VmConfig::default());
        let a = vm.run_unprofiled().unwrap();
        let b2 = vm.run_unprofiled().unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn multithreaded_run_completes_all_threads() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 50_000, |c| {
                    c.nop();
                });
                c.const_(7).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let config = VmConfig {
            num_threads: 3,
            ..VmConfig::default()
        };
        let r = Vm::new(&p, config).run_unprofiled().unwrap();
        assert_eq!(r.return_values, vec![Value::Int(7); 3]);
        assert_eq!(r.invocations_of(main), 3);
    }
}

#[cfg(test)]
mod op_semantics_tests {
    use super::*;
    use cbs_bytecode::ProgramBuilder;

    /// Runs a straight-line body and returns its result.
    fn eval(build: impl FnOnce(&mut cbs_bytecode::CodeBuilder<'_>)) -> Value {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 2);
        let main = b.function("main", cls, 0, 4, build).unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        Vm::new(&p, VmConfig::default())
            .run_unprofiled()
            .unwrap()
            .return_values[0]
    }

    #[test]
    fn division_and_remainder() {
        assert_eq!(
            eval(|c| {
                c.const_(17).const_(5).div().ret();
            }),
            Value::Int(3)
        );
        assert_eq!(
            eval(|c| {
                c.const_(17).const_(5).rem().ret();
            }),
            Value::Int(2)
        );
        assert_eq!(
            eval(|c| {
                c.const_(-17).const_(5).div().ret();
            }),
            Value::Int(-3)
        );
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(
            eval(|c| {
                c.const_(0b1100).const_(0b1010).band().ret();
            }),
            Value::Int(0b1000)
        );
        assert_eq!(
            eval(|c| {
                c.const_(0b1100).const_(0b1010).bor().ret();
            }),
            Value::Int(0b1110)
        );
        assert_eq!(
            eval(|c| {
                c.const_(0b1100).const_(0b1010).bxor().ret();
            }),
            Value::Int(0b0110)
        );
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(
            eval(|c| {
                c.const_(1).const_(4).shl().ret();
            }),
            Value::Int(16)
        );
        assert_eq!(
            eval(|c| {
                c.const_(-16).const_(2).shr().ret();
            }),
            Value::Int(-4)
        );
        // Shift amounts are masked to 6 bits, like real hardware.
        assert_eq!(
            eval(|c| {
                c.const_(1).const_(64).shl().ret();
            }),
            Value::Int(1)
        );
    }

    #[test]
    fn comparisons_produce_zero_one() {
        assert_eq!(
            eval(|c| {
                c.const_(3).const_(3).cmp_eq().ret();
            }),
            Value::Int(1)
        );
        assert_eq!(
            eval(|c| {
                c.const_(3).const_(4).cmp_eq().ret();
            }),
            Value::Int(0)
        );
        assert_eq!(
            eval(|c| {
                c.const_(3).const_(4).cmp_lt().ret();
            }),
            Value::Int(1)
        );
        assert_eq!(
            eval(|c| {
                c.const_(4).const_(3).cmp_gt().ret();
            }),
            Value::Int(1)
        );
        assert_eq!(
            eval(|c| {
                c.const_(-1).const_(1).cmp_gt().ret();
            }),
            Value::Int(0)
        );
    }

    #[test]
    fn stack_shuffles() {
        assert_eq!(
            eval(|c| {
                c.const_(2).const_(5).swap().sub().ret();
            }),
            Value::Int(3),
            "swap: 5 - 2"
        );
        assert_eq!(
            eval(|c| {
                c.const_(6).dup().mul().ret();
            }),
            Value::Int(36)
        );
        assert_eq!(
            eval(|c| {
                c.const_(1).const_(9).pop().ret();
            }),
            Value::Int(1)
        );
    }

    #[test]
    fn negation_and_wrapping() {
        assert_eq!(
            eval(|c| {
                c.const_(5).neg().ret();
            }),
            Value::Int(-5)
        );
        assert_eq!(
            eval(|c| {
                c.const_(i64::MAX).const_(1).add().ret();
            }),
            Value::Int(i64::MIN),
            "two's-complement wrap-around"
        );
    }

    #[test]
    fn io_pushes_dummy_and_charges_cycles() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.io(50).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let vm = Vm::new(&p, VmConfig::default());
        let r = vm.run_unprofiled().unwrap();
        assert_eq!(r.return_values[0], Value::Int(0));
        assert!(
            r.cycles >= 50 * vm.config().cost.io_unit,
            "I/O must dominate the cycle count: {}",
            r.cycles
        );
    }

    #[test]
    fn comparing_distinct_refs_is_false_same_ref_true() {
        assert_eq!(
            eval(|c| {
                let cls = cbs_bytecode::ClassId::new(0);
                c.new_object(cls).new_object(cls).cmp_eq().ret();
            }),
            Value::Int(0)
        );
        assert_eq!(
            eval(|c| {
                let cls = cbs_bytecode::ClassId::new(0);
                c.new_object(cls).dup().cmp_eq().ret();
            }),
            Value::Int(1)
        );
    }

    #[test]
    fn recursion_with_depth_within_limit() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let fib = b.declare("fib", cls, 1);
        b.define(fib, 0, |c| {
            let base = c.label();
            c.load(0).const_(2).cmp_lt().jump_if_non_zero(base);
            c.load(0).const_(1).sub().call(fib);
            c.load(0).const_(2).sub().call(fib);
            c.add().ret();
            c.bind(base).load(0).ret();
        })
        .unwrap();
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.const_(15).call(fib).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let r = Vm::new(&p, VmConfig::default()).run_unprofiled().unwrap();
        assert_eq!(r.return_values[0], Value::Int(610), "fib(15)");
    }
}
