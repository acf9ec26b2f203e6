//! The bytecode interpreter: a cycle-accurate simulated VM.
//!
//! The interpreter executes a verified [`Program`] on a virtual clock
//! (every instruction charges its [`CostModel`](crate::CostModel) cycles),
//! fires timer interrupts at the configured frequency, and reports every
//! profiler-observable event to the attached [`Profiler`]. Green threads
//! are scheduled cooperatively: a timer interrupt requests a switch, which
//! happens at the next yieldpoint (call, return or backedge) — mirroring
//! how Jikes RVM's thread scheduler interacts with its yieldpoints.

use crate::config::VmConfig;
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
/// `Vm` is stateless across runs: [`Vm::run`] builds all execution state
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
/// inside it (`next_tick > clock + total_cost` and
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
    /// One or more `Load(s), Const(k), <int binop>, Store(s)` quads on a
    /// single slot — the dominant straight-line pattern in generated
    /// workloads — folded into the local in registers.
    WorkRun { slot: u16, steps: Box<[(Op, i64)]> },
    /// `Load(s), <int binop>, Store(s)`: folds the value on top of the
    /// operand stack into a local (`s = v <op> s`), the accumulate idiom
    /// emitted after every call.
    FoldAccum { slot: u16, op: Op },
    /// `Load(s), Const(k), <op>, JumpIfZero/NonZero(target)` with a
    /// *forward* target — a guard branch. Forward jumps are not
    /// backedges, so the per-op path fires no yieldpoint here either.
    TestBranch {
        slot: u16,
        k: i64,
        op: Op,
        target: u32,
        jump_if_zero: bool,
    },
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

/// Evaluates `a <op> b` exactly as the corresponding per-op arm does.
fn apply_int(op: Op, a: i64, b: i64) -> i64 {
    match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Shl => a.wrapping_shl(b as u32 & 63),
        Op::Shr => a.wrapping_shr(b as u32 & 63),
        Op::CmpLt => i64::from(a < b),
        Op::CmpGt => i64::from(a > b),
        Op::CmpEq => i64::from(a == b),
        Op::Div => a.wrapping_div(b),
        Op::Rem => a.wrapping_rem(b),
        _ => unreachable!("scan_fused only admits int binops"),
    }
}

/// Builds the superinstruction table for one method: a maximal-munch
/// linear scan for the [`FusedKind`] templates. Runs are recorded only at
/// their first pc; a jump that lands inside a run simply executes per-op
/// from there (correct, just not fused).
fn scan_fused(code: &[Op], costs: &[u64]) -> Vec<Option<Box<Fused>>> {
    let mut out: Vec<Option<Box<Fused>>> = vec![None; code.len()];
    let mut p = 0usize;
    while p < code.len() {
        let Op::Load(slot) = code[p] else {
            p += 1;
            continue;
        };

        // WorkRun: maximal run of Load/Const/binop/Store quads on `slot`.
        let mut q = p;
        let mut steps: Vec<(Op, i64)> = Vec::new();
        let mut total = 0u64;
        while q + 3 < code.len() {
            let (Op::Load(a), Op::Const(k)) = (code[q], code[q + 1]) else {
                break;
            };
            let op3 = code[q + 2];
            let Op::Store(b) = code[q + 3] else {
                break;
            };
            // Div/Rem by a non-zero constant cannot trap either.
            let fusible = fusible_int_binop(op3) || (matches!(op3, Op::Div | Op::Rem) && k != 0);
            if a != slot || b != slot || !fusible {
                break;
            }
            steps.push((op3, k));
            total += costs[q] + costs[q + 1] + costs[q + 2] + costs[q + 3];
            q += 4;
        }
        if !steps.is_empty() {
            out[p] = Some(Box::new(Fused {
                total_cost: total,
                num_ops: (q - p) as u64,
                next_pc: q as u32,
                kind: FusedKind::WorkRun {
                    slot,
                    steps: steps.into_boxed_slice(),
                },
            }));
            p = q;
            continue;
        }

        // TestBranch: Load/Const/op/forward-JumpIf*.
        if p + 3 < code.len() {
            if let Op::Const(k) = code[p + 1] {
                let op3 = code[p + 2];
                if fusible_int_binop(op3) || matches!(op3, Op::CmpEq) {
                    let jump = match code[p + 3] {
                        Op::JumpIfZero(t) => Some((t, true)),
                        Op::JumpIfNonZero(t) => Some((t, false)),
                        _ => None,
                    };
                    let jump_pc = (p + 3) as u32;
                    if let Some((target, jump_if_zero)) = jump {
                        if target > jump_pc {
                            out[p] = Some(Box::new(Fused {
                                total_cost: costs[p..=p + 3].iter().sum(),
                                num_ops: 4,
                                next_pc: jump_pc + 1,
                                kind: FusedKind::TestBranch {
                                    slot,
                                    k,
                                    op: op3,
                                    target,
                                    jump_if_zero,
                                },
                            }));
                            p += 4;
                            continue;
                        }
                    }
                }
            }
        }

        // FoldAccum: Load/binop/Store on the same slot.
        if p + 2 < code.len() {
            let op2 = code[p + 1];
            if fusible_int_binop(op2) && matches!(code[p + 2], Op::Store(b) if b == slot) {
                out[p] = Some(Box::new(Fused {
                    total_cost: costs[p..=p + 2].iter().sum(),
                    num_ops: 3,
                    next_pc: (p + 3) as u32,
                    kind: FusedKind::FoldAccum { slot, op: op2 },
                }));
                p += 3;
                continue;
            }
        }

        p += 1;
    }
    out
}

#[derive(Debug)]
struct ThreadState {
    frames: Vec<Frame>,
    done: bool,
    result: Value,
    /// Retired frames recycled by calls, so the steady-state call path
    /// performs no heap allocation (see [`push_callee`]).
    pool: Vec<Frame>,
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
    /// Monomorphized over [`NullProfiler`], so the event hooks compile to
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any runtime trap.
    pub fn run_unprofiled(&self) -> Result<ExecReport, VmError> {
        self.run_with(&mut NullProfiler)
    }

    /// Runs the program to completion, reporting events to `profiler`.
    ///
    /// Thin wrapper over [`Vm::run_with`] for callers that hold a
    /// `&mut dyn Profiler`; callers with a concrete profiler type should
    /// prefer `run_with`, which monomorphizes the event hooks away.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on division by zero, type mismatch, stack
    /// overflow, out-of-range field access, unresolvable dispatch, or an
    /// exhausted cycle budget.
    pub fn run(&self, profiler: &mut dyn Profiler) -> Result<ExecReport, VmError> {
        self.run_with(profiler)
    }

    /// Runs the program to completion, reporting events to `profiler`.
    ///
    /// This is the hot path of every experiment. It is generic over the
    /// profiler (`?Sized`, so `P = dyn Profiler` also works) and applies
    /// four micro-architectural optimizations relative to the reference
    /// interpreter ([`Vm::run_reference`]), none of which change any
    /// observable behavior — reports, event sequences and trap points are
    /// bit-identical (pinned by `tests/dispatch_equivalence.rs`):
    ///
    /// 1. **Monomorphized dispatch** — with a concrete `P`, profiler
    ///    hooks inline; for [`NullProfiler`] they vanish entirely.
    /// 2. **Cached code cursor, detached top frame** — the running
    ///    thread's top frame is popped off the frame stack and held in a
    ///    local along with its pc and the executing method's code slice
    ///    and precomputed cost row (built once in [`Vm::new`]), so the
    ///    per-op path performs no `Vec` accesses, no frame pc
    ///    loads/stores, and no `CostModel::op_cost` re-match. The frame
    ///    is reattached (pc written back) wherever the stack is
    ///    observable: tick delivery, call entry/exit, thread switch.
    /// 3. **Cheap liveness / budget checks** — a live-thread counter
    ///    replaces the per-slice `threads.iter().any(..)` scan, and an
    ///    absent `max_cycles` budget becomes `u64::MAX` so the per-op
    ///    fuel check is one always-false compare instead of an `Option`
    ///    test.
    /// 4. **Frame pooling** — returned frames are recycled through a
    ///    per-thread pool, so steady-state calls do not heap-allocate.
    /// 5. **Superinstruction fusion** — straight-line op runs matching
    ///    the `FusedKind` templates (detected once in [`Vm::new`])
    ///    execute as a single dispatch whenever no timer tick or fuel
    ///    boundary can land inside the run; otherwise the same ops run
    ///    through the ordinary per-op path, so every observable event
    ///    falls at exactly the same cycle either way.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on division by zero, type mismatch, stack
    /// overflow, out-of-range field access, unresolvable dispatch, or an
    /// exhausted cycle budget.
    pub fn run_with<P: Profiler + ?Sized>(&self, profiler: &mut P) -> Result<ExecReport, VmError> {
        let program = self.program;
        let flavor = self.config.flavor;
        let period = self.config.timer_period();
        let entry = program.entry();
        let entry_locals = program.method(entry).num_locals();
        let cost_rows = self.cost_rows.as_slice();

        let mut heap = Heap::new();
        let mut invocations = vec![0u64; program.num_methods()];
        let mut threads: Vec<ThreadState> = (0..self.config.num_threads.max(1))
            .map(|_| {
                invocations[entry.index()] += 1;
                ThreadState {
                    frames: vec![Frame::new(entry, entry_locals)],
                    done: false,
                    result: Value::default(),
                    pool: Vec::new(),
                }
            })
            .collect();

        let jitter = self.config.timer_jitter.min(period.saturating_sub(1));
        let mut jitter_state = self.config.timer_seed | 1;
        let mut draw_period = move || {
            if jitter == 0 {
                return period;
            }
            // xorshift64: deterministic, cheap, seeded.
            jitter_state ^= jitter_state << 13;
            jitter_state ^= jitter_state >> 7;
            jitter_state ^= jitter_state << 17;
            period - jitter + jitter_state % (2 * jitter + 1)
        };

        let mut clock: u64 = 0;
        let mut next_tick: u64 = draw_period();
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
            let t = &mut threads[cur];
            let mut pending_switch = false;

            // The code cursor: the running thread's top frame is detached
            // from the frame stack and held in a local, together with its
            // pc and the executing method's code slice and cost row, so
            // the per-op path touches no `Vec` at all. The frame is
            // reattached — with the register-held pc written back — at
            // every point where the stack becomes observable (tick
            // delivery, call entry/exit, thread switch, completion), so
            // profiler hooks see exactly the stack the reference
            // interpreter shows.
            let mut frame = t.frames.pop().expect("running thread has frames");
            let mut mid = frame.method();
            let mut pc = frame.pc();
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
                    if next_tick <= end_clock || end_clock > budget {
                        // A tick or fuel boundary lands inside the run:
                        // bail to per-op execution so the boundary is
                        // observed at its exact cycle.
                        fused_tally.bails += 1;
                    } else {
                        let next = match &f.kind {
                            FusedKind::WorkRun { slot, steps } => {
                                if let Value::Int(mut x) = frame.locals()[usize::from(*slot)] {
                                    for &(op, k) in steps.iter() {
                                        x = apply_int(op, x, k);
                                    }
                                    frame.locals_mut()[usize::from(*slot)] = Value::Int(x);
                                    Some(f.next_pc)
                                } else {
                                    None
                                }
                            }
                            FusedKind::FoldAccum { slot, op } => {
                                match (
                                    frame.stack().last().copied(),
                                    frame.locals()[usize::from(*slot)],
                                ) {
                                    (Some(Value::Int(v)), Value::Int(loc)) => {
                                        frame.pop();
                                        frame.locals_mut()[usize::from(*slot)] =
                                            Value::Int(apply_int(*op, v, loc));
                                        Some(f.next_pc)
                                    }
                                    _ => None,
                                }
                            }
                            FusedKind::TestBranch {
                                slot,
                                k,
                                op,
                                target,
                                jump_if_zero,
                            } => {
                                if let Value::Int(loc) = frame.locals()[usize::from(*slot)] {
                                    let v = apply_int(*op, loc, *k);
                                    let jump = if *jump_if_zero { v == 0 } else { v != 0 };
                                    Some(if jump { *target } else { f.next_pc })
                                } else {
                                    None
                                }
                            }
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
                if next_tick <= clock {
                    frame.set_pc(pc);
                    t.frames.push(frame);
                    while next_tick <= clock {
                        ticks += 1;
                        profiler.on_tick(next_tick, tid, StackSlice::new(&t.frames));
                        next_tick += draw_period();
                        pending_switch = true;
                    }
                    frame = t.frames.pop().expect("frame reattached for tick delivery");
                }

                match op {
                    Op::Const(v) => {
                        frame.push(Value::Int(v));
                        pc += 1;
                    }
                    Op::Load(n) => {
                        let v = frame.locals()[usize::from(n)];
                        frame.push(v);
                        pc += 1;
                    }
                    Op::Store(n) => {
                        let v = pop_val(&mut frame, mid, pc)?;
                        frame.locals_mut()[usize::from(n)] = v;
                        pc += 1;
                    }
                    Op::Dup => {
                        let v = frame
                            .peek(0)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        frame.push(v);
                        pc += 1;
                    }
                    Op::Pop => {
                        pop_val(&mut frame, mid, pc)?;
                        pc += 1;
                    }
                    Op::Swap => {
                        let b = pop_val(&mut frame, mid, pc)?;
                        let a = pop_val(&mut frame, mid, pc)?;
                        frame.push(b);
                        frame.push(a);
                        pc += 1;
                    }
                    Op::Add
                    | Op::Sub
                    | Op::Mul
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Shl
                    | Op::Shr
                    | Op::CmpLt
                    | Op::CmpGt => {
                        let b = pop_int(&mut frame, mid, pc)?;
                        let a = pop_int(&mut frame, mid, pc)?;
                        let r = match op {
                            Op::Add => a.wrapping_add(b),
                            Op::Sub => a.wrapping_sub(b),
                            Op::Mul => a.wrapping_mul(b),
                            Op::And => a & b,
                            Op::Or => a | b,
                            Op::Xor => a ^ b,
                            Op::Shl => a.wrapping_shl(b as u32 & 63),
                            Op::Shr => a.wrapping_shr(b as u32 & 63),
                            Op::CmpLt => i64::from(a < b),
                            Op::CmpGt => i64::from(a > b),
                            _ => unreachable!(),
                        };
                        frame.push(Value::Int(r));
                        pc += 1;
                    }
                    Op::Div | Op::Rem => {
                        let b = pop_int(&mut frame, mid, pc)?;
                        let a = pop_int(&mut frame, mid, pc)?;
                        if b == 0 {
                            return Err(VmError::DivisionByZero { method: mid, pc });
                        }
                        let r = if matches!(op, Op::Div) {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        };
                        frame.push(Value::Int(r));
                        pc += 1;
                    }
                    Op::Neg => {
                        let a = pop_int(&mut frame, mid, pc)?;
                        frame.push(Value::Int(a.wrapping_neg()));
                        pc += 1;
                    }
                    Op::CmpEq => {
                        let b = pop_val(&mut frame, mid, pc)?;
                        let a = pop_val(&mut frame, mid, pc)?;
                        frame.push(Value::Int(i64::from(a == b)));
                        pc += 1;
                    }
                    Op::Jump(target) => {
                        let backedge = target <= pc;
                        pc = target;
                        if backedge && flavor.has_backedge_yieldpoints() {
                            profiler.on_backedge(mid, clock, tid);
                            if pending_switch {
                                frame.set_pc(pc);
                                t.frames.push(frame);
                                break 'slice;
                            }
                        }
                    }
                    Op::JumpIfZero(target) | Op::JumpIfNonZero(target) => {
                        let v = pop_val(&mut frame, mid, pc)?;
                        let jump = if matches!(op, Op::JumpIfZero(_)) {
                            !v.is_truthy()
                        } else {
                            v.is_truthy()
                        };
                        if jump {
                            let backedge = target <= pc;
                            pc = target;
                            if backedge && flavor.has_backedge_yieldpoints() {
                                profiler.on_backedge(mid, clock, tid);
                                if pending_switch {
                                    frame.set_pc(pc);
                                    t.frames.push(frame);
                                    break 'slice;
                                }
                            }
                        } else {
                            pc += 1;
                        }
                    }
                    Op::Call { site, target } => {
                        calls += 1;
                        invocations[target.index()] += 1;
                        // Reattach the caller; `push_callee` writes the
                        // return address (pc + 1) and pending site into it.
                        t.frames.push(frame);
                        push_callee(
                            t,
                            program,
                            mid,
                            pc,
                            site,
                            target,
                            self.config.max_stack_depth,
                        )?;
                        profiler.on_entry(&CallEvent {
                            edge: CallEdge::new(mid, site, target),
                            clock,
                            thread: tid,
                            stack: StackSlice::new(&t.frames),
                        });
                        if pending_switch {
                            break 'slice;
                        }
                        frame = t.frames.pop().expect("callee frame just pushed");
                        pc = 0;
                        mid = target;
                        code = program.method(mid).code();
                        costs = cost_rows[mid.index()].as_slice();
                        fused = self.fused_rows[mid.index()].as_slice();
                    }
                    Op::CallVirtual { site, slot, arity } => {
                        let receiver = frame
                            .peek(usize::from(arity) - 1)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        let r = receiver.as_ref().ok_or(VmError::TypeMismatch {
                            method: mid,
                            pc,
                            expected: "object receiver",
                        })?;
                        let target = self
                            .program
                            .class(heap.class_of(r))
                            .resolve(slot)
                            .ok_or(VmError::BadVirtualDispatch { method: mid, pc })?;
                        calls += 1;
                        invocations[target.index()] += 1;
                        t.frames.push(frame);
                        push_callee(
                            t,
                            program,
                            mid,
                            pc,
                            site,
                            target,
                            self.config.max_stack_depth,
                        )?;
                        profiler.on_entry(&CallEvent {
                            edge: CallEdge::new(mid, site, target),
                            clock,
                            thread: tid,
                            stack: StackSlice::new(&t.frames),
                        });
                        if pending_switch {
                            break 'slice;
                        }
                        frame = t.frames.pop().expect("callee frame just pushed");
                        pc = 0;
                        mid = target;
                        code = program.method(mid).code();
                        costs = cost_rows[mid.index()].as_slice();
                        fused = self.fused_rows[mid.index()].as_slice();
                    }
                    Op::Return => {
                        let rv = pop_val(&mut frame, mid, pc)?;
                        if t.frames.is_empty() {
                            t.done = true;
                            live -= 1;
                            t.result = rv;
                            frame.set_pc(pc);
                            t.frames.push(frame);
                            break 'slice;
                        }
                        if flavor.samples_exits() {
                            // The exit event shows the stack with the
                            // returning frame still on top, as the
                            // reference interpreter does.
                            frame.set_pc(pc);
                            t.frames.push(frame);
                            let caller = &t.frames[t.frames.len() - 2];
                            let edge = CallEdge::new(
                                caller.method(),
                                caller.pending_site().expect("caller has in-flight site"),
                                mid,
                            );
                            profiler.on_exit(&CallEvent {
                                edge,
                                clock,
                                thread: tid,
                                stack: StackSlice::new(&t.frames),
                            });
                            let retired = t.frames.pop().expect("returning frame");
                            t.pool.push(retired);
                        } else {
                            t.pool.push(frame);
                        }
                        let caller = t.frames.last_mut().expect("caller frame");
                        caller.set_pending_site(None);
                        caller.push(rv);
                        mid = caller.method();
                        if pending_switch {
                            break 'slice;
                        }
                        frame = t.frames.pop().expect("caller frame");
                        pc = frame.pc();
                        code = program.method(mid).code();
                        costs = cost_rows[mid.index()].as_slice();
                        fused = self.fused_rows[mid.index()].as_slice();
                    }
                    Op::GetField(n) => {
                        let r = pop_obj(&mut frame, mid, pc)?;
                        let v = heap
                            .get_field(r, n)
                            .ok_or(VmError::FieldOutOfRange { method: mid, pc })?;
                        frame.push(v);
                        pc += 1;
                    }
                    Op::PutField(n) => {
                        let v = pop_val(&mut frame, mid, pc)?;
                        let r = pop_obj(&mut frame, mid, pc)?;
                        if !heap.put_field(r, n, v) {
                            return Err(VmError::FieldOutOfRange { method: mid, pc });
                        }
                        pc += 1;
                    }
                    Op::New(class) => {
                        let num_fields = program.class(class).num_fields();
                        let r = heap.alloc(class, num_fields);
                        frame.push(Value::Ref(r));
                        pc += 1;
                    }
                    Op::GuardClass { class, not_taken } => {
                        let r = pop_obj(&mut frame, mid, pc)?;
                        if heap.class_of(r) == class {
                            pc += 1;
                        } else {
                            pc = not_taken;
                        }
                    }
                    Op::Io(_) => {
                        // Cost was charged above; the "result" is a dummy.
                        frame.push(Value::Int(0));
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

    /// The pre-optimization interpreter, kept verbatim as a baseline.
    ///
    /// This is the original dyn-dispatch hot path: per-op
    /// `program.method(mid).code()[pc]` fetch and `CostModel::op_cost`
    /// match, per-slice `threads.iter().any(..)` liveness scan, `Option`
    /// fuel check, and a fresh `Frame` allocation per call. It exists so
    /// that (a) the `interp_throughput` bench can assert the optimized
    /// path's speedup against the real pre-optimization code rather than
    /// a guess, and (b) differential tests can pin that the optimized
    /// interpreter is observationally identical. Not part of the public
    /// API contract.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on the same conditions as [`Vm::run`].
    #[doc(hidden)]
    pub fn run_reference(&self, profiler: &mut dyn Profiler) -> Result<ExecReport, VmError> {
        let program = self.program;
        let cost = &self.config.cost;
        let flavor = self.config.flavor;
        let period = self.config.timer_period();
        let entry = program.entry();
        let entry_locals = program.method(entry).num_locals();

        let mut heap = Heap::new();
        let mut invocations = vec![0u64; program.num_methods()];
        let mut threads: Vec<ThreadState> = (0..self.config.num_threads.max(1))
            .map(|_| {
                invocations[entry.index()] += 1;
                ThreadState {
                    frames: vec![Frame::new(entry, entry_locals)],
                    done: false,
                    result: Value::default(),
                    pool: Vec::new(),
                }
            })
            .collect();

        let jitter = self.config.timer_jitter.min(period.saturating_sub(1));
        let mut jitter_state = self.config.timer_seed | 1;
        let mut draw_period = move || {
            if jitter == 0 {
                return period;
            }
            // xorshift64: deterministic, cheap, seeded.
            jitter_state ^= jitter_state << 13;
            jitter_state ^= jitter_state >> 7;
            jitter_state ^= jitter_state << 17;
            period - jitter + jitter_state % (2 * jitter + 1)
        };

        let mut clock: u64 = 0;
        let mut next_tick: u64 = draw_period();
        let mut ticks: u64 = 0;
        let mut instructions: u64 = 0;
        let mut calls: u64 = 0;
        let mut cur = 0usize;

        while threads.iter().any(|t| !t.done) {
            if threads[cur].done {
                cur = (cur + 1) % threads.len();
                continue;
            }
            let tid = ThreadId(cur as u32);
            let t = &mut threads[cur];
            let mut pending_switch = false;

            'slice: loop {
                let (mid, pc) = {
                    let f = t.frames.last().expect("running thread has frames");
                    (f.method(), f.pc())
                };
                let op = program.method(mid).code()[pc as usize];

                clock += cost.op_cost(&op);
                instructions += 1;
                if let Some(budget) = self.config.max_cycles {
                    if clock > budget {
                        return Err(VmError::OutOfFuel { budget });
                    }
                }
                while next_tick <= clock {
                    ticks += 1;
                    profiler.on_tick(next_tick, tid, StackSlice::new(&t.frames));
                    next_tick += draw_period();
                    pending_switch = true;
                }

                match op {
                    Op::Const(v) => {
                        let f = t.frames.last_mut().expect("frame");
                        f.push(Value::Int(v));
                        f.set_pc(pc + 1);
                    }
                    Op::Load(n) => {
                        let f = t.frames.last_mut().expect("frame");
                        let v = f.locals()[usize::from(n)];
                        f.push(v);
                        f.set_pc(pc + 1);
                    }
                    Op::Store(n) => {
                        let f = t.frames.last_mut().expect("frame");
                        let v = pop_val(f, mid, pc)?;
                        f.locals_mut()[usize::from(n)] = v;
                        f.set_pc(pc + 1);
                    }
                    Op::Dup => {
                        let f = t.frames.last_mut().expect("frame");
                        let v = f
                            .peek(0)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        f.push(v);
                        f.set_pc(pc + 1);
                    }
                    Op::Pop => {
                        let f = t.frames.last_mut().expect("frame");
                        pop_val(f, mid, pc)?;
                        f.set_pc(pc + 1);
                    }
                    Op::Swap => {
                        let f = t.frames.last_mut().expect("frame");
                        let b = pop_val(f, mid, pc)?;
                        let a = pop_val(f, mid, pc)?;
                        f.push(b);
                        f.push(a);
                        f.set_pc(pc + 1);
                    }
                    Op::Add
                    | Op::Sub
                    | Op::Mul
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Shl
                    | Op::Shr
                    | Op::CmpLt
                    | Op::CmpGt => {
                        let f = t.frames.last_mut().expect("frame");
                        let b = pop_int(f, mid, pc)?;
                        let a = pop_int(f, mid, pc)?;
                        let r = match op {
                            Op::Add => a.wrapping_add(b),
                            Op::Sub => a.wrapping_sub(b),
                            Op::Mul => a.wrapping_mul(b),
                            Op::And => a & b,
                            Op::Or => a | b,
                            Op::Xor => a ^ b,
                            Op::Shl => a.wrapping_shl(b as u32 & 63),
                            Op::Shr => a.wrapping_shr(b as u32 & 63),
                            Op::CmpLt => i64::from(a < b),
                            Op::CmpGt => i64::from(a > b),
                            _ => unreachable!(),
                        };
                        f.push(Value::Int(r));
                        f.set_pc(pc + 1);
                    }
                    Op::Div | Op::Rem => {
                        let f = t.frames.last_mut().expect("frame");
                        let b = pop_int(f, mid, pc)?;
                        let a = pop_int(f, mid, pc)?;
                        if b == 0 {
                            return Err(VmError::DivisionByZero { method: mid, pc });
                        }
                        let r = if matches!(op, Op::Div) {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        };
                        f.push(Value::Int(r));
                        f.set_pc(pc + 1);
                    }
                    Op::Neg => {
                        let f = t.frames.last_mut().expect("frame");
                        let a = pop_int(f, mid, pc)?;
                        f.push(Value::Int(a.wrapping_neg()));
                        f.set_pc(pc + 1);
                    }
                    Op::CmpEq => {
                        let f = t.frames.last_mut().expect("frame");
                        let b = pop_val(f, mid, pc)?;
                        let a = pop_val(f, mid, pc)?;
                        f.push(Value::Int(i64::from(a == b)));
                        f.set_pc(pc + 1);
                    }
                    Op::Jump(target) => {
                        let backedge = target <= pc;
                        t.frames.last_mut().expect("frame").set_pc(target);
                        if backedge && flavor.has_backedge_yieldpoints() {
                            profiler.on_backedge(mid, clock, tid);
                            if pending_switch {
                                break 'slice;
                            }
                        }
                    }
                    Op::JumpIfZero(target) | Op::JumpIfNonZero(target) => {
                        let f = t.frames.last_mut().expect("frame");
                        let v = pop_val(f, mid, pc)?;
                        let jump = if matches!(op, Op::JumpIfZero(_)) {
                            !v.is_truthy()
                        } else {
                            v.is_truthy()
                        };
                        if jump {
                            f.set_pc(target);
                            if target <= pc && flavor.has_backedge_yieldpoints() {
                                profiler.on_backedge(mid, clock, tid);
                                if pending_switch {
                                    break 'slice;
                                }
                            }
                        } else {
                            f.set_pc(pc + 1);
                        }
                    }
                    Op::Call { site, target } => {
                        calls += 1;
                        invocations[target.index()] += 1;
                        push_callee(
                            t,
                            program,
                            mid,
                            pc,
                            site,
                            target,
                            self.config.max_stack_depth,
                        )?;
                        profiler.on_entry(&CallEvent {
                            edge: CallEdge::new(mid, site, target),
                            clock,
                            thread: tid,
                            stack: StackSlice::new(&t.frames),
                        });
                        if pending_switch {
                            break 'slice;
                        }
                    }
                    Op::CallVirtual { site, slot, arity } => {
                        let receiver = {
                            let f = t.frames.last().expect("frame");
                            f.peek(usize::from(arity) - 1)
                                .ok_or(VmError::OperandUnderflow { method: mid, pc })?
                        };
                        let r = receiver.as_ref().ok_or(VmError::TypeMismatch {
                            method: mid,
                            pc,
                            expected: "object receiver",
                        })?;
                        let target = self
                            .program
                            .class(heap.class_of(r))
                            .resolve(slot)
                            .ok_or(VmError::BadVirtualDispatch { method: mid, pc })?;
                        calls += 1;
                        invocations[target.index()] += 1;
                        push_callee(
                            t,
                            program,
                            mid,
                            pc,
                            site,
                            target,
                            self.config.max_stack_depth,
                        )?;
                        profiler.on_entry(&CallEvent {
                            edge: CallEdge::new(mid, site, target),
                            clock,
                            thread: tid,
                            stack: StackSlice::new(&t.frames),
                        });
                        if pending_switch {
                            break 'slice;
                        }
                    }
                    Op::Return => {
                        let rv = {
                            let f = t.frames.last_mut().expect("frame");
                            pop_val(f, mid, pc)?
                        };
                        if t.frames.len() == 1 {
                            t.done = true;
                            t.result = rv;
                            break 'slice;
                        }
                        if flavor.samples_exits() {
                            let caller = &t.frames[t.frames.len() - 2];
                            let edge = CallEdge::new(
                                caller.method(),
                                caller.pending_site().expect("caller has in-flight site"),
                                mid,
                            );
                            profiler.on_exit(&CallEvent {
                                edge,
                                clock,
                                thread: tid,
                                stack: StackSlice::new(&t.frames),
                            });
                        }
                        t.frames.pop();
                        let caller = t.frames.last_mut().expect("caller frame");
                        caller.set_pending_site(None);
                        caller.push(rv);
                        if pending_switch {
                            break 'slice;
                        }
                    }
                    Op::GetField(n) => {
                        let f = t.frames.last_mut().expect("frame");
                        let r = pop_obj(f, mid, pc)?;
                        let v = heap
                            .get_field(r, n)
                            .ok_or(VmError::FieldOutOfRange { method: mid, pc })?;
                        f.push(v);
                        f.set_pc(pc + 1);
                    }
                    Op::PutField(n) => {
                        let f = t.frames.last_mut().expect("frame");
                        let v = pop_val(f, mid, pc)?;
                        let r = pop_obj(f, mid, pc)?;
                        if !heap.put_field(r, n, v) {
                            return Err(VmError::FieldOutOfRange { method: mid, pc });
                        }
                        f.set_pc(pc + 1);
                    }
                    Op::New(class) => {
                        let num_fields = program.class(class).num_fields();
                        let r = heap.alloc(class, num_fields);
                        let f = t.frames.last_mut().expect("frame");
                        f.push(Value::Ref(r));
                        f.set_pc(pc + 1);
                    }
                    Op::GuardClass { class, not_taken } => {
                        let f = t.frames.last_mut().expect("frame");
                        let r = pop_obj(f, mid, pc)?;
                        if heap.class_of(r) == class {
                            f.set_pc(pc + 1);
                        } else {
                            f.set_pc(not_taken);
                        }
                    }
                    Op::Io(_) => {
                        // Cost was charged above; the "result" is a dummy.
                        let f = t.frames.last_mut().expect("frame");
                        f.push(Value::Int(0));
                        f.set_pc(pc + 1);
                    }
                    Op::Nop => {
                        t.frames.last_mut().expect("frame").set_pc(pc + 1);
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

/// Pops the callee's arguments from the caller, pushes the callee frame.
///
/// The callee frame is recycled from the thread's frame pool when one is
/// available (the optimized interpreter returns frames there on
/// `Op::Return`), falling back to a fresh allocation. The reference
/// interpreter never fills the pool, so it keeps the original
/// allocate-per-call behavior through this same function.
fn push_callee(
    t: &mut ThreadState,
    program: &Program,
    caller: MethodId,
    pc: u32,
    site: cbs_bytecode::CallSiteId,
    target: MethodId,
    max_depth: usize,
) -> Result<(), VmError> {
    if t.frames.len() >= max_depth {
        return Err(VmError::StackOverflow { limit: max_depth });
    }
    let callee = program.method(target);
    let mut frame = match t.pool.pop() {
        Some(mut recycled) => {
            recycled.reset(target, callee.num_locals());
            recycled
        }
        None => Frame::new(target, callee.num_locals()),
    };
    let arity = usize::from(callee.num_params());
    {
        let caller_frame = t.frames.last_mut().expect("caller frame");
        for i in (0..arity).rev() {
            let v = caller_frame
                .pop()
                .ok_or(VmError::OperandUnderflow { method: caller, pc })?;
            frame.locals_mut()[i] = v;
        }
        caller_frame.set_pc(pc + 1); // return address
        caller_frame.set_pending_site(Some(site));
    }
    t.frames.push(frame);
    Ok(())
}

fn pop_val(f: &mut Frame, method: MethodId, pc: u32) -> Result<Value, VmError> {
    f.pop().ok_or(VmError::OperandUnderflow { method, pc })
}

fn pop_int(f: &mut Frame, method: MethodId, pc: u32) -> Result<i64, VmError> {
    pop_val(f, method, pc)?
        .as_int()
        .ok_or(VmError::TypeMismatch {
            method,
            pc,
            expected: "integer",
        })
}

fn pop_obj(f: &mut Frame, method: MethodId, pc: u32) -> Result<crate::value::ObjRef, VmError> {
    pop_val(f, method, pc)?
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

    /// The optimized interpreter and the preserved reference interpreter
    /// must be observationally identical (the full differential suite
    /// lives in `tests/dispatch_equivalence.rs`; this is the in-crate
    /// smoke version).
    #[test]
    fn optimized_run_matches_reference() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 1, 0, |c| {
                c.load(0).const_(3).mul().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 1, |c| {
                c.counted_loop(0, 5_000, |c| {
                    c.const_(2).call(f).pop();
                });
                c.const_(0).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();
        let config = VmConfig {
            num_threads: 2,
            ..VmConfig::default()
        };
        let vm = Vm::new(&p, config);
        let optimized = vm.run_with(&mut NullProfiler).unwrap();
        let reference = vm.run_reference(&mut NullProfiler).unwrap();
        assert_eq!(optimized, reference);
    }

    /// Superinstruction fusion must bail to the per-op path whenever a
    /// timer tick or the cycle budget would land inside a fused run, and
    /// the bail must be invisible. Shrinking the timer period to a few
    /// cycles makes nearly every fused run fail its guard, so this pins
    /// the fallback path against the reference interpreter.
    #[test]
    fn fused_runs_bail_identically_under_dense_ticks_and_budget() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let main = b
            .function("main", cls, 0, 2, |c| {
                // Body dominated by fusible work-run quads, looped so the
                // fused entry pcs are hit thousands of times.
                c.counted_loop(0, 2_000, |c| {
                    c.load(1).const_(5).add().store(1);
                    c.load(1).const_(3).mul().store(1);
                    c.load(1).const_(0x55).bxor().store(1);
                    c.load(1).const_(7).sub().store(1);
                });
                c.load(1).ret();
            })
            .unwrap();
        b.set_entry(main);
        let p = b.build().unwrap();

        // timer_hz 500_000 -> period 20 cycles, shorter than one quad
        // run, so the `next_tick > end_clock` guard fails constantly;
        // the default 100 Hz config covers the guard-passes side.
        for (timer_hz, timer_jitter) in [(500_000, 0), (100_000, 12_500), (100, 12_500)] {
            let cfg = VmConfig {
                timer_hz,
                timer_jitter,
                ..VmConfig::default()
            };
            let vm = Vm::new(&p, cfg);
            let optimized = vm.run_with(&mut NullProfiler).unwrap();
            let reference = vm.run_reference(&mut NullProfiler).unwrap();
            assert_eq!(optimized, reference, "hz={timer_hz} jitter={timer_jitter}");
            if timer_hz > 100 {
                assert!(optimized.ticks > 0, "ticks must land inside fused runs");
            }
        }

        // A budget expiring mid-run must surface the identical error from
        // both interpreters (the fusion guard also covers OutOfFuel).
        let cfg = VmConfig {
            max_cycles: Some(12_345),
            ..VmConfig::default()
        };
        let vm = Vm::new(&p, cfg);
        let optimized = vm.run_with(&mut NullProfiler).unwrap_err();
        let reference = vm.run_reference(&mut NullProfiler).unwrap_err();
        assert_eq!(optimized, reference);
    }

    /// Pins which shapes `scan_fused` recognizes: maximal work runs,
    /// forward-only test-branches, fold-accumulates, and the non-zero
    /// constant requirement for fused division.
    #[test]
    fn scan_fused_recognizes_expected_templates() {
        let costs = |code: &[Op]| vec![1u64; code.len()];

        // Two consecutive quads on slot 0 fuse into one maximal run
        // starting at pc 0; interior pcs stay per-op.
        let run = [
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
        let fused = scan_fused(&run, &costs(&run));
        let f = fused[0].as_deref().expect("work run fuses");
        assert_eq!((f.num_ops, f.next_pc, f.total_cost), (8, 8, 8));
        assert!(matches!(&f.kind, FusedKind::WorkRun { slot: 0, steps } if steps.len() == 2));
        assert!(fused[1..].iter().all(Option::is_none), "interiors per-op");

        // Division fuses only when the constant divisor is non-zero.
        let div0 = [Op::Load(0), Op::Const(0), Op::Div, Op::Store(0), Op::Return];
        assert!(scan_fused(&div0, &costs(&div0))[0].is_none());
        let div2 = [Op::Load(0), Op::Const(2), Op::Div, Op::Store(0), Op::Return];
        assert!(scan_fused(&div2, &costs(&div2))[0].is_some());

        // Test-branch fuses only on a forward target: a backward jump is
        // a backedge yieldpoint and must stay per-op.
        let fwd = [
            Op::Load(1),
            Op::Const(3),
            Op::And,
            Op::JumpIfZero(6),
            Op::Nop,
            Op::Nop,
            Op::Return,
        ];
        let f = scan_fused(&fwd, &costs(&fwd))[0]
            .as_deref()
            .expect("forward test-branch fuses")
            .clone();
        assert_eq!((f.num_ops, f.next_pc), (4, 4));
        assert!(matches!(
            f.kind,
            FusedKind::TestBranch {
                slot: 1,
                k: 3,
                target: 6,
                jump_if_zero: true,
                ..
            }
        ));
        let back = [
            Op::Nop,
            Op::Load(1),
            Op::Const(3),
            Op::And,
            Op::JumpIfNonZero(0),
            Op::Return,
        ];
        assert!(scan_fused(&back, &costs(&back))[1].is_none());

        // Fold-accumulate: Load/binop/Store on the same slot.
        let fold = [Op::Load(2), Op::Add, Op::Store(2), Op::Return];
        let f = scan_fused(&fold, &costs(&fold))[0]
            .as_deref()
            .expect("fold fuses")
            .clone();
        assert_eq!((f.num_ops, f.next_pc, f.total_cost), (3, 3, 3));
        assert!(matches!(
            f.kind,
            FusedKind::FoldAccum {
                slot: 2,
                op: Op::Add
            }
        ));
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
