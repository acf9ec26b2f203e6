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

/// Evaluates `a <op> b` exactly as the corresponding per-op arm does.
#[inline]
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
    frames: Vec<Frame>,
    done: bool,
    result: Value,
    /// Retired frames recycled by calls, so the steady-state call path
    /// performs no heap allocation (see [`enter_callee`]).
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
    /// [`Vm::run_with`] instantiated at `dyn Profiler`, for callers that
    /// hold a trait object. It is the same loop with the same inlined
    /// helpers; what the `dyn` path adds is one indirect call per
    /// *delivered* hook and per [`Profiler::armed`] re-read, and a
    /// sampler that is disarmed most of the run (CBS, the timer sampler)
    /// is delivered almost nothing — so there is no reason to avoid this
    /// entry point for them. A profiler that takes every event
    /// (exhaustive counting) does inline better through `run_with`.
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
    /// six micro-architectural optimizations relative to the reference
    /// interpreter ([`Vm::run_reference`]), none of which change any
    /// observable behavior — reports, event sequences and trap points are
    /// bit-identical (pinned by `tests/dispatch_equivalence.rs`):
    ///
    /// 1. **Monomorphized dispatch** — with a concrete `P`, profiler
    ///    hooks inline; for [`NullProfiler`] they vanish entirely. The
    ///    instantiation lives in the *caller's* crate, so every helper
    ///    this function calls per op or per call (`Frame`'s accessors,
    ///    `Value::as_int`, `Heap::get_field`, `pop_val`, `enter_callee`,
    ///    `apply_int`, …) is `#[inline]`: without that a downstream
    ///    `run_with(&mut NullProfiler)` is slower than
    ///    [`Vm::run_unprofiled`] on the same run (`interp_throughput`
    ///    gates the two within 5 %).
    /// 2. **Cached code cursor, detached top frame** — the running
    ///    thread's top frame is popped off the frame stack and held in a
    ///    local along with its pc and the executing method's code slice
    ///    and precomputed cost row (built once in [`Vm::new`]), so the
    ///    per-op path performs no `Vec` accesses, no frame pc
    ///    loads/stores, and no `CostModel::op_cost` re-match. The frame
    ///    is reattached (pc written back) wherever the stack is
    ///    observable: tick delivery, a delivered call entry/exit, thread
    ///    switch.
    /// 3. **Cheap liveness / budget checks** — a live-thread counter
    ///    replaces the per-slice `threads.iter().any(..)` scan, and an
    ///    absent `max_cycles` budget becomes `u64::MAX` so the per-op
    ///    fuel check is one always-false compare instead of an `Option`
    ///    test.
    /// 4. **Frame pooling** — returned frames are recycled through a
    ///    per-thread pool, so steady-state calls do not heap-allocate.
    /// 5. **Superinstruction fusion** — two templates, detected once in
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
    /// 6. **The overloaded check** — [`Profiler::armed`] is held in a
    ///    local and re-read only after a hook is delivered. While it is
    ///    `false` a call builds no [`CallEvent`], reattaches no frame and
    ///    makes no profiler call: a disarmed sampler costs a flag test,
    ///    as the paper's Figures 3–4 have it.
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
            // The overloaded check: entry and exit events are built and
            // delivered only while the profiler is armed on this thread.
            // Its answer can change only inside a hook, so it is re-read
            // after each hook that is delivered and nowhere else.
            let mut armed = profiler.armed(tid);

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
                            FusedKind::IntRun { head, steps, dst } => {
                                // Every operand is checked before anything
                                // is popped or written.
                                let start = match *head {
                                    RunHead::Local(s) => frame.locals()[usize::from(s)].as_int(),
                                    RunHead::FoldTop(s, op) => {
                                        match (frame.peek(0), frame.locals()[usize::from(s)]) {
                                            (Some(Value::Int(top)), Value::Int(loc)) => {
                                                frame.pop();
                                                Some(apply_int(op, top, loc))
                                            }
                                            _ => None,
                                        }
                                    }
                                    RunHead::Top => match frame.peek(0) {
                                        Some(Value::Int(top)) => {
                                            frame.pop();
                                            Some(top)
                                        }
                                        _ => None,
                                    },
                                };
                                start.map(|mut acc| {
                                    for step in steps.iter() {
                                        match *step {
                                            RunStep::Arith(op, k) => acc = apply_int(op, acc, k),
                                            RunStep::Spill(d) => {
                                                frame.locals_mut()[usize::from(d)] =
                                                    Value::Int(acc);
                                            }
                                        }
                                    }
                                    match *dst {
                                        Some(d) => {
                                            frame.locals_mut()[usize::from(d)] = Value::Int(acc);
                                        }
                                        None => frame.push(Value::Int(acc)),
                                    }
                                    f.next_pc
                                })
                            }
                            FusedKind::TestBranch {
                                slot,
                                test,
                                target,
                                jump_if_zero,
                            } => frame.locals()[usize::from(*slot)].as_int().map(|loc| {
                                let v = match *test {
                                    Some((op, k)) => apply_int(op, loc, k),
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
                if next_tick <= clock {
                    frame.set_pc(pc);
                    t.frames.push(frame);
                    while next_tick <= clock {
                        ticks += 1;
                        profiler.on_tick(next_tick, tid, StackSlice::new(&t.frames));
                        next_tick += draw_period();
                        pending_switch = true;
                    }
                    armed = profiler.armed(tid);
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
                        if backedge && backedge_yieldpoints && pending_switch {
                            frame.set_pc(pc);
                            t.frames.push(frame);
                            break 'slice;
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
                            if backedge && backedge_yieldpoints && pending_switch {
                                frame.set_pc(pc);
                                t.frames.push(frame);
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
                                let receiver = frame
                                    .peek(usize::from(arity) - 1)
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
                        // The detached caller counts toward the depth.
                        if t.frames.len() + 1 >= max_stack_depth {
                            return Err(VmError::StackOverflow {
                                limit: max_stack_depth,
                            });
                        }
                        let callee =
                            enter_callee(&mut t.pool, program, &mut frame, pc, site, target)?;
                        // The caller goes back on the stack (return address
                        // and pending site written); the callee becomes the
                        // detached top frame.
                        t.frames.push(std::mem::replace(&mut frame, callee));
                        if armed {
                            t.frames.push(frame);
                            profiler.on_entry(&CallEvent {
                                edge: CallEdge::new(mid, site, target),
                                clock,
                                thread: tid,
                                stack: StackSlice::new(&t.frames),
                            });
                            armed = profiler.armed(tid);
                            frame = t.frames.pop().expect("callee frame just pushed");
                        }
                        if pending_switch {
                            t.frames.push(frame);
                            break 'slice;
                        }
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
                        if armed && samples_exits {
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
                            armed = profiler.armed(tid);
                            frame = t.frames.pop().expect("returning frame");
                        }
                        t.pool.push(frame);
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
                        if backedge && flavor.has_backedge_yieldpoints() && pending_switch {
                            break 'slice;
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
                            if target <= pc && flavor.has_backedge_yieldpoints() && pending_switch {
                                break 'slice;
                            }
                        } else {
                            f.set_pc(pc + 1);
                        }
                    }
                    Op::Call { site, target } => {
                        calls += 1;
                        invocations[target.index()] += 1;
                        if t.frames.len() >= self.config.max_stack_depth {
                            return Err(VmError::StackOverflow {
                                limit: self.config.max_stack_depth,
                            });
                        }
                        let caller = t.frames.last_mut().expect("frame");
                        let callee = enter_callee(&mut t.pool, program, caller, pc, site, target)?;
                        t.frames.push(callee);
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
                        if t.frames.len() >= self.config.max_stack_depth {
                            return Err(VmError::StackOverflow {
                                limit: self.config.max_stack_depth,
                            });
                        }
                        let caller = t.frames.last_mut().expect("frame");
                        let callee = enter_callee(&mut t.pool, program, caller, pc, site, target)?;
                        t.frames.push(callee);
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

/// Builds the frame for a call at `pc` of `caller`: pops the callee's
/// arguments into its locals and leaves the return address (`pc + 1`) and
/// the in-flight site in the caller.
///
/// The frame is recycled from the thread's pool when one is available
/// (the optimized interpreter returns frames there on `Op::Return`),
/// falling back to a fresh allocation. The reference interpreter never
/// fills the pool, so it keeps the original allocate-per-call behavior
/// through this same function.
#[inline]
fn enter_callee(
    pool: &mut Vec<Frame>,
    program: &Program,
    caller: &mut Frame,
    pc: u32,
    site: cbs_bytecode::CallSiteId,
    target: MethodId,
) -> Result<Frame, VmError> {
    let callee = program.method(target);
    let mut frame = match pool.pop() {
        Some(mut recycled) => {
            recycled.reset(target, callee.num_locals());
            recycled
        }
        None => Frame::new(target, callee.num_locals()),
    };
    for i in (0..usize::from(callee.num_params())).rev() {
        frame.locals_mut()[i] = pop_val(caller, caller.method(), pc)?;
    }
    caller.set_pc(pc + 1); // return address
    caller.set_pending_site(Some(site));
    Ok(frame)
}

#[inline]
fn pop_val(f: &mut Frame, method: MethodId, pc: u32) -> Result<Value, VmError> {
    f.pop().ok_or(VmError::OperandUnderflow { method, pc })
}

#[inline]
fn pop_int(f: &mut Frame, method: MethodId, pc: u32) -> Result<i64, VmError> {
    pop_val(f, method, pc)?
        .as_int()
        .ok_or(VmError::TypeMismatch {
            method,
            pc,
            expected: "integer",
        })
}

#[inline]
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

    /// The `Profiler::armed` contract, from the profiler's side: entries
    /// and exits arrive only while it says it is armed, and its answer is
    /// re-read after every hook — so a sampler that wants three events
    /// per tick is delivered exactly three, under both flavors and with
    /// threads interleaving. The reference interpreter, which never asks,
    /// shows the events were there to deliver.
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
            assert_eq!(vm.run_reference(&mut ungated).unwrap(), report);
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
