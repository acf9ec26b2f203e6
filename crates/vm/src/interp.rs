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
use crate::decode::{Decoded, Head, Shape};
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
    /// The program decoded once, at construction, under `config.cost`:
    /// the flat tables the run loop reads. See [`Decoded`].
    decoded: Decoded<'p>,
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
        Self {
            program,
            decoded: Decoded::new(program, &config.cost),
            config,
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
    /// 2. **One record per method** — [`Vm::new`] decodes the program
    ///    once into flat tables, and a call or return loads the callee's
    ///    or caller's one record: its code slice (the program's own),
    ///    where its slots start, and its parameter and local counts. The
    ///    running frame's method, pc and locals base, where its operands
    ///    start, its code and its slots are held in locals, so the
    ///    per-op path performs no frame loads/stores. One 8-byte slot
    ///    per op holds its charge and its fused run, so one load answers
    ///    both; a charge too large for the slot's `u32` is an escape
    ///    value, and [`CostModel::op_cost`](crate::CostModel::op_cost)
    ///    supplies it exactly. The frame itself stays on the frame stack;
    ///    only its pc goes stale, and it is written back wherever the
    ///    stack is observable: tick delivery, a delivered exit, a thread
    ///    switch at a backedge. A call writes it as the caller's return
    ///    address.
    /// 3. **Cheap liveness / budget checks** — a live-thread counter
    ///    replaces the per-slice `threads.iter().any(..)` scan, and the
    ///    per-op path and the fused guard compare the clock with one
    ///    horizon, the earlier of the next tick's deadline and the first
    ///    cycle past the budget (an absent `max_cycles` is `u64::MAX`).
    ///    Only past the horizon does the loop look at which it was.
    /// 4. **Superinstruction fusion** — two templates, found once in
    ///    [`Vm::new`]: the integer run
    ///    `[Load src] [binop] { Const k, binop | Store d, Load d }* [Store dst]`
    ///    (the accumulator lives in a register from a local or the stack
    ///    top to a local or the stack top; it covers the generator's
    ///    `Load, Const, op, Store` quads and the longer chains `cbs-opt`
    ///    forwards them into alike) and the forward test-branch
    ///    `Load s, [Const k, op], JumpIf*`. The runs are lowered into one
    ///    contiguous table of 32-byte records and their steps into one
    ///    step table, each step carrying its operation (`Add(k)`,
    ///    `Xor(k)`, …, `Spill(d)`), so a step is one `match`; adjacent
    ///    steps (`Xor`s, then `Add`, `Sub`, `Mul` and `Shl`) are folded
    ///    into one `(acc ^ x) * m + c`, exact in wrapping arithmetic. A
    ///    run executes as a single dispatch whenever no timer tick or
    ///    fuel boundary can land inside it and every operand is an `Int`;
    ///    otherwise the same ops run through the ordinary per-op path, so
    ///    every observable event and trap falls at exactly the same cycle
    ///    and pc either way.
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
        let cost_model = &self.config.cost;
        let decoded = &self.decoded;
        let entries = decoded.entries.as_slice();
        let runs = decoded.runs.as_slice();
        let entry = program.entry();
        let entry_locals = usize::from(entries[entry.index()].num_locals);

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
        // An absent budget becomes an unreachable one. The per-op path
        // and the fused guard compare the clock with one horizon: the
        // earlier of the next tick's deadline and the first cycle past
        // the budget.
        let budget = self.config.max_cycles.unwrap_or(u64::MAX);
        let past_budget = budget.saturating_add(1);
        let mut horizon = timer.deadline().min(past_budget);
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
            // underflows), and the method's code and slots, all held in
            // locals so the per-op path reads no frame. The frame stays
            // on `frames`; its pc is written back at every point where
            // the stack becomes observable (tick delivery, call
            // entry/exit, thread switch), so profiler hooks see the whole
            // stack, top frame and pc included.
            let top = *frames.last().expect("running thread has frames");
            let mut mid = top.method();
            let mut pc = top.pc();
            let mut base = top.base();
            let method = &entries[mid.index()];
            let mut floor = base + usize::from(method.num_locals);
            let mut code = method.code;
            let mut slots = decoded.slots(method);

            'slice: loop {
                // Superinstruction fast path: execute a whole fused run in
                // one dispatch when no tick or fuel boundary can land
                // inside it and the operands are `Int`s (so the per-op
                // path could not trap). Otherwise fall through and
                // interpret the same ops one at a time.
                let slot = slots[pc as usize];
                if slot.fused != 0 {
                    let run = &runs[slot.fused as usize];
                    let end_clock = clock + run.total_cost;
                    if end_clock >= horizon {
                        // A tick or fuel boundary lands inside the run:
                        // bail to per-op execution so the boundary is
                        // observed at its exact cycle.
                        fused_tally.bails += 1;
                    } else {
                        let steps = decoded.steps(run.steps);
                        let next = match run.shape {
                            Shape::Int { head, dst } => {
                                // Every operand is checked before anything
                                // is popped or written.
                                let start = match head {
                                    Head::Local(s) => values[base + usize::from(s)].as_int(),
                                    Head::Fold(s, op) => {
                                        match (
                                            peek(values, floor, 0),
                                            values[base + usize::from(s)],
                                        ) {
                                            (Some(Value::Int(top)), Value::Int(loc)) => {
                                                values.pop();
                                                Some(op.eval(top, loc))
                                            }
                                            _ => None,
                                        }
                                    }
                                    Head::Top => match peek(values, floor, 0) {
                                        Some(Value::Int(top)) => {
                                            values.pop();
                                            Some(top)
                                        }
                                        _ => None,
                                    },
                                };
                                start.map(|mut acc| {
                                    for step in steps {
                                        acc = step.apply(acc, values, base);
                                    }
                                    match dst {
                                        Some(d) => values[base + usize::from(d)] = Value::Int(acc),
                                        None => values.push(Value::Int(acc)),
                                    }
                                    run.next_pc
                                })
                            }
                            Shape::Branch {
                                slot,
                                jump_if_zero,
                                target,
                            } => values[base + usize::from(slot)].as_int().map(|loc| {
                                let mut v = loc;
                                for step in steps {
                                    v = step.apply(v, values, base);
                                }
                                if (v == 0) == jump_if_zero {
                                    target
                                } else {
                                    run.next_pc
                                }
                            }),
                        };
                        if let Some(next_pc) = next {
                            fused_tally.runs += 1;
                            clock = end_clock;
                            instructions += u64::from(run.next_pc - pc);
                            pc = next_pc;
                            continue;
                        }
                        // Operand shape mismatch (a non-`Int` where the
                        // per-op path could trap): bail to per-op.
                        fused_tally.bails += 1;
                    }
                }

                let op = code[pc as usize];

                clock += slot.charge(&op, cost_model);
                instructions += 1;
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
                // tick counts for a tight loop under both flavors. The
                // fuel and timer checks share one compare with `horizon`.
                if clock >= horizon {
                    if clock > budget {
                        return Err(VmError::OutOfFuel { budget });
                    }
                    if timer.deadline() <= clock {
                        running(frames).set_pc(pc);
                        while timer.deadline() <= clock {
                            ticks += 1;
                            profiler.on_tick(timer.advance(), tid, StackSlice::new(frames));
                            pending_switch = true;
                        }
                        armed = profiler.armed(tid);
                        horizon = timer.deadline().min(past_budget);
                    }
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
                        let callee = &entries[target.index()];
                        base = values
                            .len()
                            .checked_sub(usize::from(callee.num_params))
                            .filter(|&args| args >= floor)
                            .ok_or(VmError::OperandUnderflow { method: mid, pc })?;
                        floor = base + usize::from(callee.num_locals);
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
                        code = callee.code;
                        slots = decoded.slots(callee);
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
                        let method = &entries[mid.index()];
                        floor = base + usize::from(method.num_locals);
                        code = method.code;
                        slots = decoded.slots(method);
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
