//! An independent reference interpreter: the oracle the differential
//! suites hold `Vm::run_with` to.
//!
//! It shares only the specification with `cbs-vm`: `Program` and `Op`,
//! `VmConfig` and its cost model, `VmError`, and the `Profiler` hooks with
//! their `CallEvent`. Everything that executes is its own: values, operand
//! stacks, locals, heap, call and return, round-robin scheduling, the
//! jittered timer and the fuel check. So a bug in the interpreter's frames,
//! heap, values or pop helpers shows up here as a difference instead of
//! being reproduced. It is written to be plainly right, not fast: one
//! `while` over one `match`, a plain `Vec` per stack, no shared value
//! stack, no fusion, no cached cursor, and no `Profiler::armed` query, so
//! every event is delivered. Hooks are shown `cbs_vm::Frame`s built afresh
//! from the activations at each event, through `StackSlice::for_testing`.

use cbs_bytecode::{CallSiteId, ClassId, MethodId, Op, Program};
use cbs_dcg::CallEdge;
use cbs_vm::{CallEvent, Frame, Profiler, StackSlice, ThreadId, VmConfig, VmError, VmFlavor};

/// A value: an integer, or a heap object by its allocation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    Int(i64),
    Ref(usize),
}

/// What a run reports, field for field as `cbs_vm::ExecReport`.
#[derive(Debug, PartialEq)]
pub(crate) struct Report {
    pub(crate) cycles: u64,
    pub(crate) seconds: f64,
    pub(crate) instructions: u64,
    pub(crate) calls: u64,
    pub(crate) ticks: u64,
    pub(crate) invocations: Vec<u64>,
    pub(crate) return_values: Vec<Val>,
}

/// One activation. `site` is the call site that created it.
#[derive(Clone)]
struct Act {
    method: MethodId,
    pc: u32,
    site: Option<CallSiteId>,
    locals: Vec<Val>,
    stack: Vec<Val>,
}

impl Act {
    fn new(program: &Program, method: MethodId, site: Option<CallSiteId>) -> Self {
        let locals = vec![Val::Int(0); usize::from(program.method(method).num_locals())];
        Self {
            method,
            pc: 0,
            site,
            locals,
            stack: Vec::new(),
        }
    }
}

/// The stack as hooks see it, outermost first: each activation's method
/// and pc, and the call site the next one was entered through.
fn shown(acts: &[Act]) -> Vec<Frame> {
    (acts.iter().enumerate())
        .map(|(i, a)| Frame::new(a.method, a.pc, acts.get(i + 1).and_then(|inner| inner.site)))
        .collect()
}

/// `a <op> b` for an integer binop; `None` for a zero divisor.
pub(crate) fn arith(op: Op, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        // `wrapping_sh*` takes the amount modulo 64.
        Op::Shl => a.wrapping_shl(b as u32),
        Op::Shr => a.wrapping_shr(b as u32),
        Op::CmpLt => i64::from(a < b),
        Op::CmpGt => i64::from(a > b),
        Op::Div if b != 0 => a.wrapping_div(b),
        Op::Rem if b != 0 => a.wrapping_rem(b),
        _ => return None,
    })
}

/// Runs `program` to completion under `config`, reporting every event
/// to `profiler`.
pub(crate) fn run(
    program: &Program,
    config: &VmConfig,
    profiler: &mut dyn Profiler,
) -> Result<Report, VmError> {
    let num_threads = config.num_threads.max(1) as usize;
    let entry = program.entry();
    // Per thread, its activations.
    let mut threads = vec![vec![Act::new(program, entry, None)]; num_threads];
    let mut results: Vec<Option<Val>> = vec![None; num_threads];
    let mut invocations = vec![0u64; program.num_methods()];
    invocations[entry.index()] = num_threads as u64;
    // Objects as (class, fields), addressed by allocation index.
    let mut heap: Vec<(ClassId, Vec<Val>)> = Vec::new();
    let jikes = config.flavor == VmFlavor::Jikes;

    // Each timer period is drawn from [period - jitter, period + jitter]
    // by a seeded xorshift64.
    let period = (config.cycles_per_second / config.timer_hz).max(1);
    let jitter = config.timer_jitter.min(period - 1);
    let mut seed = config.timer_seed | 1;
    let mut next_period = || {
        if jitter == 0 {
            return period;
        }
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        period - jitter + seed % (2 * jitter + 1)
    };
    let mut next_tick = next_period();
    let (mut clock, mut ticks, mut instructions, mut calls) = (0u64, 0u64, 0u64, 0u64);
    // A tick raises `pending_switch`; the thread yields at its next call,
    // return or (Jikes flavor) backedge.
    let (mut cur, mut pending_switch, mut yielding) = (0usize, false, false);

    while results.iter().any(Option::is_none) {
        if yielding || results[cur].is_some() {
            (cur, pending_switch, yielding) = ((cur + 1) % num_threads, false, false);
            continue;
        }
        let tid = ThreadId(cur as u32);
        let acts = &mut threads[cur];
        let (mid, pc) = acts.last().map(|a| (a.method, a.pc)).expect("live");
        let op = program.method(mid).code()[pc as usize];

        // The op's cost is charged, then the fuel and the timer are checked,
        // then it executes: a tick is seen at the op it lands on.
        clock += config.cost.op_cost(&op);
        instructions += 1;
        if let Some(budget) = config.max_cycles.filter(|&b| clock > b) {
            return Err(VmError::OutOfFuel { budget });
        }
        while next_tick <= clock {
            ticks += 1;
            profiler.on_tick(next_tick, tid, StackSlice::for_testing(&shown(acts)));
            next_tick += next_period();
            pending_switch = true;
        }

        let underflow = || VmError::OperandUnderflow { method: mid, pc };
        let mismatch = |expected| VmError::TypeMismatch {
            method: mid,
            pc,
            expected,
        };
        let pop = |s: &mut Vec<Val>| s.pop().ok_or_else(underflow);
        let pop_int = |s: &mut Vec<Val>| match pop(s)? {
            Val::Int(i) => Ok(i),
            Val::Ref(_) => Err(mismatch("integer")),
        };
        let pop_obj = |s: &mut Vec<Val>| match pop(s)? {
            Val::Ref(r) => Ok(r),
            Val::Int(_) => Err(mismatch("object reference")),
        };
        let no_field = VmError::FieldOutOfRange { method: mid, pc };
        let no_method = VmError::BadVirtualDispatch { method: mid, pc };

        let top = acts.last_mut().expect("live");
        let s = &mut top.stack;
        let mut next = pc + 1;
        match op {
            Op::Const(k) => s.push(Val::Int(k)),
            Op::Load(n) => s.push(top.locals[usize::from(n)]),
            Op::Store(n) => top.locals[usize::from(n)] = pop(s)?,
            Op::Dup => s.push(*s.last().ok_or_else(underflow)?),
            Op::Pop => {
                pop(s)?;
            }
            Op::Swap => {
                let (b, a) = (pop(s)?, pop(s)?);
                s.extend([b, a]);
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
            | Op::CmpGt
            | Op::Div
            | Op::Rem => {
                let (b, a) = (pop_int(s)?, pop_int(s)?);
                let r = arith(op, a, b).ok_or(VmError::DivisionByZero { method: mid, pc })?;
                s.push(Val::Int(r));
            }
            Op::Neg => {
                let a = pop_int(s)?;
                s.push(Val::Int(a.wrapping_neg()));
            }
            Op::CmpEq => {
                let (b, a) = (pop(s)?, pop(s)?);
                s.push(Val::Int(i64::from(a == b)));
            }
            Op::Jump(target) | Op::JumpIfZero(target) | Op::JumpIfNonZero(target) => {
                let taken = match op {
                    Op::JumpIfZero(_) => pop(s)? == Val::Int(0),
                    Op::JumpIfNonZero(_) => pop(s)? != Val::Int(0),
                    _ => true,
                };
                if taken {
                    next = target;
                    yielding = jikes && target <= pc && pending_switch;
                }
            }
            Op::Call { .. } | Op::CallVirtual { .. } => {
                let (site, target) = match op {
                    Op::CallVirtual { site, slot, arity } => {
                        let at = s
                            .len()
                            .checked_sub(usize::from(arity))
                            .ok_or_else(underflow)?;
                        let Val::Ref(r) = s[at] else {
                            return Err(mismatch("object receiver"));
                        };
                        (
                            site,
                            program.class(heap[r].0).resolve(slot).ok_or(no_method)?,
                        )
                    }
                    Op::Call { site, target } => (site, target),
                    _ => unreachable!(),
                };
                calls += 1;
                invocations[target.index()] += 1;
                if acts.len() >= config.max_stack_depth {
                    return Err(VmError::StackOverflow {
                        limit: config.max_stack_depth,
                    });
                }
                let top = acts.last_mut().expect("live");
                let params = usize::from(program.method(target).num_params());
                let first = top.stack.len().checked_sub(params).ok_or_else(underflow)?;
                let mut callee = Act::new(program, target, Some(site));
                callee.locals[..params].copy_from_slice(&top.stack[first..]);
                top.stack.truncate(first);
                top.pc = next;
                acts.push(callee);
                profiler.on_entry(&CallEvent {
                    edge: CallEdge::new(mid, site, target),
                    clock,
                    thread: tid,
                    stack: StackSlice::for_testing(&shown(acts)),
                });
                yielding = pending_switch;
                continue;
            }
            Op::Return => {
                let rv = pop(s)?;
                if acts.len() == 1 {
                    results[cur] = Some(rv);
                    continue;
                }
                if jikes {
                    let caller = acts[acts.len() - 2].method;
                    let site = acts[acts.len() - 1].site.expect("callee has a site");
                    profiler.on_exit(&CallEvent {
                        edge: CallEdge::new(caller, site, mid),
                        clock,
                        thread: tid,
                        stack: StackSlice::for_testing(&shown(acts)),
                    });
                }
                acts.pop();
                acts.last_mut().expect("caller").stack.push(rv);
                yielding = pending_switch;
                continue;
            }
            Op::GetField(n) => {
                let r = pop_obj(s)?;
                s.push(*heap[r].1.get(usize::from(n)).ok_or(no_field)?);
            }
            Op::PutField(n) => {
                let v = pop(s)?;
                let r = pop_obj(s)?;
                *heap[r].1.get_mut(usize::from(n)).ok_or(no_field)? = v;
            }
            Op::New(class) => {
                let fields = usize::from(program.class(class).num_fields());
                heap.push((class, vec![Val::Int(0); fields]));
                s.push(Val::Ref(heap.len() - 1));
            }
            Op::GuardClass { class, not_taken } => {
                if heap[pop_obj(s)?].0 != class {
                    next = not_taken;
                }
            }
            Op::Io(_) => s.push(Val::Int(0)),
            Op::Nop => {}
        }
        top.pc = next;
    }

    profiler.on_finish(clock);
    Ok(Report {
        cycles: clock,
        seconds: clock as f64 / config.cycles_per_second as f64,
        instructions,
        calls,
        ticks,
        invocations,
        return_values: results.into_iter().flatten().collect(),
    })
}
