//! Differential tests for the interpreter.
//!
//! `Vm::run_with` instantiated at a concrete profiler, `Vm::run_with` at
//! `dyn Profiler`, and the independent reference interpreter in
//! `support/oracle.rs` must be observationally indistinguishable:
//! identical reports or traps, and identical profiler state — graphs,
//! sample counts, simulated overhead, event streams — for every profiler
//! mechanism, workload and VM configuration. The oracle has none of the
//! hot-path machinery (cached code cursors, one value stack per thread,
//! live-thread counter, batched DCG flushes, superinstruction fusion,
//! `Profiler::armed` gating) and shares none of `cbs-vm`'s value stacks,
//! heap, values or helpers, so agreement is what licenses that machinery
//! to claim bit-identical output.

#[path = "support/oracle.rs"]
mod oracle;

use cbs_bytecode::{
    CallSiteId, Class, ClassId, CodeBuilder, Label, Method, MethodId, Op, ProgramBuilder,
    VirtualSlot,
};
use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_profiler::{CbsConfig, CounterBasedSampler, ExhaustiveProfiler, TimerSampler};
use cbs_repro::prelude::*;
use cbs_vm::{
    CallEvent, CostModel, ExecReport, NullProfiler, Profiler, StackSlice, ThreadId, Value, VmError,
};
use std::fmt::Write;

/// `report` in the oracle's terms: a `Ref` is its heap index.
fn observed(report: &ExecReport) -> oracle::Report {
    oracle::Report {
        cycles: report.cycles,
        seconds: report.seconds,
        instructions: report.instructions,
        calls: report.calls,
        ticks: report.ticks,
        invocations: report.invocations.clone(),
        return_values: (report.return_values.iter())
            .map(|v| match *v {
                Value::Int(i) => oracle::Val::Int(i),
                Value::Ref(r) => oracle::Val::Ref(r.index()),
            })
            .collect(),
    }
}

/// Asserts the interpreter's report — or trap, method and pc included —
/// is the oracle's.
fn assert_matches_oracle(
    fast: &Result<ExecReport, VmError>,
    oracle: Result<oracle::Report, VmError>,
    what: &str,
) {
    let fast = fast.as_ref().map(observed).map_err(VmError::clone);
    assert_eq!(fast, oracle, "{what}: report or trap vs the oracle");
}

/// The three workloads the property sweeps (scaled down so a full
/// generic/dyn/oracle triple stays fast).
fn workload(idx: usize) -> Program {
    let bench = [Benchmark::Jess, Benchmark::Javac, Benchmark::Mtrt][idx % 3];
    cbs_repro::workloads::generator::build(&bench.spec(InputSize::Small).scaled(0.02))
        .expect("spec builds")
}

/// Draws a VM configuration that exercises both flavors, multiple
/// threads, and the jittered/exact timer regimes.
fn draw_config(rng: &mut SmallRng) -> VmConfig {
    VmConfig {
        flavor: if rng.gen_range(0..2u32) == 0 {
            VmFlavor::Jikes
        } else {
            VmFlavor::J9
        },
        num_threads: rng.gen_range(1..=3u32),
        timer_jitter: [0u64, 12_500][rng.gen_range(0..2u32) as usize],
        ..VmConfig::default()
    }
}

/// Runs `mk()`-built profilers through both instantiations of the run
/// loop and through the oracle, and asserts the reports and the profiler
/// fingerprints coincide.
fn assert_paths_agree<P, F>(program: &Program, config: &VmConfig, mk: impl Fn() -> P, fp: F)
where
    P: Profiler + CallGraphProfiler,
    F: Fn(&mut P) -> (DynamicCallGraph, u64, u64),
{
    let vm = Vm::new(program, config.clone());

    let mut generic = mk();
    let generic_report = vm.run_with(&mut generic);
    generic_report.as_ref().expect("generic path runs");

    let mut dynamic = mk();
    let dyn_report = vm.run_with(&mut dynamic as &mut dyn Profiler);

    let mut reference = mk();
    let oracle_report = oracle::run(program, config, &mut reference);

    assert_eq!(generic_report, dyn_report, "generic vs dyn ExecReport");
    assert_matches_oracle(&generic_report, oracle_report, "generic");

    let g = fp(&mut generic);
    let d = fp(&mut dynamic);
    let r = fp(&mut reference);
    assert_eq!(g, d, "generic vs dyn profiler state");
    assert_eq!(g, r, "generic vs oracle profiler state");
}

/// `(dcg, samples_taken, overhead_cycles)` — everything a profiler run
/// leaves behind. `take_dcg` also exercises the flush-on-take path.
fn fingerprint<P: CallGraphProfiler>(p: &mut P) -> (DynamicCallGraph, u64, u64) {
    (p.take_dcg(), p.samples_taken(), p.overhead_cycles())
}

#[test]
fn cbs_state_identical_across_dispatch_paths() {
    run_cases("cbs_dispatch_equivalence", 6, |rng| {
        let program = workload(rng.gen_range(0..3u32) as usize);
        let config = draw_config(rng);
        let stride = rng.gen_range(1..=5u32);
        let samples = rng.gen_range(1..=24u32);
        let policy = match rng.gen_range(0..3u32) {
            0 => SkipPolicy::Fixed,
            1 => SkipPolicy::RoundRobin,
            _ => SkipPolicy::Random {
                seed: rng.next_u64(),
            },
        };
        assert_paths_agree(
            &program,
            &config,
            || {
                CounterBasedSampler::new(CbsConfig {
                    stride,
                    samples_per_tick: samples,
                    skip_policy: policy.clone(),
                    ..CbsConfig::default()
                })
            },
            fingerprint,
        );
    });
}

#[test]
fn timer_state_identical_across_dispatch_paths() {
    run_cases("timer_dispatch_equivalence", 4, |rng| {
        let program = workload(rng.gen_range(0..3u32) as usize);
        let config = draw_config(rng);
        assert_paths_agree(&program, &config, TimerSampler::new, fingerprint);
    });
}

#[test]
fn exhaustive_state_identical_across_dispatch_paths() {
    run_cases("exhaustive_dispatch_equivalence", 4, |rng| {
        let program = workload(rng.gen_range(0..3u32) as usize);
        let config = draw_config(rng);
        assert_paths_agree(&program, &config, ExhaustiveProfiler::new, fingerprint);
    });
}

/// The three workloads, pinned (not randomized) so every benchmark in
/// the suite is guaranteed covered at least once per run, under both
/// flavors.
#[test]
fn every_workload_agrees_under_both_flavors() {
    for idx in 0..3 {
        let program = workload(idx);
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let config = VmConfig {
                flavor,
                ..VmConfig::default()
            };
            assert_paths_agree(
                &program,
                &config,
                || CounterBasedSampler::new(CbsConfig::new(3, 16)),
                fingerprint,
            );
        }
    }
}

/// The code this system *produces*: all 13 workloads after inlining and
/// optimization from their own CBS(3,16) profile, whose forwarded
/// `Load, (Const, op)+, Store` chains, spills and bare loop-exit tests
/// are the shapes the fused templates exist for. Both flavors, 1 and 3
/// threads, and a timer period of 200 cycles — a few runs long — so
/// ticks keep landing inside runs and the bail path is exercised as
/// hard as the fused one.
#[test]
fn optimized_programs_agree_under_dense_ticks() {
    for bench in Benchmark::all() {
        let mut program =
            cbs_repro::workloads::generator::build(&bench.spec(InputSize::Small).scaled(0.01))
                .expect("spec builds");
        let mut cbs = CounterBasedSampler::new(CbsConfig::new(3, 16));
        Vm::new(&program, VmConfig::default())
            .run_with(&mut cbs)
            .expect("profiling run");
        let report = inline_program(
            &mut program,
            Some(&cbs.take_dcg()),
            &NewLinearPolicy::default(),
            &InlineBudget::default(),
            true,
        );
        assert!(report.opt_stats.is_some(), "{bench}: optimizer ran");
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            for num_threads in [1, 3] {
                let config = VmConfig {
                    flavor,
                    num_threads,
                    timer_hz: 50_000,
                    timer_jitter: 60,
                    ..VmConfig::default()
                };
                assert_paths_agree(
                    &program,
                    &config,
                    || CounterBasedSampler::new(CbsConfig::new(3, 16)),
                    fingerprint,
                );
            }
        }
    }
}

/// Superinstruction fusion must bail to the per-op path whenever a
/// timer tick or the cycle budget would land inside a fused run, and the
/// bail must be invisible. Shrinking the timer period to a few cycles
/// makes nearly every fused run fail its guard, so this pins the
/// fallback path against the oracle.
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

    // timer_hz 500_000 -> period 20 cycles, shorter than one quad run,
    // so the `next_tick > end_clock` guard fails constantly; the default
    // 100 Hz config covers the guard-passes side. The last config's
    // budget expires mid-run, which the fusion guard also covers.
    for (timer_hz, timer_jitter, max_cycles) in [
        (500_000, 0, None),
        (100_000, 12_500, None),
        (100, 12_500, None),
        (100, 12_500, Some(12_345)),
    ] {
        let cfg = VmConfig {
            timer_hz,
            timer_jitter,
            max_cycles,
            ..VmConfig::default()
        };
        let fast = Vm::new(&p, cfg.clone()).run_with(&mut NullProfiler);
        let what = format!("hz={timer_hz} jitter={timer_jitter} budget={max_cycles:?}");
        assert_matches_oracle(&fast, oracle::run(&p, &cfg, &mut NullProfiler), &what);
        match (fast, max_cycles) {
            (Ok(report), None) => assert!(timer_hz == 100 || report.ticks > 0, "{what}: ticks"),
            (Err(e), Some(budget)) => assert_eq!(e, VmError::OutOfFuel { budget }),
            (other, _) => panic!("{what}: {other:?}"),
        }
    }
}

/// Records every hook call verbatim, with the whole stack it was shown:
/// every frame's method, pc and pending call site, and the calling
/// context the frames spell. It keeps the default `Profiler::armed`, so
/// the run loop owes it every event the oracle delivers.
#[derive(Debug, Default, PartialEq)]
struct EventLog {
    events: Vec<String>,
    last_clock: u64,
}

/// `stack`, innermost frame first, then its context outermost first.
fn whole_stack(stack: &StackSlice<'_>) -> String {
    let mut out = String::from("frames");
    for i in 0..stack.depth() {
        let f = stack.frame(i).expect("within depth");
        let site = f.pending_site.map(u32::from);
        write!(out, " {}@{}>{site:?}", f.method, f.pc).expect("to a String");
    }
    out.push_str(" context");
    for step in stack.context_steps() {
        write!(out, " {}:{}", step.site, step.method).expect("to a String");
    }
    out
}

impl EventLog {
    fn call(&mut self, kind: &str, ev: &CallEvent<'_>) {
        self.last_clock = ev.clock;
        self.events.push(format!(
            "{kind} {:?} @{} {} {}",
            ev.edge,
            ev.clock,
            ev.thread,
            whole_stack(&ev.stack)
        ));
    }
}

impl Profiler for EventLog {
    fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
        self.last_clock = clock;
        self.events
            .push(format!("tick @{clock} {thread} {}", whole_stack(&stack)));
    }
    fn on_entry(&mut self, ev: &CallEvent<'_>) {
        self.call("entry", ev);
    }
    fn on_exit(&mut self, ev: &CallEvent<'_>) {
        self.call("exit", ev);
    }
    fn on_finish(&mut self, clock: u64) {
        self.events.push(format!("finish @{clock}"));
    }
}

/// Runs `program` through the run loop at a concrete [`EventLog`], at
/// `dyn Profiler` and through the oracle, under both flavors with a
/// timer period of a few ops, and asserts all three agree on the report
/// or trap and on every event. The flavors differ only in what they
/// deliver, so the result is the same under both; it is returned.
fn three_ways(program: &Program, what: &str) -> Result<ExecReport, VmError> {
    let [jikes, j9] = [VmFlavor::Jikes, VmFlavor::J9].map(|flavor| {
        let config = VmConfig {
            flavor,
            timer_hz: VmConfig::default().cycles_per_second / 7,
            timer_jitter: 0,
            ..VmConfig::default()
        };
        let what = format!("{what} under {flavor:?}");
        let vm = Vm::new(program, config.clone());
        let (mut concrete, mut dynamic, mut reference) = (
            EventLog::default(),
            EventLog::default(),
            EventLog::default(),
        );
        let fast = vm.run_with(&mut concrete);
        let dyn_result = vm.run_with(&mut dynamic as &mut dyn Profiler);
        let reference_result = oracle::run(program, &config, &mut reference);
        assert_eq!(fast, dyn_result, "{what}: concrete vs dyn");
        assert_matches_oracle(&fast, reference_result, &what);
        assert_eq!(concrete, dynamic, "{what}: concrete vs dyn events");
        assert_eq!(concrete, reference, "{what}: events vs the oracle");
        fast
    });
    assert_eq!(jikes, j9, "{what}: Jikes vs J9");
    jikes
}

/// Three ways one frame could leak into another when they share
/// storage, each checked by the run loop at a concrete profiler, at
/// `dyn Profiler` and by the oracle:
///
/// (a) a callee's non-parameter locals read zero before they are
///     written, even where an earlier, deeper call left non-zero locals
///     and operands;
/// (b) a callee that pops below its own operand base — unverified code,
///     built with `Program::from_parts` — traps `OperandUnderflow` at
///     its own method and pc instead of reading its locals or the
///     operands its caller holds beneath the arguments;
/// (c) operands a caller pushed beneath a call's arguments are intact
///     when the callee returns, whether the callee has more locals than
///     parameters or leaves operands of its own behind.
#[test]
fn frames_do_not_leak_into_one_another() {
    // (a) `dirty` and `dirtier` fill every local and leave operands
    // under a deeper call; `reader` then sums twenty locals of which
    // only the first is a parameter, per op and through a fused
    // `Load s, Add` fold alike.
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("C", 0);
    let dirtier = b
        .function("dirtier", cls, 2, 6, |c| {
            for s in 2..8 {
                c.const_(0x5A00 + i64::from(s)).store(s);
            }
            c.const_(-77).const_(-88).load(0).load(1).add().ret();
        })
        .unwrap();
    let dirty = b
        .function("dirty", cls, 1, 5, |c| {
            for s in 1..6 {
                c.load(0).const_(i64::from(s)).mul().store(s);
            }
            c.const_(99).const_(98).load(0).load(5).call(dirtier);
            c.add().add().ret();
        })
        .unwrap();
    let reader = b
        .function("reader", cls, 1, 19, |c| {
            c.load(0);
            for s in 1..20 {
                c.load(s).add();
            }
            c.ret();
        })
        .unwrap();
    let main = b
        .function("main", cls, 0, 0, |c| {
            c.const_(3).call(dirty).pop();
            c.const_(5).call(reader).ret();
        })
        .unwrap();
    b.set_entry(main);
    let report = three_ways(&b.build().unwrap(), "(a) fresh locals").expect("(a) runs");
    assert_eq!(report.return_values, vec![Value::Int(5)], "(a)");

    // (b) `main` holds 100 and 200 beneath the argument 7; each body of
    // `f` (one parameter, two locals) underflows at the pc given.
    let site = CallSiteId::new;
    let leaf = MethodId::new(2);
    let underflows: [(&[Op], u32); 16] = [
        (&[Op::Pop, Op::Return], 0),
        (&[Op::Store(1), Op::Return], 0),
        (&[Op::Dup, Op::Return], 0),
        (&[Op::Const(1), Op::Swap, Op::Return], 1),
        (&[Op::Const(1), Op::Add, Op::Return], 1),
        (&[Op::Neg, Op::Return], 0),
        (&[Op::Const(1), Op::CmpEq, Op::Return], 1),
        (&[Op::Return], 0),
        (&[Op::JumpIfZero(1), Op::Return], 0),
        // A fused fold of the stack top, and a fused run from it.
        (&[Op::Load(0), Op::Add, Op::Store(1), Op::Return], 1),
        (&[Op::Const(3), Op::Mul, Op::Store(1), Op::Return], 1),
        (&[Op::GetField(0), Op::Return], 0),
        (&[Op::Const(5), Op::PutField(0), Op::Return], 1),
        (
            &[
                Op::Call {
                    site: site(1),
                    target: leaf,
                },
                Op::Return,
            ],
            0,
        ),
        (
            &[
                Op::CallVirtual {
                    site: site(1),
                    slot: VirtualSlot::new(0),
                    arity: 1,
                },
                Op::Return,
            ],
            0,
        ),
        (
            &[
                Op::Load(0),
                Op::Const(1),
                Op::Add,
                Op::Pop,
                Op::Pop,
                Op::Return,
            ],
            4,
        ),
    ];
    for (body, pc) in underflows {
        let f = MethodId::new(1);
        let main = Method::new(
            MethodId::new(0),
            "main",
            ClassId::new(0),
            0,
            1,
            vec![
                Op::Const(100),
                Op::Const(200),
                Op::Const(7),
                Op::Call {
                    site: site(0),
                    target: f,
                },
                Op::Return,
            ],
        );
        let methods = vec![
            main,
            Method::new(f, "f", ClassId::new(0), 1, 2, body.to_vec()),
            Method::new(
                leaf,
                "leaf",
                ClassId::new(0),
                1,
                1,
                vec![Op::Load(0), Op::Return],
            ),
        ];
        let class = Class::new(ClassId::new(0), "C", None, 1, vec![leaf]);
        let program = Program::from_parts(vec![class], methods, MethodId::new(0), 2);
        let what = format!("(b) underflow in {body:?}");
        assert_eq!(
            three_ways(&program, &what),
            Err(VmError::OperandUnderflow { method: f, pc }),
            "{what}"
        );
    }

    // (c) `main` holds 11 and 22 beneath the argument 3, and `wide` (one
    // parameter, eight locals) holds a product and 444 beneath the
    // argument of `narrow`, whose locals are just its parameter; each
    // callee also returns over operands of its own.
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("C", 0);
    let narrow = b
        .function("narrow", cls, 1, 0, |c| {
            c.const_(-1).const_(-2).load(0).const_(1).add().ret();
        })
        .unwrap();
    let wide = b
        .function("wide", cls, 1, 7, |c| {
            for s in 1..8 {
                c.const_(1000 + i64::from(s)).store(s);
            }
            c.load(0).const_(7).mul();
            c.const_(444).load(0).call(narrow);
            // [a * 7, 444, a + 1]
            c.add().const_(1000).mul().add();
            c.const_(-3).swap().ret();
        })
        .unwrap();
    let main = b
        .function("main", cls, 0, 1, |c| {
            c.const_(11).const_(22).const_(3).call(wide).store(0);
            // [11, 22]
            c.const_(1000).mul().swap().const_(1_000_000).mul().add();
            c.load(0).const_(1_000_000_000).mul().add().ret();
        })
        .unwrap();
    b.set_entry(main);
    let report = three_ways(&b.build().unwrap(), "(c) caller operands").expect("(c) runs");
    // wide(3) = (444 + 4) * 1000 + 21.
    let expected = 448_021 * 1_000_000_000 + 11_000_000 + 22_000;
    assert_eq!(report.return_values, vec![Value::Int(expected)], "(c)");
}

/// Generator of random straight-line integer code for
/// [`random_integer_code_agrees_with_the_reference`]. It tracks the
/// operand-stack height so the program verifies, and hands out forward
/// branch targets at any later pc of equal height — which, the fusion
/// scan being maximal-munch, is very often the middle of a run.
struct CodeGen<'a, 'b, 'r> {
    c: &'a mut CodeBuilder<'b>,
    rng: &'r mut SmallRng,
    height: u32,
    /// Unbound branch targets and the height they were taken at; never
    /// above the height at the current block boundary.
    pending: Vec<(Label, u32)>,
    leaf: MethodId,
    class: cbs_bytecode::ClassId,
    /// The `Io` operands a block may draw; with none, no block is an `Io`.
    io: &'a [u32],
}

/// Local slots of the generated method.
const SLOTS: u16 = 6;

impl CodeGen<'_, '_, '_> {
    fn emit(&mut self, op: Op) {
        self.c.emit(op);
        let arity = |_| 1;
        self.height = (self.height as i32 + op.stack_effect(arity)) as u32;
        // A target may land wherever the height matches.
        let (height, rng, c) = (self.height, &mut *self.rng, &mut *self.c);
        self.pending.retain(|&(label, h)| {
            let bind = h == height && rng.gen_bool(0.25);
            if bind {
                c.bind(label);
            }
            !bind
        });
    }

    /// Binds every target taken at the current height: the next block
    /// ends below it, and the height need never come back.
    fn bind_level(&mut self) {
        let (height, c) = (self.height, &mut *self.c);
        self.pending.retain(|&(label, h)| {
            if h == height {
                c.bind(label);
            }
            h != height
        });
    }

    fn slot(&mut self) -> u16 {
        self.rng.gen_range(0..u32::from(SLOTS)) as u16
    }

    /// `Const k, op`; now and then a division, now and then by zero.
    fn arith(&mut self) {
        const OPS: [Op; 13] = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Shl,
            Op::Shr,
            Op::CmpLt,
            Op::CmpGt,
            Op::CmpEq,
            Op::Div,
            Op::Rem,
        ];
        let op = OPS[self.rng.gen_range(0..OPS.len())];
        let k = match self.rng.gen_range(0..40u32) {
            0 => 0,
            1 => -1,
            2 => i64::MIN,
            _ => self.rng.gen_range(-50i64..5000),
        };
        self.emit(Op::Const(k));
        self.emit(op);
    }

    /// `{ Const k, op | Store d, Load d }*`, at least one step.
    fn steps(&mut self) {
        for _ in 0..self.rng.gen_range(1..=5u32) {
            if self.rng.gen_bool(0.2) {
                let d = self.slot();
                self.emit(Op::Store(d));
                self.emit(Op::Load(d));
            } else {
                self.arith();
            }
        }
    }

    fn block(&mut self) {
        // Drawn only when there is an `Io` to emit, so code without one
        // is the same for a seed either way.
        if !self.io.is_empty() && self.rng.gen_bool(0.1) {
            let units = self.io[self.rng.gen_range(0..self.io.len())];
            self.emit(Op::Io(units));
            return;
        }
        match self.rng.gen_range(0..12u32) {
            // The generator's quad, usually several on one slot.
            0 | 1 => {
                let s = self.slot();
                for _ in 0..self.rng.gen_range(1..=3u32) {
                    self.emit(Op::Load(s));
                    self.arith();
                    self.emit(Op::Store(s));
                }
            }
            // The optimizer's chain, closed by a store or left open.
            2 | 3 => {
                let s = self.slot();
                self.emit(Op::Load(s));
                self.steps();
                if self.rng.gen_bool(0.7) {
                    let d = self.slot();
                    self.emit(Op::Store(d));
                }
            }
            // A fold of the stack top into a local's value.
            4 | 5 if self.height > 0 => {
                self.bind_level();
                let s = self.slot();
                self.emit(Op::Load(s));
                self.emit(Op::Add);
                if self.rng.gen_bool(0.5) {
                    self.steps();
                }
                let d = self.slot();
                self.emit(Op::Store(d));
            }
            // A run that starts from the stack top.
            6 if self.height > 0 => {
                self.bind_level();
                self.steps();
                let d = self.slot();
                self.emit(Op::Store(d));
            }
            // Test-branches, with and without the test.
            7 | 8 => {
                let s = self.slot();
                self.emit(Op::Load(s));
                if self.rng.gen_bool(0.6) {
                    self.arith();
                }
                let target = self.c.label();
                // Registered before the jump is emitted, at the height
                // the jump leaves: pcs after it may bind it.
                self.pending.push((target, self.height - 1));
                self.height -= 1;
                if self.rng.gen_bool(0.5) {
                    self.c.jump_if_zero(target);
                } else {
                    self.c.jump_if_non_zero(target);
                }
            }
            // A call: entry and exit events, a yieldpoint, and a result
            // on the stack for a later fold.
            9 => {
                let s = self.slot();
                self.emit(Op::Load(s));
                let leaf = self.leaf;
                self.c.call(leaf);
            }
            // Objects, now and then. A `Ref` in a source slot or on the
            // stack top: the next run to read it must bail before it pops
            // or writes anything. Field traffic, one index past the two
            // fields and now and then on an `Int` included. A two-argument
            // virtual call, the receiver deepest.
            10 if self.rng.gen_bool(0.5) => {
                let (new, s) = (Op::New(self.class), self.slot());
                let receiver = [new, new, new, Op::Load(s)][self.rng.gen_range(0..4usize)];
                let field = self.rng.gen_range(0..=2u32) as u16;
                let k = Op::Const(self.rng.gen_range(-9i64..99));
                let (ops, call): (&[Op], bool) = match self.rng.gen_range(0..4u32) {
                    0 => (&[new, Op::Store(s)], false),
                    1 => (&[receiver, Op::GetField(field)], false),
                    2 => (&[receiver, k, Op::PutField(field)], false),
                    _ => (&[new, Op::Load(s)], true),
                };
                for &op in ops {
                    self.emit(op);
                }
                if call {
                    self.c.call_virtual(VirtualSlot::new(0), 2);
                    self.height -= 1;
                }
            }
            // Operands for the folds above.
            _ => {
                let op = if self.rng.gen_bool(0.5) {
                    Op::Const(self.rng.gen_range(-9i64..99))
                } else {
                    Op::Load(self.slot())
                };
                self.emit(op);
            }
        }
    }
}

fn random_integer_program(rng: &mut SmallRng) -> Program {
    random_program(rng, &[])
}

/// [`random_integer_program`], with blocks that are an `Io` of one of
/// `io`'s operands.
fn random_program(rng: &mut SmallRng, io: &[u32]) -> Program {
    let mut b = ProgramBuilder::new();
    let class = b.add_class("C", 2);
    let leaf = b
        .function("leaf", class, 1, 0, |c| {
            c.load(0).const_(3).mul().const_(1).add().ret();
        })
        .expect("leaf builds");
    let virt = b
        .function("C.f", class, 2, 0, |c| {
            c.load(0).get_field(1).load(1).sub().ret();
        })
        .expect("C.f builds");
    b.set_vtable(class, VirtualSlot::new(0), virt);
    // The straight-line body sits in a bottom-tested loop of a few
    // trips: its closing conditional jump is a backedge — a yieldpoint
    // under the Jikes flavor — in the exact shape of a test-branch, which
    // must therefore not fuse.
    let counter = SLOTS;
    let main = b
        .function("main", class, 0, SLOTS + 1, |c| {
            for s in 0..SLOTS {
                c.const_(rng.gen_range(-20i64..20)).store(s);
            }
            c.const_(rng.gen_range(1..=3i64)).store(counter);
            let top = c.label();
            c.bind(top);
            let mut g = CodeGen {
                c,
                rng,
                height: 0,
                pending: Vec::new(),
                leaf,
                class,
                io,
            };
            for _ in 0..g.rng.gen_range(10..60u32) {
                g.block();
            }
            while g.height > 0 {
                g.bind_level();
                g.emit(Op::Pop);
            }
            g.bind_level();
            assert!(g.pending.is_empty(), "every branch target is bound");
            c.load(counter).const_(1).sub().store(counter);
            if rng.gen_bool(0.5) {
                // Keeps the test out of the decrement's run.
                c.nop();
            }
            c.load(counter);
            if rng.gen_bool(0.5) {
                c.const_(0).cmp_gt();
            }
            c.jump_if_non_zero(top);
            c.load(0).ret();
        })
        .expect("main builds");
    b.set_entry(main);
    b.build().expect("generated code verifies")
}

/// Random straight-line integer code mixing every form of the fused
/// templates — quads, forwarded chains, spills, folds of the stack top,
/// runs from the stack top, test-branches with and without a test, a
/// conditional backedge — with forward jumps landing mid-run, `Ref`s
/// where a run expects an `Int`, divisions by a zero constant, field
/// reads and writes out of range or on an `Int`, two-argument virtual
/// calls, timer periods of a few ops and `max_cycles` budgets that end
/// inside a run. The run loop and the
/// oracle must agree on the report or the trap (and so its pc) and on
/// every event delivered on the way there; the run loop must also end
/// the same under `NullProfiler`, which it delivers nothing.
#[test]
fn random_integer_code_agrees_with_the_reference() {
    let mut tally = [0u32; 5];
    run_cases("fused_runs_vs_reference", 300, |rng| {
        let program = random_integer_program(rng);
        let period = rng.gen_range(3..90u64);
        let mut config = VmConfig {
            flavor: [VmFlavor::Jikes, VmFlavor::J9][rng.gen_range(0..2usize)],
            num_threads: rng.gen_range(1..=3u32),
            timer_hz: VmConfig::default().cycles_per_second / period,
            timer_jitter: [0, period / 3][rng.gen_range(0..2usize)],
            timer_seed: rng.next_u64(),
            ..VmConfig::default()
        };
        // Returns the cycle the run got to: its end, or the last event
        // before its trap.
        let mut compare = |config: &VmConfig| {
            let vm = Vm::new(&program, config.clone());
            let (mut fast_log, mut reference_log) = (EventLog::default(), EventLog::default());
            let fast = vm.run_with(&mut fast_log);
            let reference = oracle::run(&program, config, &mut reference_log);
            assert_matches_oracle(&fast, reference, "EventLog");
            assert_eq!(fast_log, reference_log, "event stream");
            assert_eq!(vm.run_with(&mut NullProfiler), fast, "unprofiled");
            tally[match &fast {
                Ok(_) => 0,
                Err(VmError::TypeMismatch { .. }) => 1,
                Err(VmError::DivisionByZero { .. }) => 2,
                Err(VmError::OutOfFuel { .. }) => 3,
                Err(VmError::FieldOutOfRange { .. }) => 4,
                Err(other) => panic!("unexpected trap {other}"),
            }] += 1;
            fast.map_or(fast_log.last_clock, |report| report.cycles)
        };
        // The budgets are drawn from what the run gets through, so they
        // end where it executes — inside a run more often than not.
        let reached = compare(&config);
        for _ in 0..3 {
            config.max_cycles = Some(rng.gen_range(1..=reached.max(1)));
            compare(&config);
        }
    });
    assert!(
        tally.iter().all(|&n| n >= 20),
        "the generator must keep producing clean runs, type traps, zero \
         divisors, exhausted budgets and out-of-range fields: {tally:?}"
    );
}

/// A cost model other than the default, every charge drawn. With `huge`,
/// `call` or `field` (or both), or `simple` or `branch` (so a fused run's
/// total too), charges 2^33 cycles, past what a `u32` holds, and
/// `io_unit` is the default 100, so an `Io(u32::MAX)` charges about
/// 4.3e11.
fn draw_cost_model(rng: &mut SmallRng, huge: bool) -> CostModel {
    let mut small = || rng.gen_range(0..=40u64);
    let mut model = CostModel {
        simple: small(),
        field: small(),
        alloc: small(),
        call: small(),
        virtual_dispatch: small(),
        ret: small(),
        branch: small(),
        guard: small(),
        io_unit: small(),
    };
    if huge {
        const BIG: u64 = 1 << 33;
        match rng.gen_range(0..5u32) {
            0 => model.call = BIG,
            1 => model.field = BIG,
            2 => (model.call, model.field) = (BIG, BIG),
            3 => model.simple = BIG,
            _ => model.branch = BIG,
        }
        model.io_unit = CostModel::default().io_unit;
    }
    model
}

/// Random programs under random cost models, against the oracle: the
/// decoded per-op charges, the fused runs' totals and the charges too
/// large for a compact slot must all be what `CostModel::op_cost` says,
/// at every tick, trap and budget. Each case runs under both flavors,
/// with a timer period of a few ops and `max_cycles` budgets drawn from
/// what the run gets through. Half the cases charge an op 2^33 cycles
/// or more (`call`, `field`, `simple` or `branch`, and `Io(u32::MAX)` at
/// the default `io_unit`); their timer period is drawn at that scale, so
/// ticks land inside and between the large charges.
#[test]
fn random_cost_models_agree_with_the_reference() {
    let mut tally = [0u32; 5];
    let mut past_u32 = 0u32;
    run_cases("cost_models_vs_reference", 100, |rng| {
        let huge = rng.gen_bool(0.5);
        let io: &[u32] = if huge {
            &[1, 7, u32::MAX]
        } else {
            &[0, 1, 7, 40]
        };
        let program = random_program(rng, io);
        let cost = draw_cost_model(rng, huge);
        let period = if huge {
            rng.gen_range((1u64 << 30)..(1 << 35))
        } else {
            rng.gen_range(3..90u64)
        };
        for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
            let mut config = VmConfig {
                flavor,
                cost: cost.clone(),
                num_threads: rng.gen_range(1..=3u32),
                cycles_per_second: period,
                timer_hz: 1,
                timer_jitter: [0, period / 3][rng.gen_range(0..2usize)],
                timer_seed: rng.next_u64(),
                ..VmConfig::default()
            };
            let mut compare = |config: &VmConfig| {
                let what = format!("{cost:?} under {flavor:?}");
                let vm = Vm::new(&program, config.clone());
                let (mut fast_log, mut reference_log) = (EventLog::default(), EventLog::default());
                let fast = vm.run_with(&mut fast_log);
                let reference = oracle::run(&program, config, &mut reference_log);
                assert_matches_oracle(&fast, reference, &what);
                assert_eq!(fast_log, reference_log, "{what}: event stream");
                assert_eq!(vm.run_with(&mut NullProfiler), fast, "{what}: unprofiled");
                tally[match &fast {
                    Ok(_) => 0,
                    Err(VmError::TypeMismatch { .. }) => 1,
                    Err(VmError::DivisionByZero { .. }) => 2,
                    Err(VmError::OutOfFuel { .. }) => 3,
                    Err(VmError::FieldOutOfRange { .. }) => 4,
                    Err(other) => panic!("{what}: unexpected trap {other}"),
                }] += 1;
                let reached = fast.map_or(fast_log.last_clock, |report| report.cycles);
                past_u32 += u32::from(reached > u64::from(u32::MAX));
                reached
            };
            let reached = compare(&config);
            for _ in 0..2 {
                config.max_cycles = Some(rng.gen_range(1..=reached.max(1)));
                compare(&config);
            }
        }
    });
    assert!(
        tally.iter().all(|&n| n >= 8) && past_u32 >= 100,
        "the generator must keep producing clean runs, type traps, zero \
         divisors, exhausted budgets and out-of-range fields, and runs \
         past u32::MAX cycles: {tally:?}, {past_u32} past u32::MAX"
    );
}
