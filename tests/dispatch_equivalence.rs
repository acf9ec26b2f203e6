//! Differential tests for the interpreter's dispatch strategies.
//!
//! `Vm::run_with` (monomorphized), `Vm::run` (the `&mut dyn Profiler`
//! wrapper) and `Vm::run_reference` (the preserved pre-optimization
//! interpreter) must be observationally indistinguishable: identical
//! [`ExecReport`]s and identical profiler state — graphs, sample counts
//! and simulated overhead — for every profiler mechanism, workload and
//! VM configuration. This is what licenses the hot-path optimizations
//! (cached code cursors, frame pooling, live-thread counter, batched DCG
//! flushes, superinstruction fusion, `Profiler::armed` gating — the
//! reference interpreter has none of them) to claim bit-identical output.
//!
//! [`ExecReport`]: cbs_vm::ExecReport

use cbs_bytecode::{CodeBuilder, Label, MethodId, Op, ProgramBuilder};
use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_profiler::{CbsConfig, CounterBasedSampler, ExhaustiveProfiler, TimerSampler};
use cbs_repro::prelude::*;
use cbs_vm::{CallEvent, ExecReport, Profiler, StackSlice, ThreadId, VmError};

/// The three workloads the property sweeps (scaled down so a full
/// dyn/generic/reference triple stays fast).
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

/// Runs `mk()`-built profilers through all three dispatch paths and
/// asserts the reports and the profiler fingerprints coincide.
fn assert_paths_agree<P, F>(program: &Program, config: &VmConfig, mk: impl Fn() -> P, fp: F)
where
    P: cbs_vm::Profiler + CallGraphProfiler,
    F: Fn(&mut P) -> (DynamicCallGraph, u64, u64),
{
    let vm = Vm::new(program, config.clone());

    let mut generic = mk();
    let generic_report: ExecReport = vm.run_with(&mut generic).expect("generic path runs");

    let mut dynamic = mk();
    let dyn_report = vm.run(&mut dynamic).expect("dyn path runs");

    let mut reference = mk();
    let reference_report = vm
        .run_reference(&mut reference)
        .expect("reference path runs");

    assert_eq!(generic_report, dyn_report, "generic vs dyn ExecReport");
    assert_eq!(
        generic_report, reference_report,
        "generic vs reference ExecReport"
    );

    let g = fp(&mut generic);
    let d = fp(&mut dynamic);
    let r = fp(&mut reference);
    assert_eq!(g, d, "generic vs dyn profiler state");
    assert_eq!(g, r, "generic vs reference profiler state");
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

/// Records every hook call verbatim. It keeps the default
/// `Profiler::armed`, so the optimized interpreter owes it every event
/// the reference interpreter delivers.
#[derive(Debug, Default, PartialEq)]
struct EventLog {
    events: Vec<String>,
    last_clock: u64,
}

impl EventLog {
    fn call(&mut self, kind: &str, ev: &CallEvent<'_>) {
        self.last_clock = ev.clock;
        self.events.push(format!(
            "{kind} {:?} @{} {} depth={} top={:?}",
            ev.edge,
            ev.clock,
            ev.thread,
            ev.stack.depth(),
            ev.stack.top()
        ));
    }
}

impl Profiler for EventLog {
    fn on_tick(&mut self, clock: u64, thread: ThreadId, stack: StackSlice<'_>) {
        self.last_clock = clock;
        self.events.push(format!(
            "tick @{clock} {thread} depth={} top={:?}",
            stack.depth(),
            stack.top()
        ));
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
            // A `Ref` in a source slot or on the stack top: the next run
            // to read it must bail before it pops or writes anything.
            10 if self.rng.gen_bool(0.15) => {
                self.emit(Op::New(self.class));
                if self.rng.gen_bool(0.5) {
                    let d = self.slot();
                    self.emit(Op::Store(d));
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
    let mut b = ProgramBuilder::new();
    let class = b.add_class("C", 0);
    let leaf = b
        .function("leaf", class, 1, 0, |c| {
            c.load(0).const_(3).mul().const_(1).add().ret();
        })
        .expect("leaf builds");
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
/// conditional backedge — with forward jumps landing mid-run, `Ref`s where a run expects an
/// `Int`, divisions by a zero constant, timer periods of a few ops and
/// `max_cycles` budgets that end inside a run. The optimized and the
/// reference interpreter must agree on the report or the trap (and so
/// its pc) and on every event delivered on the way there.
#[test]
fn random_integer_code_agrees_with_the_reference() {
    let mut tally = [0u32; 4];
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
            let reference = vm.run_reference(&mut reference_log);
            assert_eq!(fast, reference, "report or trap");
            assert_eq!(fast_log, reference_log, "event stream");
            tally[match &fast {
                Ok(_) => 0,
                Err(VmError::TypeMismatch { .. }) => 1,
                Err(VmError::DivisionByZero { .. }) => 2,
                Err(VmError::OutOfFuel { .. }) => 3,
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
         divisors and exhausted budgets: {tally:?}"
    );
}
