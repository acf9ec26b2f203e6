//! Microbenchmarks of the profiling mechanisms themselves (real wall
//! time, not simulated cycles): the disabled-path cost CBS adds to every
//! call event, the sampling path, the overlap metric, and raw interpreter
//! throughput.

use cbs_bench::BenchGroup;
use cbs_core::prelude::*;
use cbs_core::vm::{Profiler, StackSlice, ThreadId};

fn bench_program() -> Program {
    Benchmark::Jess
        .spec(InputSize::Small)
        .scaled(0.02)
        .pipe(|s| cbs_core::workloads::generator::build(&s).expect("jess builds"))
}

trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}

fn interpreter_throughput(group: &mut BenchGroup) {
    let program = bench_program();
    group.bench("interpret_jess_small_2pct", || {
        Vm::new(&program, VmConfig::default())
            .run_unprofiled()
            .expect("runs")
    });
}

fn cbs_event_paths(group: &mut BenchGroup) {
    let program = bench_program();
    // Fresh profiler state is rebuilt inside each timed iteration; its
    // construction cost is negligible next to the interpretation it gates.
    group.bench("interpret_with_idle_cbs", || {
        let mut cbs = CounterBasedSampler::new(CbsConfig::new(3, 16));
        Vm::new(&program, VmConfig::default())
            .run_with(&mut cbs)
            .expect("runs")
    });
    group.bench("interpret_with_grid_of_8_samplers", || {
        let mut multi = MultiProfiler::new();
        for stride in [1, 3, 7, 15] {
            for samples in [1, 16] {
                multi.attach(Box::new(CounterBasedSampler::new(CbsConfig::new(
                    stride, samples,
                ))));
            }
        }
        Vm::new(&program, VmConfig::default())
            .run_with(&mut multi)
            .expect("runs")
    });
}

fn overlap_metric(group: &mut BenchGroup) {
    let program = bench_program();
    let mut ex = ExhaustiveProfiler::new();
    let mut cbs = CounterBasedSampler::new(CbsConfig::new(3, 16));
    // Throwaway runs to fill a sampled profile for the metric bench.
    Vm::new(&program, VmConfig::default())
        .run_with(&mut ex)
        .expect("runs");
    Vm::new(&program, VmConfig::default())
        .run_with(&mut cbs)
        .expect("runs");
    let perfect = ex.take_dcg();
    let sampled = cbs.take_dcg();
    group.bench("overlap_metric", || {
        cbs_core::dcg::overlap(std::hint::black_box(&sampled), &perfect)
    });
}

fn stack_walk(group: &mut BenchGroup) {
    // Measure the host cost of a context-path walk through the event
    // machinery on a deep synthetic stack.
    use cbs_core::vm::Frame;
    let frames: Vec<Frame> = (0..64u32)
        .map(|i| {
            let site = cbs_core::bytecode::CallSiteId::new(i);
            Frame::new(cbs_core::bytecode::MethodId::new(i), 0, Some(site))
        })
        .collect();
    let mut pc = PcSampler::new();
    group.bench("pc_sampler_tick_on_depth_64", || {
        pc.on_tick(0, ThreadId(0), StackSlice::for_testing(&frames));
    });
}

fn main() {
    let mut group = BenchGroup::new("mechanisms", 20);
    interpreter_throughput(&mut group);
    cbs_event_paths(&mut group);
    overlap_metric(&mut group);
    stack_walk(&mut group);
}
