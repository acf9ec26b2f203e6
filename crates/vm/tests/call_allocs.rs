//! Calls do not heap-allocate: how many allocations a run makes does not
//! depend on how many calls it makes.
//!
//! A counting global allocator over `System` counts only the allocations
//! of a thread that opts in, so the test harness's own threads cannot
//! disturb the count. It lives in its own test binary because a global
//! allocator is process-wide.

use cbs_bytecode::{Program, ProgramBuilder};
use cbs_vm::{CallEvent, NullProfiler, Profiler, StackSlice, ThreadId, Vm, VmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `realloc`'s contract; `ptr` came from
        // `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `dealloc`'s contract; `ptr` came from
        // `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Sees every event and allocates nothing: it keeps the default
/// `Profiler::armed`, so the run loop builds and delivers each one.
#[derive(Default)]
struct Tally {
    ticks: u64,
    entries: u64,
    exits: u64,
}

impl Profiler for Tally {
    fn on_tick(&mut self, _clock: u64, _thread: ThreadId, stack: StackSlice<'_>) {
        self.ticks += stack.depth() as u64;
    }
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        self.entries += event.stack.context_steps().count() as u64;
    }
    fn on_exit(&mut self, event: &CallEvent<'_>) {
        self.exits += event.stack.depth() as u64;
    }
}

/// `main` makes `loops` calls to `f`, which calls `g` twice: three frames
/// deep, each with locals beyond its parameters, and no `New`.
fn call_heavy(loops: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("C", 0);
    let g = b
        .function("g", cls, 2, 2, |c| {
            c.load(0).load(1).add().store(2);
            c.load(2).const_(3).mul().store(3);
            c.load(3).ret();
        })
        .unwrap();
    let f = b
        .function("f", cls, 1, 1, |c| {
            c.load(0).const_(1).call(g).store(1);
            c.const_(9).load(1).load(0).call(g).add().ret();
        })
        .unwrap();
    let main = b
        .function("main", cls, 0, 2, |c| {
            c.counted_loop(0, loops, |c| {
                c.load(1).load(0).call(f).add().store(1);
            });
            c.load(1).ret();
        })
        .unwrap();
    b.set_entry(main);
    b.build().unwrap()
}

#[test]
fn allocations_do_not_grow_with_the_call_count() {
    const LOOPS: i64 = 2_000;
    let small = call_heavy(LOOPS);
    let large = call_heavy(4 * LOOPS);
    // A timer fast enough that both runs see ticks.
    let config = VmConfig {
        timer_hz: 10_000,
        ..VmConfig::default()
    };
    let small_vm = Vm::new(&small, config.clone());
    let large_vm = Vm::new(&large, config);
    // Warm-up: one-time registrations (telemetry handles, thread locals).
    small_vm.run_with(&mut Tally::default()).unwrap();

    let (null_small, report) = allocations(|| small_vm.run_with(&mut NullProfiler).unwrap());
    assert_eq!(report.calls, 3 * LOOPS as u64);
    let (null_large, report) = allocations(|| large_vm.run_with(&mut NullProfiler).unwrap());
    assert_eq!(report.calls, 12 * LOOPS as u64);
    assert_eq!(
        null_large, null_small,
        "NullProfiler: {null_small} allocations at {LOOPS} loops, {null_large} at 4x"
    );

    let mut tally = Tally::default();
    let (armed_small, _) = allocations(|| small_vm.run_with(&mut tally).unwrap());
    assert!(tally.ticks > 0 && tally.entries > 0 && tally.exits > 0);
    let (armed_large, _) = allocations(|| large_vm.run_with(&mut Tally::default()).unwrap());
    assert_eq!(
        armed_large, armed_small,
        "armed profiler: {armed_small} allocations at {LOOPS} loops, {armed_large} at 4x"
    );
}
