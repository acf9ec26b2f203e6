//! Decoding does not allocate per fused run: how many allocations
//! `Vm::new` makes does not depend on how many runs the program has.
//!
//! A counting global allocator over `System` counts only the allocations
//! of a thread that opts in, so the test harness's own threads cannot
//! disturb the count. It lives in its own test binary because a global
//! allocator is process-wide.

use cbs_bytecode::{Program, ProgramBuilder};
use cbs_vm::{NullProfiler, Vm, VmConfig, VmMetrics};
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

/// Two methods, each `units` times over: an integer run of three steps
/// with a spill, and a forward test-branch over a `Nop`. Every unit is
/// two fused runs, and the longest run is the same at any `units`.
fn fusible(units: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("C", 0);
    let body = |c: &mut cbs_bytecode::CodeBuilder<'_>| {
        for u in 0..units {
            let k = i64::from(u) + 1;
            c.load(0).const_(k).add().store(2).load(2);
            c.const_(3).mul().const_(k).bxor().store(0);
            let skip = c.label();
            c.load(1).const_(k).cmp_eq().jump_if_zero(skip);
            c.nop();
            c.bind(skip);
        }
    };
    let f = b
        .function("f", cls, 2, 1, |c| {
            body(c);
            c.load(0).ret();
        })
        .unwrap();
    let main = b
        .function("main", cls, 0, 3, |c| {
            body(c);
            c.const_(5).const_(6).call(f).ret();
        })
        .unwrap();
    b.set_entry(main);
    b.build().unwrap()
}

#[test]
fn decoding_allocates_the_same_at_n_and_4n_fused_runs() {
    const UNITS: u32 = 50;
    let small = fusible(UNITS);
    let large = fusible(4 * UNITS);
    let config = VmConfig::default();
    let (small_config, large_config) = (config.clone(), config);

    let (at_n, small_vm) = allocations(|| Vm::new(&small, small_config));
    let (at_4n, large_vm) = allocations(|| Vm::new(&large, large_config));
    assert_eq!(
        at_4n, at_n,
        "Vm::new: {at_n} allocations at {UNITS} units, {at_4n} at 4x"
    );

    // The runs are there: each unit fuses twice per method at 4x the rate.
    let fused = || VmMetrics::get().fused_runs.get();
    let before = fused();
    small_vm.run_with(&mut NullProfiler).unwrap();
    let at_small = fused() - before;
    large_vm.run_with(&mut NullProfiler).unwrap();
    let at_large = fused() - before - at_small;
    assert_eq!(
        at_small,
        4 * u64::from(UNITS),
        "fused runs at {UNITS} units"
    );
    assert_eq!(at_large, 4 * at_small, "fused runs at 4x");
}
