//! Allocation regression gate for the interpreter hot path: one concrete run
//! of a large generated program must stay within a fixed heap-allocation
//! budget.
//!
//! The interpreter borrows procedures, names and types from the shared Core
//! program instead of cloning them per step, so the allocation count of a run
//! is a property of the program and the seed, not of the machine: it repeats
//! exactly, and the bound below is a plain regression gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cerberus::memory::config::ModelConfig;
use cerberus::memory::limits::ResourceLimits;
use cerberus::pipeline::{spawn_with_stack, Session};
use cerberus_exec::ExecMode;
use cerberus_gen::{generate, to_c_source, GenConfig};

/// Counts the heap allocations made on the current thread while counting is
/// switched on; every other thread (the test harness included) is ignored.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The budget. A run allocates one frame per C call and otherwise mostly
/// values and memory-model state: binding, symbol lookup and race
/// detection allocate nothing. This run made 2,390 allocations when the
/// bound was set.
const MAX_ALLOCATIONS: u64 = 3_000;

#[test]
fn a_large_generated_program_runs_within_its_allocation_budget() {
    let source = to_c_source(&generate(1, GenConfig::large()));
    let program = Session::default()
        .elaborate(&source)
        .expect("generated programs elaborate");
    let limits = ResourceLimits::default();
    let worker = spawn_with_stack(
        "exec-allocations".to_owned(),
        limits.host_stack_bytes(),
        move || {
            let model = ModelConfig::concrete();
            COUNTING.set(true);
            let outcome = program.execute_bounded(&model, ExecMode::Random { seed: 0 }, &limits);
            COUNTING.set(false);
            (outcome, ALLOCATIONS.get())
        },
    )
    .expect("spawning the execution thread");
    let (outcome, allocations) = worker.join().expect("the execution thread panicked");
    assert!(
        outcome.exit_value().is_some(),
        "the program must run to completion: {outcome:?}"
    );
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "one concrete run made {allocations} heap allocations, over the budget of {MAX_ALLOCATIONS}"
    );
    eprintln!("one concrete run made {allocations} heap allocations");
}
