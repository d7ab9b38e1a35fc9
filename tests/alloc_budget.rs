//! Heap-allocation budget of the simulator's steady state.
//!
//! A counting global allocator tallies the allocator calls the test
//! thread makes while `Simulator::run` advances each quick-suite
//! workload under `CoreConfig::fdp()`, after a warm-up. The counts
//! repeat exactly from run to run (fixed seeds, one thread), so the
//! budgets below are the counts measured when they were set: a change
//! that allocates per cycle or per instruction overshoots them at once.
//! Lower a budget when a change removes allocations.
//!
//! Branch checkpoints live in the simulator's slab, which reuses freed
//! slots, and FTQ entries hold their slab indices inline, so predicting,
//! fetching, resolving and flushing a branch allocates nothing.

#![allow(
    unsafe_code,
    reason = "a #[global_allocator] needs `unsafe impl GlobalAlloc`; this is the workspace's \
              one unsafe, and it only forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fdip_program::workload;
use fdip_sim::{CoreConfig, Simulator};

/// Instructions retired before counting starts (predictor and cache
/// warm-up, and the first growth of every buffer).
const WARMUP: u64 = 20_000;
/// Instructions per counted `Simulator::run` call.
const CHUNK: u64 = 20_000;
/// Counted calls per workload.
const CHUNKS: u64 = 10;

/// Allocator calls allowed over the `CHUNKS` counted chunks: the counts
/// when they were set (8.7, 5.5 and 4.7 per 1K instructions, the same at
/// opt-levels 0, 2 and 3).
const BUDGETS: &[(&str, u64)] = &[("server_a", 1_741), ("client_a", 1_100), ("spec_a", 942)];

thread_local! {
    /// Allocator calls made by this thread. `Cell<u64>` needs no
    /// destructor, so reading it never allocates or fails.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Forwards to `System`, counting every call that hands out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local integer, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_allocations_stay_within_budget() {
    let suite = workload::quick_suite();
    assert_eq!(
        suite.iter().map(|w| w.name.as_str()).collect::<Vec<_>>(),
        BUDGETS.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        "one budget per quick-suite workload"
    );
    let mut over = Vec::new();
    for (w, &(name, budget)) in suite.iter().zip(BUDGETS) {
        let program = w.build();
        let mut sim = Simulator::new(CoreConfig::fdp(), &program, 0xf0cced);
        sim.run(0, WARMUP);
        let before = calls();
        for chunk in 0..CHUNKS {
            sim.run(WARMUP + chunk * CHUNK, CHUNK);
        }
        let used = calls() - before;
        let per_ki = used as f64 * 1_000.0 / (CHUNKS * CHUNK) as f64;
        eprintln!("{name}: {used} allocator calls ({per_ki:.1} per 1K instructions)");
        if used > budget {
            over.push(format!("{name}: {used} > {budget}"));
        }
    }
    assert!(
        over.is_empty(),
        "steady-state allocations over budget: {over:?}"
    );
}
