//! Allocation budget of one simulated run: at most one heap allocation
//! per scheduler decision, counted from building the machine through
//! `Machine::run` returning its result, over the seeded sweep schedules
//! of every fixed experiment.
//!
//! The counting allocator counts per thread, because the test harness
//! runs tests of one binary on several threads of one process; this
//! file holds a single test so nothing else shares the allocator.

use jungle_mc::theorems::all_fixed_experiments;
use jungle_mc::verify::{machine_for, scheduler_for_seed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees carry over; counting only bumps a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SEEDS: u64 = 200;
const MAX_STEPS: usize = 8_000;
const BUDGET_PER_DECISION: f64 = 1.0;

#[test]
fn simulated_run_allocates_at_most_once_per_decision() {
    for e in all_fixed_experiments() {
        let mut count = 0u64;
        let mut steps = 0u64;
        for seed in 0..SEEDS {
            let mut sched = scheduler_for_seed(seed);
            let before = allocs();
            let r = machine_for(&e.program, e.algo, e.entry.exec).run(sched.as_mut(), MAX_STEPS);
            count += allocs() - before;
            steps += r.steps as u64;
        }
        let per_decision = count as f64 / steps as f64;
        assert!(
            per_decision <= BUDGET_PER_DECISION,
            "{}: {per_decision:.3} allocations per decision ({count} over {steps} decisions)",
            e.id
        );
    }
}
