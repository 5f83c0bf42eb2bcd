//! Allocation counts of BAT appends, from a counting global allocator.
//!
//! `Counting` wraps `System` and counts, per thread, every call that
//! obtains memory (`alloc`, `alloc_zeroed`, `realloc`). A test binary has
//! its own allocator, so no other suite is affected, and per-thread
//! counts keep the tests of this binary independent when they run in
//! parallel. [`allocations_during`] is the whole interface.
#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use monet::{Bat, Oid, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's allocations during its teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result and the allocations the calling thread
/// made meanwhile.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ROWS: u64 = 100_000;

/// Appends `ROWS` rows whose heads never decrease, each head `repeat`
/// times, to a fresh `oid × oid` BAT.
fn in_order(repeat: u64) -> (Bat, u64) {
    allocations_during(|| {
        let mut bat = Bat::new_oid();
        for row in 0..ROWS {
            bat.append_oid(Oid::from_raw(row / repeat), Oid::from_raw(row))
                .unwrap();
        }
        bat
    })
}

#[test]
fn in_order_appends_allocate_only_to_grow_their_columns() {
    for repeat in [1, 3] {
        let (bat, allocations) = in_order(repeat);
        assert!(
            allocations <= 64,
            "{allocations} allocations for {ROWS} in-order appends (each head {repeat}×)"
        );
        assert_eq!(bat.len(), ROWS as usize);
        let tails = bat.tails_of(Oid::from_raw(777));
        let first = 777 * repeat;
        let want: Vec<Value> = (first..first + repeat)
            .map(|row| Value::Oid(Oid::from_raw(row)))
            .collect();
        assert_eq!(tails, want);
    }
}
