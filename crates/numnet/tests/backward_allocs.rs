//! Allocation budget of the backward pass: gradients are moved, reused in
//! place and moved into the last input of each fan-out, so a pass makes a
//! fixed, small number of allocator calls for a given tape. Counts, not
//! timings, so they mean the same on one busy core.

use numnet::{Matrix, Param, Tape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocator calls made by the current thread only: the harness's
/// other test threads allocate whenever they like.
struct CountingOnThisThread;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A thread being torn down has no counter left; it is not under test.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and, being a const-initialised `Cell` without a destructor, never allocates.
unsafe impl GlobalAlloc for CountingOnThisThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout`/`new_size` come straight from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingOnThisThread = CountingOnThisThread;

#[test]
fn backward_allocations_are_bounded() {
    let w = Param::new(Matrix::from_fn(8, 8, |r, c| ((r + c) as f32 * 0.1).sin()));
    let x = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.05).cos());
    let tape = Tape::new();
    let xv = tape.constant(x);
    let h = xv.matmul(tape.param(&w)).relu();
    let h2 = h.matmul(tape.param(&w)).sigmoid().add(h.scale(0.5));
    let loss = h2
        .sum_rows()
        .matmul(tape.constant(Matrix::col_vec(vec![1.0; 8])));
    let nodes = tape.len();
    let before = CALLS.with(Cell::get);
    let grads = loss.backward(std::slice::from_ref(&w));
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(grads.len(), 1);
    // Measured when the pass last changed. A pass that cloned every node's
    // gradient on top of the per-input ones made more than one call per
    // node.
    const BUDGET: u64 = 10;
    assert!(
        calls <= BUDGET,
        "backward made {calls} allocator calls over {nodes} nodes (budget {BUDGET})"
    );
}
