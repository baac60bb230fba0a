//! Allocation budget of Stage 4 and tensor assembly: the number of allocator
//! calls each makes is a small constant that does not depend on the slice's
//! node count. A count, not a timing, so it means the same on one busy core.

use baclassifier::construction::{
    augment_with_centralities, extract_original_graphs, AddressGraph,
};
use baclassifier::features::graph_tensors;
use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};
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

fn calls_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// The raw slice of one transaction funded by the focus and paying
/// `payees` one-shot addresses: `payees + 2` nodes.
fn payout_slice(payees: u64) -> AddressGraph {
    let record = AddressRecord {
        address: Address(0),
        label: Label::Mining,
        txs: vec![TxView {
            txid: Txid(0),
            timestamp: 0,
            inputs: vec![(Address(0), Amount::from_sats(900_000_000))],
            outputs: (1..=payees)
                .map(|a| (Address(a), Amount::from_sats(1_000 + a)))
                .collect(),
        }],
    };
    extract_original_graphs(&record, 100).remove(0)
}

#[test]
fn stage_4_and_tensor_assembly_allocate_a_constant_number_of_times() {
    let (mut thin, mut payout) = (payout_slice(4), payout_slice(448));
    assert_eq!((thin.num_nodes(), payout.num_nodes()), (6, 450));

    let (thin_calls, ()) = calls_during(|| augment_with_centralities(&mut thin));
    let (payout_calls, ()) = calls_during(|| augment_with_centralities(&mut payout));
    assert_eq!(thin_calls, payout_calls, "augment: calls grow with n");
    assert!(thin_calls <= 6, "augment: {thin_calls} allocator calls");

    let (thin_calls, thin_tensors) = calls_during(|| graph_tensors(&thin));
    let (payout_calls, payout_tensors) = calls_during(|| graph_tensors(&payout));
    assert_eq!(thin_calls, payout_calls, "graph_tensors: calls grow with n");
    assert!(
        thin_calls <= 8,
        "graph_tensors: {thin_calls} allocator calls"
    );
    assert_eq!(thin_tensors.num_nodes(), 6);
    assert_eq!(payout_tensors.num_nodes(), 450);
}
