//! Allocation budget of the streaming SPEF reader.
//!
//! Wall-clock gates are unreliable on a shared host, but the number of heap
//! allocations a parse makes is exact and reproducible.  This binary
//! installs a counting global allocator (the only `unsafe` involved lives
//! here; the library crates keep `forbid(unsafe_code)`) and pins how many
//! allocations `parse_spef_read` makes per net of a seeded default deck at
//! one worker, so that the allocation-lean ingestion path cannot quietly
//! regress.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rctree_netlist::parse_spef_read;
use rctree_workloads::deck::{render_spef_deck, SpefDeckParams};

/// Counts the allocations (including reallocations) made by the current
/// thread and forwards everything to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised, destructor-free thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Nets in the budget deck.
const NETS: usize = 2_000;
/// Heap allocations allowed per parsed net (each default-deck net has 13
/// nodes; the tree it becomes grows its node table and its name buffer
/// once each, so it accounts for four of them, and a parse makes about 22
/// in all).
const BUDGET_PER_NET: u64 = 28;

#[test]
fn streaming_parse_stays_within_its_allocation_budget() {
    let mut bytes = Vec::new();
    let params = SpefDeckParams {
        nets: NETS,
        ..SpefDeckParams::default()
    };
    render_spef_deck(&params, 1, &mut bytes).expect("writing to a Vec cannot fail");

    // At one worker the whole parse runs on this thread, so the
    // thread-local count is exactly the parse's.
    let before = allocations();
    let nets = parse_spef_read(&bytes[..], 1).expect("the generated deck parses");
    let spent = allocations() - before;

    assert_eq!(nets.len(), NETS);
    let per_net = spent as f64 / NETS as f64;
    println!("parse_spef_read: {spent} allocations, {per_net:.1} per net");
    assert!(
        spent <= BUDGET_PER_NET * NETS as u64,
        "{per_net:.1} allocations per net exceeds the budget of {BUDGET_PER_NET}"
    );
}
