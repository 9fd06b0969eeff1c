//! Allocation budgets of the per-net trees and of the net build.
//!
//! An `RcTree` keeps its nodes in one table and its names in one buffer,
//! and builds its traversal cache only when an analysis first asks for it.
//! Heap-block counts are exact and reproducible where wall-clock gates are
//! not, so this binary installs a counting global allocator (the only
//! `unsafe` involved lives here; the library crates keep
//! `forbid(unsafe_code)`) and pins how many blocks a deck tree and a feeder
//! tree take, and how many allocations `Design::from_extracted` makes for
//! one net.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rctree_core::builder::RcTreeBuilder;
use rctree_core::units::{Farads, Ohms};
use rctree_core::RcTree;
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::deck::SpefDeckParams;

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

/// Allocations the current thread makes while running `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
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

/// Heap blocks a tree may own: its node table, its name buffer, and one
/// spare.
const TREE_BLOCKS: u64 = 3;
/// Allocations `Design::from_extracted` may make for one default deck net
/// (its feeder net, driver instance, sinks and their names included).
const NET_BUILD_BUDGET: u64 = 40;

/// The first net of a seeded default deck: 13 nodes.
fn deck_net() -> (String, RcTree) {
    let params = SpefDeckParams {
        nets: 1,
        ..SpefDeckParams::default()
    };
    let net = params.trees(7).remove(0);
    assert_eq!(net.1.node_count(), 13);
    net
}

/// The 2-node feeder wire `Design::from_extracted` puts in front of every
/// deck net.
fn feeder_tree() -> RcTree {
    let mut b = RcTreeBuilder::new();
    b.add_line(b.input(), "pin", Ohms::new(10.0), Farads::from_femto(1.0))
        .expect("valid wire");
    b.build().expect("valid wire")
}

#[test]
fn a_deck_tree_clones_into_at_most_three_blocks() {
    let (_, tree) = deck_net();
    let (copy, spent) = allocations_of(|| tree.clone());
    assert_eq!(copy, tree);
    println!("13-node deck tree clone: {spent} allocations");
    assert!(spent <= TREE_BLOCKS, "{spent} allocations");
}

#[test]
fn the_feeder_tree_clones_into_at_most_three_blocks() {
    let tree = feeder_tree();
    let (copy, spent) = allocations_of(|| tree.clone());
    assert_eq!(copy, tree);
    println!("2-node feeder tree clone: {spent} allocations");
    assert!(spent <= TREE_BLOCKS, "{spent} allocations");
}

#[test]
fn walking_a_tree_in_preorder_allocates_nothing() {
    let (_, tree) = deck_net();
    let (visited, spent) = allocations_of(|| {
        tree.preorder_iter()
            .map(|id| tree.children(id).expect("valid node").count())
            .sum::<usize>()
    });
    assert_eq!(visited, tree.node_count() - 1);
    assert_eq!(spent, 0);
}

#[test]
fn building_one_extracted_net_stays_within_its_budget() {
    let net = deck_net();
    let library = CellLibrary::nmos_1981();
    // Warm up the process-wide state a first net build touches once.
    Design::from_extracted(library.clone(), "inv_4x", vec![deck_net()]).expect("builds");

    let nets = vec![net];
    let (design, spent) =
        allocations_of(|| Design::from_extracted(library, "inv_4x", nets).expect("builds"));
    assert_eq!(design.net_count(), 2);
    println!("Design::from_extracted of one net: {spent} allocations");
    assert!(
        spent <= NET_BUILD_BUDGET,
        "{spent} allocations exceed the budget of {NET_BUILD_BUDGET}"
    );
}
