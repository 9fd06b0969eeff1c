//! Properties of the compact tree layout (one node table with child and
//! sibling links, one name buffer, a traversal cache built on first use)
//! over seeded random trees and random edit streams.
//!
//! After every edit of every stream:
//!
//! * `preorder_iter()` visits the nodes in the order of a plain stack DFS
//!   over child lists rebuilt from `parent()` alone;
//! * `children()` lists each node's children in insertion order.  Node ids
//!   are handed out in insertion order (a graft appends its nodes, a prune
//!   keeps the survivors' relative order), so insertion order is ascending
//!   id order;
//! * every name looks up to its node;
//! * `rebuild() == tree`;
//! * the incremental engine gives bit-identical answers whether the tree's
//!   traversal cache was built before the engine existed or by
//!   `EditableTree::new`.
//!
//! The engine itself checks, in debug builds, that the cache it patches on
//! every graft and prune keeps the pre-order and subtree intervals of a
//! from-scratch build, so these streams exercise that check too.
//!
//! At the end of each stream the edited tree is replayed through
//! `RcTreeBuilder` into a tree whose cache is built only after the edits,
//! lazily, by the analysis itself; `BatchTimes` and the
//! `moments::characteristic_times` oracle must be bit-identical on it and
//! on the edited tree's eager `rebuild()`.

use std::fmt::Debug;

use penfield_rubinstein::core::batch::BatchTimes;
use penfield_rubinstein::core::builder::RcTreeBuilder;
use penfield_rubinstein::core::element::Branch;
use penfield_rubinstein::core::incremental::{EditableTree, TreeEdit};
use penfield_rubinstein::core::moments::characteristic_times;
use penfield_rubinstein::core::tree::{NodeId, RcTree};
use penfield_rubinstein::core::units::{Farads, Ohms};
use penfield_rubinstein::workloads::rng::Rng;
use penfield_rubinstein::workloads::RandomTreeConfig;

/// Streams per run and edits per stream.
const STREAMS: u64 = 40;
const EDITS: usize = 25;

/// Asserts equality of the `Debug` renderings, which print every `f64` in
/// shortest round-trip form and so tell apart any two different bit
/// patterns (`0.0` and `-0.0` included).
fn assert_bits_eq<T: Debug>(a: &T, b: &T, context: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}");
}

/// Pre-order by an explicit stack over child lists derived from
/// `parent()`, children in ascending id order.
fn reference_preorder(tree: &RcTree) -> (Vec<NodeId>, Vec<Vec<NodeId>>) {
    let mut kids = vec![Vec::new(); tree.node_count()];
    for id in tree.node_ids() {
        if let Some(p) = tree.parent(id).unwrap() {
            kids[p.index()].push(id);
        }
    }
    let mut order = Vec::with_capacity(tree.node_count());
    let mut stack = vec![tree.input()];
    while let Some(id) = stack.pop() {
        order.push(id);
        stack.extend(kids[id.index()].iter().rev());
    }
    (order, kids)
}

fn check_layout(tree: &RcTree, context: &str) {
    let (order, kids) = reference_preorder(tree);
    let walked: Vec<NodeId> = tree.preorder_iter().collect();
    assert_eq!(walked, order, "{context}: pre-order");
    assert_eq!(tree.preorder_iter().len(), tree.node_count(), "{context}");
    for id in tree.node_ids() {
        let children: Vec<NodeId> = tree.children(id).unwrap().collect();
        assert_eq!(children, kids[id.index()], "{context}: children of {id}");
        assert_eq!(
            tree.node_by_name(tree.name(id).unwrap()).unwrap(),
            id,
            "{context}: name of {id}"
        );
    }
    assert!(tree.rebuild() == *tree, "{context}: rebuild() == tree");
}

/// A copy of `tree` made through the builder, node by node in id order,
/// so its traversal cache is not built until something analyses it.
fn replay(tree: &RcTree) -> RcTree {
    let input = tree.input();
    let mut b = RcTreeBuilder::with_input_name(tree.name(input).unwrap());
    for id in tree.node_ids() {
        if let Some(parent) = tree.parent(id).unwrap() {
            assert!(parent < id, "parents precede their children");
            let name = tree.name(id).unwrap();
            let new = match tree.branch(id).unwrap().unwrap() {
                Branch::Resistor { resistance } => b.add_resistor(parent, name, resistance),
                Branch::Line {
                    resistance,
                    capacitance,
                } => b.add_line(parent, name, resistance, capacitance),
            }
            .unwrap();
            assert_eq!(new, id);
        }
        b.add_capacitance(id, tree.capacitance(id).unwrap())
            .unwrap();
        if tree.is_output(id).unwrap() {
            b.mark_output(id).unwrap();
        }
    }
    b.build().unwrap()
}

/// A small random subtree whose names cannot clash with the host's.
fn graft_subtree(rng: &mut Rng, tag: usize) -> RcTree {
    let shape = RandomTreeConfig {
        nodes: 1 + rng.index(6),
        prefer_chains: rng.chance(0.5),
        ..RandomTreeConfig::default()
    }
    .generate(rng.next_u64());
    let mut b = RcTreeBuilder::with_input_name(format!("g{tag}_root"));
    for id in shape.node_ids() {
        if let Some(parent) = shape.parent(id).unwrap() {
            let branch = shape.branch(id).unwrap().unwrap();
            b.add_line(
                parent,
                format!("g{tag}_{}", id.index()),
                branch.resistance(),
                branch.capacitance(),
            )
            .unwrap();
        }
        b.add_capacitance(id, shape.capacitance(id).unwrap())
            .unwrap();
        if shape.is_output(id).unwrap() {
            b.mark_output(id).unwrap();
        }
    }
    b.build().unwrap()
}

fn random_edit(rng: &mut Rng, tree: &RcTree, tag: usize) -> Option<TreeEdit> {
    let n = tree.node_count();
    // Any node of the tree, chosen by position in the pre-order walk.
    let pick = |rng: &mut Rng| tree.preorder_iter().nth(rng.index(n)).expect("n nodes");
    match rng.index(4) {
        0 => Some(TreeEdit::SetCap {
            node: pick(rng),
            cap: Farads::new(rng.range_f64(0.0, 1e-12)),
        }),
        1 => {
            let node = pick(rng);
            (node != NodeId::INPUT).then(|| TreeEdit::SetBranch {
                node,
                branch: if rng.chance(0.5) {
                    Branch::resistor(Ohms::new(rng.range_f64(1.0, 1000.0)))
                } else {
                    Branch::line(
                        Ohms::new(rng.range_f64(1.0, 1000.0)),
                        Farads::new(rng.range_f64(0.0, 1e-12)),
                    )
                },
            })
        }
        2 => Some(TreeEdit::GraftSubtree {
            parent: pick(rng),
            via: Branch::line(
                Ohms::new(rng.range_f64(1.0, 500.0)),
                Farads::new(rng.range_f64(0.0, 1e-13)),
            ),
            subtree: Box::new(graft_subtree(rng, tag)),
        }),
        _ => {
            // Keep the tree non-trivial and carrying capacitance.
            let node = pick(rng);
            if node == NodeId::INPUT || tree.subtree_size(node).unwrap() * 2 > n {
                return None;
            }
            let removed = tree.subtree_capacitance(node).unwrap()
                + tree
                    .branch(node)
                    .unwrap()
                    .map_or(Farads::ZERO, |b| b.capacitance());
            let total = tree.total_capacitance();
            (total.value() - removed.value() > 1e-6 * total.value())
                .then_some(TreeEdit::PruneSubtree { node })
        }
    }
}

#[test]
fn compact_layout_holds_under_random_edit_streams() {
    for seed in 0..STREAMS {
        let mut rng = Rng::from_seed(0x7AEE_0000 + seed);
        let start = RandomTreeConfig {
            nodes: 8 + rng.index(48),
            prefer_chains: seed % 2 == 0,
            ..RandomTreeConfig::default()
        }
        .generate(seed);
        check_layout(&start, &format!("seed {seed} start"));

        // `early` has its cache built before the engine wraps it; `late`
        // first builds it inside `EditableTree::new`.
        let early = start.clone();
        BatchTimes::of(&early).unwrap();
        let mut early = EditableTree::new(early);
        let mut late = EditableTree::new(start.clone());

        let mut applied = 0;
        for step in 0..EDITS {
            let context = format!("seed {seed} step {step}");
            let Some(edit) = random_edit(&mut rng, early.tree(), step) else {
                continue;
            };
            early.apply(&edit).unwrap();
            late.apply(&edit).unwrap();
            applied += 1;
            assert!(early.tree() == late.tree(), "{context}");
            check_layout(early.tree(), &context);
            for id in early.tree().node_ids() {
                assert_bits_eq(
                    &early.characteristic_times(id).unwrap(),
                    &late.characteristic_times(id).unwrap(),
                    &context,
                );
            }
            assert_bits_eq(&early.batch().unwrap(), &late.batch().unwrap(), &context);
        }
        assert!(applied > EDITS / 2, "seed {seed}: only {applied} edits");

        let context = format!("seed {seed} end");
        let edited = early.into_tree();
        let eager = edited.rebuild();
        let lazy = replay(&edited);
        assert!(lazy == edited, "{context}: replay");
        assert_bits_eq(
            &BatchTimes::of(&lazy).unwrap(),
            &BatchTimes::of(&eager).unwrap(),
            &context,
        );
        for out in edited.outputs() {
            assert_bits_eq(
                &characteristic_times(&lazy, out).unwrap(),
                &characteristic_times(&eager, out).unwrap(),
                &context,
            );
        }
    }
}
