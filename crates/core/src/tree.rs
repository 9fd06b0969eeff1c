//! The RC tree data model.
//!
//! An *RC tree* (paper, Section II) is a resistor tree with no resistor to
//! ground, in which every node may carry a grounded capacitor and any
//! resistor may be replaced by a uniform distributed RC line.  The tree has a
//! single input (the root, where the step excitation is applied) and any
//! number of outputs, which may be taken at any node.  The defining property
//! exploited by the whole theory is that there is a **unique path** from any
//! point of the tree to the input.
//!
//! [`RcTree`] is an immutable, validated structure produced by
//! [`RcTreeBuilder`](crate::builder::RcTreeBuilder).
//!
//! # Memory layout
//!
//! Because every node has exactly one path to the input, a node table with
//! parent and sibling links describes the whole tree.  A built [`RcTree`]
//! is two heap blocks:
//!
//! 1. the **node table**, one fixed-size record per node: its parent, its
//!    feeding branch, its capacitance, its output mark, the
//!    `first_child` / `last_child` / `next_sibling` links that give the
//!    children in insertion order, and the links of an intrusive name
//!    index;
//! 2. the **name buffer**, one `String` holding every node name back to
//!    back in node order; a node stores the `(start, len)` span of its
//!    name.
//!
//! The **traversal cache** (the pre-order, prefix path resistances,
//! subtree capacitances and the per-node value arrays the whole-tree
//! algorithms walk) is derived from the node table and built on the first
//! call that needs it, not when the tree is built.  It adds nine arrays.
//! A tree that is only parsed, walked with [`RcTree::preorder_iter`] or
//! [`RcTree::children`], copied into another structure and dropped never
//! builds it; the first analysis ([`BatchTimes::of`](crate::batch::BatchTimes::of),
//! [`EditableTree::new`](crate::incremental::EditableTree::new), the path
//! and subtree queries) does, once.  Cloning a tree copies the blocks it
//! has and nothing else.

use std::fmt;
use std::iter::FusedIterator;
use std::sync::OnceLock;

use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::units::{Farads, Ohms};

/// Identifier of a node within one [`RcTree`].
///
/// Node ids are indices into the tree's node table; id 0 is always the input
/// node.  Ids are only meaningful for the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The input (root) node of every tree.
    pub const INPUT: NodeId = NodeId(0);

    /// Returns the underlying index of this node id.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Terminator of the child and sibling links and of the name-index chains.
pub(crate) const NIL: u32 = u32::MAX;

/// Flattened traversal arrays derived from the node table, built on the
/// first [`RcTree::traversal`] call and shared by every whole-tree
/// algorithm.
///
/// Everything here is redundant with the node table — it is a cache,
/// indexed by [`NodeId::index`], that turns the hot traversal loops of
/// [`crate::batch`], [`crate::elmore`] and [`crate::moments`] into
/// allocation-free array walks instead of `Result`-returning accessor calls
/// that rebuild `preorder()` / `path_from_input()` vectors per query.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraversalCache {
    /// Node indices in depth-first pre-order (children in insertion order);
    /// entry 0 is always the input.  Iterating it in reverse gives a valid
    /// post-order (children before parents).
    pub(crate) preorder: Vec<u32>,
    /// Parent index per node; the input maps to itself.
    pub(crate) parent: Vec<u32>,
    /// Series resistance of the branch `parent → node` (0 for the input).
    pub(crate) branch_r: Vec<f64>,
    /// Distributed capacitance of the branch `parent → node` (0 for the
    /// input and for lumped resistors).
    pub(crate) branch_c: Vec<f64>,
    /// Lumped grounded capacitance at the node.
    pub(crate) node_cap: Vec<f64>,
    /// Prefix path resistance input → node (`R_kk` of Section III).
    pub(crate) path_r: Vec<f64>,
    /// Capacitance in the subtree rooted at the node: its lumped capacitor,
    /// all descendant capacitors, and the full distributed capacitance of
    /// every branch *below* the node (not the branch feeding it).
    pub(crate) down_cap: Vec<f64>,
    /// Position of each node in `preorder` (the inverse permutation).
    pub(crate) pre_index: Vec<u32>,
    /// Exclusive end of each node's subtree interval in `preorder`: the
    /// subtree rooted at node `i` occupies
    /// `preorder[pre_index[i] .. subtree_end[i]]`.  This is the
    /// subtree-extent index shared by the one-shot batch engine and the
    /// incremental delta engine ([`crate::incremental`]): "the whole subtree
    /// under a node" is always one contiguous slice.
    pub(crate) subtree_end: Vec<u32>,
}

impl TraversalCache {
    fn build(nodes: &[NodeData]) -> Self {
        let n = nodes.len();
        let preorder: Vec<u32> = Preorder::new(nodes).map(|id| id.0 as u32).collect();

        let mut parent = vec![0u32; n];
        let mut branch_r = vec![0.0; n];
        let mut branch_c = vec![0.0; n];
        let mut node_cap = vec![0.0; n];
        let mut path_r = vec![0.0; n];
        for (i, data) in nodes.iter().enumerate() {
            node_cap[i] = data.cap.value();
            if let Some(p) = data.parent {
                parent[i] = p.0 as u32;
            }
            if let Some(branch) = &data.branch {
                branch_r[i] = branch.resistance().value();
                branch_c[i] = branch.capacitance().value();
            }
        }
        for &i in &preorder[1..] {
            let i = i as usize;
            path_r[i] = path_r[parent[i] as usize] + branch_r[i];
        }

        let mut down_cap = node_cap.clone();
        for &i in preorder[1..].iter().rev() {
            let i = i as usize;
            down_cap[parent[i] as usize] += down_cap[i] + branch_c[i];
        }

        let mut cache = TraversalCache {
            preorder,
            parent,
            branch_r,
            branch_c,
            node_cap,
            path_r,
            down_cap,
            pre_index: Vec::new(),
            subtree_end: Vec::new(),
        };
        cache.rebuild_intervals();
        cache
    }

    /// Recomputes `pre_index` and `subtree_end` from `preorder` and
    /// `parent` in `O(n)`.  Called at build time and after every structural
    /// patch (graft/prune) of the incremental engine.
    pub(crate) fn rebuild_intervals(&mut self) {
        let n = self.preorder.len();
        self.pre_index.resize(n, 0);
        self.subtree_end.resize(n, 0);
        for (pos, &i) in self.preorder.iter().enumerate() {
            self.pre_index[i as usize] = pos as u32;
        }
        for (i, end) in self.subtree_end.iter_mut().enumerate() {
            *end = self.pre_index[i] + 1;
        }
        for &i in self.preorder[1..].iter().rev() {
            let i = i as usize;
            let p = self.parent[i] as usize;
            if self.subtree_end[i] > self.subtree_end[p] {
                self.subtree_end[p] = self.subtree_end[i];
            }
        }
    }

    /// The half-open `preorder` interval occupied by the subtree rooted at
    /// node index `i`.
    pub(crate) fn interval(&self, i: usize) -> (usize, usize) {
        (self.pre_index[i] as usize, self.subtree_end[i] as usize)
    }
}

/// Per-node payload stored by [`RcTree`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    /// Byte offset of the node's name in the table's name buffer.
    pub(crate) name_start: u32,
    /// Byte length of the node's name.
    pub(crate) name_len: u32,
    /// Parent node; `None` only for the input node.
    pub(crate) parent: Option<NodeId>,
    /// Branch element connecting this node to its parent; `None` only for
    /// the input node.
    pub(crate) branch: Option<Branch>,
    /// Lumped grounded capacitance attached at this node.
    pub(crate) cap: Farads,
    /// First child in insertion order ([`NIL`] for a leaf).
    pub(crate) first_child: u32,
    /// Last child in insertion order ([`NIL`] for a leaf), so appending a
    /// child is `O(1)`.
    pub(crate) last_child: u32,
    /// The parent's next child after this one ([`NIL`] for the last).
    pub(crate) next_sibling: u32,
    /// Whether this node is marked as an output of interest.
    pub(crate) output: bool,
    /// Hash of the name, kept for the intrusive name index (see
    /// [`name_index`]).
    pub(crate) name_hash: u32,
    /// Next node in the same name-index bucket ([`NIL`] ends the chain).
    pub(crate) name_next: u32,
    /// Head of the name-index bucket numbered by this node's index.
    pub(crate) bucket_head: u32,
}

/// The node table and the name buffer its name spans point into: the part
/// of a tree that [`RcTreeBuilder`](crate::builder::RcTreeBuilder) grows
/// and [`RcTree`] keeps.
///
/// The buffer holds the names back to back in node order and nothing else,
/// so node `i`'s span starts where node `i - 1`'s ends.
#[derive(Debug, Clone)]
pub(crate) struct NodeTable {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) names: String,
}

/// A name-buffer offset or length as stored in a span.
///
/// # Panics
///
/// If the tree's names exceed 4 GiB in total.
pub(crate) fn span(bytes: usize) -> u32 {
    u32::try_from(bytes).expect("the node names of one tree fit in 4 GiB")
}

/// Checks that a tree of `len` nodes can number every node with a `u32`
/// link distinct from [`NIL`].
///
/// # Panics
///
/// If `len` exceeds `u32::MAX`.
pub(crate) fn check_node_count(len: usize) {
    assert!(len <= NIL as usize, "a tree holds at most 2^32 - 1 nodes");
}

impl NodeTable {
    /// A table holding only the input node, called `name`.
    pub(crate) fn with_root(name: &str) -> Self {
        let mut table = NodeTable {
            nodes: Vec::new(),
            names: String::new(),
        };
        table.push(name, name_index::hash(name), None, None);
        table
    }

    /// The name of node `i`.
    pub(crate) fn name(&self, i: usize) -> &str {
        let n = &self.nodes[i];
        let start = n.name_start as usize;
        &self.names[start..start + n.name_len as usize]
    }

    /// Index of the node called `name`, if any.
    pub(crate) fn find(&self, name: &str) -> Option<usize> {
        name_index::find_hashed(self, name, name_index::hash(name))
    }

    /// Appends a node called `name` (whose [`name_index::hash`] is
    /// `name_hash`) as the last child of `parent` and returns its id.  The
    /// caller has checked that the name is unused.
    pub(crate) fn push(
        &mut self,
        name: &str,
        name_hash: u32,
        parent: Option<NodeId>,
        branch: Option<Branch>,
    ) -> NodeId {
        let name_start = span(self.names.len());
        self.names.push_str(name);
        let id = self.nodes.len();
        check_node_count(id + 1);
        self.nodes.push(NodeData {
            name_start,
            name_len: span(name.len()),
            parent,
            branch,
            cap: Farads::ZERO,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            output: false,
            name_hash,
            name_next: NIL,
            bucket_head: NIL,
        });
        name_index::push(&mut self.nodes);
        if let Some(p) = parent {
            self.append_child(p.0, id);
        }
        NodeId(id)
    }

    /// Links node `child` in as the last child of node `parent` in `O(1)`.
    pub(crate) fn append_child(&mut self, parent: usize, child: usize) {
        let last = self.nodes[parent].last_child;
        if last == NIL {
            self.nodes[parent].first_child = child as u32;
        } else {
            self.nodes[last as usize].next_sibling = child as u32;
        }
        self.nodes[parent].last_child = child as u32;
    }
}

/// An intrusive hash index from node names to node indices, stored inside
/// the node table itself so that it costs no allocation of its own.
///
/// The table has `B` buckets, `B` the largest power of two not above the
/// node count, so the load factor stays in `[1, 2)`.  Bucket `b`'s chain
/// starts at `nodes[b].bucket_head` and continues through `name_next`.
/// Appending a node links it in `O(1)`; when the count reaches the next
/// power of two every node is relinked into twice the buckets, which is
/// `O(1)` amortised.  Lookups cost one hash and an expected `O(1)` chain
/// walk, so building or querying an `n`-node tree by name is `O(n)`
/// rather than the `O(n²)` of a linear scan per name.
pub(crate) mod name_index {
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;
    use std::sync::OnceLock;

    use super::{NodeData, NodeTable, NIL};

    /// Hash of a node name: the standard library's keyed hash under one
    /// random key per process.  Names come from netlists, so the key keeps
    /// anyone from crafting names that share a chain; one key for every
    /// tree keeps stored hashes valid when a subtree is grafted.
    pub(crate) fn hash(name: &str) -> u32 {
        static KEY: OnceLock<RandomState> = OnceLock::new();
        let h = KEY.get_or_init(RandomState::new).hash_one(name);
        (h ^ (h >> 32)) as u32
    }

    /// Bucket mask for a table of `len` nodes (`len >= 1`).
    fn mask(len: usize) -> usize {
        (1usize << (usize::BITS - 1 - len.leading_zeros())) - 1
    }

    fn link(nodes: &mut [NodeData], i: usize, mask: usize) {
        let b = nodes[i].name_hash as usize & mask;
        nodes[i].name_next = nodes[b].bucket_head;
        nodes[b].bucket_head = i as u32;
    }

    /// Links the last node of `nodes`, just appended.
    pub(crate) fn push(nodes: &mut [NodeData]) {
        let len = nodes.len();
        if len.is_power_of_two() {
            relink(nodes);
        } else {
            nodes[len - 1].bucket_head = NIL;
            link(nodes, len - 1, mask(len));
        }
    }

    /// Rebuilds every link from the stored hashes (after nodes were
    /// removed).
    pub(crate) fn relink(nodes: &mut [NodeData]) {
        if nodes.is_empty() {
            return;
        }
        for n in nodes.iter_mut() {
            n.bucket_head = NIL;
        }
        let mask = mask(nodes.len());
        for i in 0..nodes.len() {
            link(nodes, i, mask);
        }
    }

    /// Index of the node called `name`, whose [`hash`] is `name_hash`.
    pub(crate) fn find_hashed(table: &NodeTable, name: &str, name_hash: u32) -> Option<usize> {
        let nodes = &table.nodes;
        if nodes.is_empty() {
            return None;
        }
        let mut i = nodes[name_hash as usize & mask(nodes.len())].bucket_head;
        while i != NIL {
            let n = &nodes[i as usize];
            if n.name_hash == name_hash && table.name(i as usize) == name {
                return Some(i as usize);
            }
            i = n.name_next;
        }
        None
    }
}

/// Iterator over the children of one node in insertion order, returned by
/// [`RcTree::children`].
#[derive(Debug, Clone)]
pub struct Children<'a> {
    nodes: &'a [NodeData],
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let cur = self.next as usize;
        self.next = self.nodes[cur].next_sibling;
        Some(NodeId(cur))
    }
}

impl FusedIterator for Children<'_> {}

/// Depth-first pre-order over a tree (children in insertion order),
/// returned by [`RcTree::preorder_iter`].
///
/// The walk follows the first-child, next-sibling and parent links, so it
/// allocates nothing and keeps no stack: after a leaf it climbs to the
/// nearest ancestor that has a next sibling.  Each branch is descended once
/// and climbed at most once, so a full walk is `O(n)`.
#[derive(Debug, Clone)]
pub struct Preorder<'a> {
    nodes: &'a [NodeData],
    next: u32,
    remaining: usize,
}

impl<'a> Preorder<'a> {
    fn new(nodes: &'a [NodeData]) -> Self {
        Preorder {
            nodes,
            next: if nodes.is_empty() { NIL } else { 0 },
            remaining: nodes.len(),
        }
    }
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let cur = self.next as usize;
        let mut n = &self.nodes[cur];
        self.next = n.first_child;
        while self.next == NIL {
            self.next = n.next_sibling;
            match n.parent {
                Some(p) if self.next == NIL => n = &self.nodes[p.0],
                _ => break,
            }
        }
        self.remaining -= 1;
        Some(NodeId(cur))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Preorder<'_> {}

impl FusedIterator for Preorder<'_> {}

/// A validated RC tree network.
///
/// Construct one with [`RcTreeBuilder`](crate::builder::RcTreeBuilder):
///
/// ```
/// use rctree_core::builder::RcTreeBuilder;
/// use rctree_core::units::{Ohms, Farads};
///
/// # fn main() -> rctree_core::error::Result<()> {
/// let mut b = RcTreeBuilder::new();
/// let a = b.add_resistor(b.input(), "a", Ohms::new(100.0))?;
/// b.add_capacitance(a, Farads::new(1e-12))?;
/// b.mark_output(a)?;
/// let tree = b.build()?;
/// assert_eq!(tree.node_count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// See the [module documentation](self) for how a tree is laid out in
/// memory.
#[derive(Debug, Clone)]
pub struct RcTree {
    pub(crate) table: NodeTable,
    /// Flattened traversal arrays derived from the node table, built on the
    /// first [`RcTree::traversal`] call; excluded from equality (it is a
    /// pure function of the node table).
    pub(crate) cache: OnceLock<TraversalCache>,
}

/// Equality of the node payload: names (by content), parents, branches,
/// capacitances, child order and output marks.  The name-index links and
/// the traversal cache are derived state and do not take part.
impl PartialEq for RcTree {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.table, &other.table);
        a.nodes.len() == b.nodes.len()
            && a.nodes.iter().zip(&b.nodes).enumerate().all(|(i, (x, y))| {
                a.name(i) == b.name(i)
                    && x.parent == y.parent
                    && x.branch == y.branch
                    && x.cap == y.cap
                    && x.first_child == y.first_child
                    && x.next_sibling == y.next_sibling
                    && x.output == y.output
            })
    }
}

impl RcTree {
    /// Wraps a validated node table (the only construction path; used by
    /// [`RcTreeBuilder`](crate::builder::RcTreeBuilder)).  The traversal
    /// cache is left unbuilt.
    pub(crate) fn from_table(table: NodeTable) -> Self {
        RcTree {
            table,
            cache: OnceLock::new(),
        }
    }

    /// The flattened traversal arrays shared by the whole-tree algorithms,
    /// built from the node table on the first call.
    pub(crate) fn traversal(&self) -> &TraversalCache {
        self.cache
            .get_or_init(|| TraversalCache::build(&self.table.nodes))
    }

    /// Whether the built traversal cache has the same structure as one
    /// built from scratch: pre-order, parents and subtree intervals equal
    /// exactly, and the per-node element values match bit for bit.  The
    /// incremental engine patches the cache in place on grafts and prunes
    /// and checks this after each one in debug builds; a cache that is not
    /// yet built trivially matches.
    pub(crate) fn cache_matches_rebuild(&self) -> bool {
        let Some(cache) = self.cache.get() else {
            return true;
        };
        let fresh = TraversalCache::build(&self.table.nodes);
        let bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        cache.preorder == fresh.preorder
            && cache.parent == fresh.parent
            && cache.pre_index == fresh.pre_index
            && cache.subtree_end == fresh.subtree_end
            && bits(&cache.branch_r, &fresh.branch_r)
            && bits(&cache.branch_c, &fresh.branch_c)
            && bits(&cache.node_cap, &fresh.node_cap)
    }

    /// Rebuilds every piece of derived state (the traversal cache) from the
    /// node table, from scratch.
    ///
    /// The returned tree is structurally identical to `self`
    /// (`rebuilt == *self` under [`PartialEq`], which compares node tables
    /// only) but carries freshly recomputed prefix sums, built eagerly
    /// whether or not `self` had built its own.  This is the
    /// rebuild-and-rerun oracle against which the incremental engine
    /// ([`crate::incremental`]) is validated and benchmarked.
    pub fn rebuild(&self) -> RcTree {
        let table = self.table.clone();
        let cache = OnceLock::from(TraversalCache::build(&table.nodes));
        RcTree { table, cache }
    }

    /// The input (root) node where the step excitation is applied.
    pub fn input(&self) -> NodeId {
        NodeId::INPUT
    }

    /// Number of nodes in the tree, including the input.
    pub fn node_count(&self) -> usize {
        self.table.nodes.len()
    }

    /// Number of branches (elements) in the tree.
    pub fn branch_count(&self) -> usize {
        self.node_count().saturating_sub(1)
    }

    /// Iterator over all node ids, input first, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over the node ids marked as outputs.
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.output)
            .map(|(i, _)| NodeId(i))
    }

    /// Returns the name of a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn name(&self, node: NodeId) -> Result<&str> {
        self.check(node)?;
        Ok(self.table.name(node.0))
    }

    /// Looks up a node by name, in expected `O(1)` time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NameNotFound`] if no node has the given name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId> {
        self.table
            .find(name)
            .map(NodeId)
            .ok_or_else(|| CoreError::NameNotFound {
                name: name.to_string(),
            })
    }

    /// Returns the parent of a node, or `None` for the input node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn parent(&self, node: NodeId) -> Result<Option<NodeId>> {
        Ok(self.data(node)?.parent)
    }

    /// Returns the branch element connecting a node to its parent, or `None`
    /// for the input node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn branch(&self, node: NodeId) -> Result<Option<Branch>> {
        Ok(self.data(node)?.branch)
    }

    /// Returns the lumped grounded capacitance attached at a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn capacitance(&self, node: NodeId) -> Result<Farads> {
        Ok(self.data(node)?.cap)
    }

    /// Returns an iterator over the children of a node in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn children(&self, node: NodeId) -> Result<Children<'_>> {
        Ok(Children {
            nodes: &self.table.nodes,
            next: self.data(node)?.first_child,
        })
    }

    /// Returns `true` if the node is marked as an output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn is_output(&self, node: NodeId) -> Result<bool> {
        Ok(self.data(node)?.output)
    }

    /// Total capacitance of the network: all lumped node capacitors plus the
    /// distributed capacitance of every line (the quantity `C_T` of
    /// Section IV).
    pub fn total_capacitance(&self) -> Farads {
        let nodes = &self.table.nodes;
        let lumped: Farads = nodes.iter().map(|n| n.cap).sum();
        let distributed: Farads = nodes
            .iter()
            .filter_map(|n| n.branch.as_ref())
            .map(|b| b.capacitance())
            .sum();
        lumped + distributed
    }

    /// Total series resistance of all branches in the tree.
    pub fn total_resistance(&self) -> Ohms {
        self.table
            .nodes
            .iter()
            .filter_map(|n| n.branch.as_ref())
            .map(|b| b.resistance())
            .sum()
    }

    /// The unique path from the input to `node`, inclusive of both ends.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn path_from_input(&self, node: NodeId) -> Result<Vec<NodeId>> {
        self.check(node)?;
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            path.push(id);
            cur = self.table.nodes[id.0].parent;
        }
        path.reverse();
        Ok(path)
    }

    /// Resistance of the unique path between the input and `node`
    /// (the quantity `R_kk` of Section III for `k = node`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn resistance_from_input(&self, node: NodeId) -> Result<Ohms> {
        self.check(node)?;
        Ok(Ohms::new(self.traversal().path_r[node.0]))
    }

    /// Depth of a node (number of branches between it and the input).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn depth(&self, node: NodeId) -> Result<usize> {
        Ok(self.path_from_input(node)?.len() - 1)
    }

    /// Iterates over the node ids in depth-first pre-order starting at the
    /// input, children in insertion order.  Allocates nothing and does not
    /// build the traversal cache.
    pub fn preorder_iter(&self) -> Preorder<'_> {
        Preorder::new(&self.table.nodes)
    }

    /// Returns the node ids in depth-first pre-order starting at the input
    /// (the order of [`RcTree::preorder_iter`], collected).
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_iter().collect()
    }

    /// Returns the node ids in depth-first post-order (children before
    /// parents), ending at the input.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = self.preorder();
        order.reverse();
        order
    }

    /// Lowest common ancestor of two nodes — the node at which the unique
    /// paths from the input to `a` and to `b` diverge.
    ///
    /// The resistance of the common path, `R_ab` in the paper's notation, is
    /// exactly `resistance_from_input(lca(a, b))`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let pa = self.path_from_input(a)?;
        let pb = self.path_from_input(b)?;
        let mut lca = NodeId::INPUT;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                lca = *x;
            } else {
                break;
            }
        }
        Ok(lca)
    }

    /// Returns `true` if `descendant` lies in the subtree rooted at
    /// `ancestor` (a node is its own descendant).
    ///
    /// `O(1)` via the cached pre-order subtree intervals: `descendant` is in
    /// the subtree of `ancestor` exactly when its pre-order position falls
    /// inside `ancestor`'s interval.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn is_descendant(&self, descendant: NodeId, ancestor: NodeId) -> Result<bool> {
        self.check(ancestor)?;
        self.check(descendant)?;
        let cache = self.traversal();
        let (start, end) = cache.interval(ancestor.0);
        let pos = cache.pre_index[descendant.0] as usize;
        Ok(start <= pos && pos < end)
    }

    /// Number of nodes in the subtree rooted at `node`, including `node`
    /// itself (`O(1)` via the cached pre-order subtree intervals).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_size(&self, node: NodeId) -> Result<usize> {
        self.check(node)?;
        let (start, end) = self.traversal().interval(node.0);
        Ok(end - start)
    }

    /// Total capacitance in the subtree rooted at `node` (its own lumped
    /// capacitance, the full distributed capacitance of branches *below* it,
    /// and all descendant node capacitances).  The branch connecting `node`
    /// to its parent is **not** included.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_capacitance(&self, node: NodeId) -> Result<Farads> {
        self.check(node)?;
        Ok(Farads::new(self.traversal().down_cap[node.0]))
    }

    pub(crate) fn data(&self, node: NodeId) -> Result<&NodeData> {
        self.table
            .nodes
            .get(node.0)
            .ok_or(CoreError::NodeNotFound { node })
    }

    pub(crate) fn check(&self, node: NodeId) -> Result<()> {
        if node.0 < self.node_count() {
            Ok(())
        } else {
            Err(CoreError::NodeNotFound { node })
        }
    }
}

impl fmt::Display for RcTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RcTree: {} nodes, {} branches, C_total = {}",
            self.node_count(),
            self.branch_count(),
            self.total_capacitance()
        )?;
        for id in self.preorder_iter() {
            let n = &self.table.nodes[id.0];
            let indent = self.depth(id).unwrap_or(0);
            let name = self.table.name(id.0);
            write!(f, "{:indent$}{name} ({id})", "", indent = indent * 2)?;
            if let Some(branch) = &n.branch {
                match branch {
                    Branch::Resistor { resistance } => write!(f, " -- R {resistance}")?,
                    Branch::Line {
                        resistance,
                        capacitance,
                    } => write!(f, " -- URC {resistance}, {capacitance}")?,
                }
            }
            if !n.cap.is_zero() {
                write!(f, " [C {}]", n.cap)?;
            }
            if n.output {
                write!(f, " <output>")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::RcTreeBuilder;
    use crate::units::{Farads, Ohms};

    use super::*;

    /// The network of Figure 3: R1–R2 to the branching node, then R5 to the
    /// output e and R3–R4 to node k.
    fn fig3() -> (RcTree, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let n1 = b
            .add_resistor(b.input(), "after_r1", Ohms::new(1.0))
            .unwrap();
        let n2 = b.add_resistor(n1, "after_r2", Ohms::new(2.0)).unwrap();
        let n3 = b.add_resistor(n2, "after_r3", Ohms::new(3.0)).unwrap();
        let k = b.add_resistor(n3, "k", Ohms::new(4.0)).unwrap();
        let e = b.add_resistor(n2, "e", Ohms::new(5.0)).unwrap();
        b.add_capacitance(k, Farads::new(1.0)).unwrap();
        b.add_capacitance(e, Farads::new(1.0)).unwrap();
        b.mark_output(e).unwrap();
        (b.build().unwrap(), k, e)
    }

    #[test]
    fn figure3_path_resistances() {
        let (tree, k, e) = fig3();
        // R_kk = R1 + R2 + R3 + R4 ... careful: the paper's Figure 3 node k is
        // after R3 only; here we check the general machinery instead.
        assert_eq!(tree.resistance_from_input(e).unwrap(), Ohms::new(8.0));
        assert_eq!(tree.resistance_from_input(k).unwrap(), Ohms::new(10.0));
        let lca = tree.lowest_common_ancestor(k, e).unwrap();
        assert_eq!(tree.resistance_from_input(lca).unwrap(), Ohms::new(3.0));
    }

    #[test]
    fn lca_with_self_and_root() {
        let (tree, k, e) = fig3();
        assert_eq!(tree.lowest_common_ancestor(e, e).unwrap(), e);
        assert_eq!(
            tree.lowest_common_ancestor(tree.input(), k).unwrap(),
            tree.input()
        );
    }

    #[test]
    fn descendant_relationships() {
        let (tree, k, e) = fig3();
        assert!(tree.is_descendant(k, tree.input()).unwrap());
        assert!(tree.is_descendant(e, e).unwrap());
        assert!(!tree.is_descendant(e, k).unwrap());
    }

    #[test]
    fn totals_and_counts() {
        let (tree, _, _) = fig3();
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.branch_count(), 5);
        assert_eq!(tree.total_capacitance(), Farads::new(2.0));
        assert_eq!(tree.total_resistance(), Ohms::new(15.0));
    }

    #[test]
    fn outputs_iterator() {
        let (tree, _, e) = fig3();
        let outs: Vec<_> = tree.outputs().collect();
        assert_eq!(outs, vec![e]);
        assert!(tree.is_output(e).unwrap());
    }

    #[test]
    fn preorder_visits_every_node_once() {
        let (tree, _, _) = fig3();
        let order = tree.preorder();
        assert_eq!(order.len(), tree.node_count());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), tree.node_count());
        assert_eq!(order[0], tree.input());
    }

    #[test]
    fn children_keep_insertion_order() {
        let (tree, k, e) = fig3();
        let branching = tree.node_by_name("after_r2").unwrap();
        let n3 = tree.node_by_name("after_r3").unwrap();
        let children: Vec<_> = tree.children(branching).unwrap().collect();
        assert_eq!(children, vec![n3, e]);
        assert_eq!(tree.children(k).unwrap().next(), None);
        let order: Vec<_> = tree.preorder_iter().collect();
        assert_eq!(order, tree.preorder());
        assert_eq!(order.iter().position(|&id| id == k), Some(4));
        assert_eq!(*order.last().unwrap(), e);
    }

    #[test]
    fn traversal_cache_is_built_on_first_use() {
        let (tree, k, _) = fig3();
        let copy = tree.clone();
        let walked = copy.preorder_iter().count();
        let _ = copy.children(k).unwrap().count();
        let _ = copy.node_by_name("k").unwrap();
        assert_eq!(walked, copy.node_count());
        assert!(copy.cache.get().is_none(), "walks need no cache");
        assert_eq!(copy.subtree_size(k).unwrap(), 1);
        assert!(copy.cache.get().is_some(), "the first query builds it");
        assert!(copy.clone().cache.get().is_some(), "a clone keeps it");
        assert!(tree.rebuild().cache.get().is_some(), "rebuild builds it");
    }

    #[test]
    fn postorder_ends_at_input() {
        let (tree, _, _) = fig3();
        let order = tree.postorder();
        assert_eq!(*order.last().unwrap(), tree.input());
    }

    #[test]
    fn subtree_capacitance_counts_descendants() {
        let (tree, k, e) = fig3();
        assert_eq!(tree.subtree_capacitance(k).unwrap(), Farads::new(1.0));
        assert_eq!(tree.subtree_capacitance(e).unwrap(), Farads::new(1.0));
        assert_eq!(
            tree.subtree_capacitance(tree.input()).unwrap(),
            Farads::new(2.0)
        );
    }

    #[test]
    fn name_lookup_round_trips() {
        let (tree, k, _) = fig3();
        assert_eq!(tree.node_by_name("k").unwrap(), k);
        assert_eq!(tree.name(k).unwrap(), "k");
        assert!(matches!(
            tree.node_by_name("nope"),
            Err(CoreError::NameNotFound { .. })
        ));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let (tree, _, _) = fig3();
        let bogus = NodeId(999);
        assert!(matches!(
            tree.capacitance(bogus),
            Err(CoreError::NodeNotFound { .. })
        ));
        assert!(matches!(
            tree.path_from_input(bogus),
            Err(CoreError::NodeNotFound { .. })
        ));
    }

    #[test]
    fn display_renders_structure() {
        let (tree, _, _) = fig3();
        let text = tree.to_string();
        assert!(text.contains("RcTree"));
        assert!(text.contains("<output>"));
        assert!(text.contains("after_r1"));
    }

    #[test]
    fn cached_subtree_capacitance_matches_explicit_walk() {
        // The cached post-order accumulation must agree with a naive
        // stack-based walk over the node table.
        let (tree, _, _) = fig3();
        for id in tree.node_ids() {
            let mut total = Farads::ZERO;
            let mut stack = vec![id];
            while let Some(cur) = stack.pop() {
                total += tree.capacitance(cur).unwrap();
                for child in tree.children(cur).unwrap() {
                    if let Some(branch) = tree.branch(child).unwrap() {
                        total += branch.capacitance();
                    }
                    stack.push(child);
                }
            }
            assert_eq!(tree.subtree_capacitance(id).unwrap(), total);
        }
    }

    #[test]
    fn cached_path_resistance_matches_explicit_walk() {
        let (tree, _, _) = fig3();
        for id in tree.node_ids() {
            let mut total = Ohms::ZERO;
            let mut cur = id;
            while let Some(parent) = tree.parent(cur).unwrap() {
                if let Some(branch) = tree.branch(cur).unwrap() {
                    total += branch.resistance();
                }
                cur = parent;
            }
            assert_eq!(tree.resistance_from_input(id).unwrap(), total);
        }
    }

    #[test]
    fn equality_ignores_the_derived_cache() {
        let (a, _, _) = fig3();
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_reproduces_the_tree_and_its_cache() {
        let (tree, k, e) = fig3();
        let rebuilt = tree.rebuild();
        assert_eq!(rebuilt, tree);
        assert_eq!(rebuilt.traversal().preorder, tree.traversal().preorder);
        assert_eq!(
            rebuilt.traversal().subtree_end,
            tree.traversal().subtree_end
        );
        assert!(tree.cache_matches_rebuild());
        assert_eq!(
            rebuilt.resistance_from_input(k).unwrap(),
            tree.resistance_from_input(k).unwrap()
        );
        assert_eq!(
            rebuilt.subtree_capacitance(e).unwrap(),
            tree.subtree_capacitance(e).unwrap()
        );
    }

    #[test]
    fn subtree_intervals_agree_with_parent_walks() {
        let (tree, _, _) = fig3();
        // Interval-based descendant test must agree with a naive parent walk
        // for every node pair.
        for a in tree.node_ids() {
            for d in tree.node_ids() {
                let mut walk = false;
                let mut cur = Some(d);
                while let Some(id) = cur {
                    if id == a {
                        walk = true;
                        break;
                    }
                    cur = tree.parent(id).unwrap();
                }
                assert_eq!(tree.is_descendant(d, a).unwrap(), walk, "{d} under {a}");
            }
            // Subtree size equals the number of interval-descendants.
            let count = tree
                .node_ids()
                .filter(|&d| tree.is_descendant(d, a).unwrap())
                .count();
            assert_eq!(tree.subtree_size(a).unwrap(), count);
        }
        assert_eq!(tree.subtree_size(tree.input()).unwrap(), tree.node_count());
        assert!(matches!(
            tree.subtree_size(NodeId(999)),
            Err(CoreError::NodeNotFound { .. })
        ));
    }
}
