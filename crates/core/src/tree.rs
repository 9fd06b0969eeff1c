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

use std::fmt;

use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::units::{Farads, Ohms};

/// Identifier of a node within one [`RcTree`].
///
/// Node ids are indices into the tree's node table; id 0 is always the input
/// node.  Ids are only meaningful for the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

/// Flattened traversal arrays derived from the node table, built once by
/// [`RcTree::from_nodes`] and shared by every whole-tree algorithm.
///
/// Everything here is redundant with `nodes` — it is a cache, indexed by
/// [`NodeId::index`], that turns the hot traversal loops of
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
        let mut preorder = Vec::with_capacity(n);
        // The walk's stack never holds more than `n` ids; once empty, its
        // buffer is reused for `pre_index`.
        let mut stack = Vec::with_capacity(n);
        stack.push(0u32);
        while let Some(i) = stack.pop() {
            preorder.push(i);
            for &child in nodes[i as usize].children.iter().rev() {
                stack.push(child.0 as u32);
            }
        }

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
            pre_index: stack,
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
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct NodeData {
    /// Human-readable name, unique within the tree.
    pub(crate) name: String,
    /// Parent node; `None` only for the input node.
    pub(crate) parent: Option<NodeId>,
    /// Branch element connecting this node to its parent; `None` only for
    /// the input node.
    pub(crate) branch: Option<Branch>,
    /// Lumped grounded capacitance attached at this node.
    pub(crate) cap: Farads,
    /// Children in insertion order.
    pub(crate) children: Vec<NodeId>,
    /// Whether this node is marked as an output of interest.
    pub(crate) output: bool,
    /// Hash of `name`, kept for the intrusive name index (see
    /// [`name_index`]).
    pub(crate) name_hash: u32,
    /// Next node in the same name-index bucket ([`name_index::NIL`] ends
    /// the chain).
    pub(crate) name_next: u32,
    /// Head of the name-index bucket numbered by this node's index.
    pub(crate) bucket_head: u32,
}

impl NodeData {
    /// A node with no capacitance, children or output mark, not yet linked
    /// into the name index; `name_hash` is [`name_index::hash`] of `name`.
    pub(crate) fn new(
        name: String,
        name_hash: u32,
        parent: Option<NodeId>,
        branch: Option<Branch>,
    ) -> Self {
        NodeData {
            name_hash,
            name,
            parent,
            branch,
            cap: Farads::ZERO,
            children: Vec::new(),
            output: false,
            name_next: name_index::NIL,
            bucket_head: name_index::NIL,
        }
    }
}

/// Equality of the node payload; the name-index links are derived state
/// and do not take part.
impl PartialEq for NodeData {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.parent == other.parent
            && self.branch == other.branch
            && self.cap == other.cap
            && self.children == other.children
            && self.output == other.output
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

    use super::NodeData;

    /// Chain terminator.
    pub(crate) const NIL: u32 = u32::MAX;

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

    /// Rebuilds every link from the names (after nodes were removed).
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

    /// Index of the node called `name`, if any.
    pub(crate) fn find(nodes: &[NodeData], name: &str) -> Option<usize> {
        find_hashed(nodes, name, hash(name))
    }

    /// [`find`] with the name's [`hash`] already at hand.
    pub(crate) fn find_hashed(nodes: &[NodeData], name: &str, name_hash: u32) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        let mut i = nodes[name_hash as usize & mask(nodes.len())].bucket_head;
        while i != NIL {
            let n = &nodes[i as usize];
            if n.name_hash == name_hash && n.name == name {
                return Some(i as usize);
            }
            i = n.name_next;
        }
        None
    }
}

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
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RcTree {
    pub(crate) nodes: Vec<NodeData>,
    /// Flattened traversal arrays derived from `nodes`; rebuilt on
    /// construction, excluded from equality (it is a pure function of the
    /// node table).
    ///
    /// NOTE for restoring the (currently placeholder) `serde` feature: a
    /// plain derived `Deserialize` would leave this cache empty — the impl
    /// must route through [`RcTree::from_nodes`] so the cache is rebuilt,
    /// and recompute each node's `name_hash` and call
    /// [`name_index::relink`], since the hash key is per process.
    #[cfg_attr(feature = "serde", serde(skip))]
    pub(crate) cache: TraversalCache,
}

impl PartialEq for RcTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl RcTree {
    /// Builds a tree from a validated node table, deriving the traversal
    /// cache (the only construction path; used by
    /// [`RcTreeBuilder`](crate::builder::RcTreeBuilder)).
    pub(crate) fn from_nodes(nodes: Vec<NodeData>) -> Self {
        let cache = TraversalCache::build(&nodes);
        RcTree { nodes, cache }
    }

    /// The flattened traversal arrays shared by the whole-tree algorithms.
    pub(crate) fn traversal(&self) -> &TraversalCache {
        &self.cache
    }

    /// Rebuilds every piece of derived state (the traversal cache) from the
    /// node table, from scratch.
    ///
    /// The returned tree is structurally identical to `self`
    /// (`rebuilt == *self` under [`PartialEq`], which compares node tables
    /// only) but carries freshly recomputed prefix sums.  This is the
    /// rebuild-and-rerun oracle against which the incremental engine
    /// ([`crate::incremental`]) is validated and benchmarked.
    pub fn rebuild(&self) -> RcTree {
        RcTree::from_nodes(self.nodes.clone())
    }

    /// The input (root) node where the step excitation is applied.
    pub fn input(&self) -> NodeId {
        NodeId::INPUT
    }

    /// Number of nodes in the tree, including the input.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of branches (elements) in the tree.
    pub fn branch_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Iterator over all node ids, input first, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over the node ids marked as outputs.
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
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
        Ok(&self.data(node)?.name)
    }

    /// Looks up a node by name, in expected `O(1)` time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NameNotFound`] if no node has the given name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId> {
        name_index::find(&self.nodes, name)
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

    /// Returns the children of a node in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn children(&self, node: NodeId) -> Result<&[NodeId]> {
        Ok(&self.data(node)?.children)
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
        let lumped: Farads = self.nodes.iter().map(|n| n.cap).sum();
        let distributed: Farads = self
            .nodes
            .iter()
            .filter_map(|n| n.branch.as_ref())
            .map(|b| b.capacitance())
            .sum();
        lumped + distributed
    }

    /// Total series resistance of all branches in the tree.
    pub fn total_resistance(&self) -> Ohms {
        self.nodes
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
            cur = self.nodes[id.0].parent;
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
        Ok(Ohms::new(self.cache.path_r[node.0]))
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

    /// Returns the node ids in depth-first pre-order starting at the input.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.cache
            .preorder
            .iter()
            .map(|&i| NodeId(i as usize))
            .collect()
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
        let (start, end) = self.cache.interval(ancestor.0);
        let pos = self.cache.pre_index[descendant.0] as usize;
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
        let (start, end) = self.cache.interval(node.0);
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
        Ok(Farads::new(self.cache.down_cap[node.0]))
    }

    pub(crate) fn data(&self, node: NodeId) -> Result<&NodeData> {
        self.nodes
            .get(node.0)
            .ok_or(CoreError::NodeNotFound { node })
    }

    pub(crate) fn check(&self, node: NodeId) -> Result<()> {
        if node.0 < self.nodes.len() {
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
        for id in self.preorder() {
            let n = &self.nodes[id.0];
            let indent = self.path_from_input(id).map(|p| p.len() - 1).unwrap_or(0);
            write!(f, "{:indent$}{} ({})", "", n.name, id, indent = indent * 2)?;
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
                for &child in tree.children(cur).unwrap() {
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
        assert_eq!(rebuilt.preorder(), tree.preorder());
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
