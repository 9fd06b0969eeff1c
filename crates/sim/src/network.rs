//! Lumped RC networks and their MNA matrices.
//!
//! The simulator works on a *lumped* network: grounded capacitors at nodes
//! and resistors between nodes (or between a node and the driven input).
//! An [`RcTree`] is converted into such a network by
//! [`LumpedNetwork::from_tree`], which replaces every distributed uniform RC
//! line by a chain of π-segments (half the segment capacitance at each end
//! of the segment resistance); the approximation error vanishes
//! quadratically in the number of segments.
//!
//! With the input node driven by a known voltage source `u(t)` and all other
//! node voltages collected in the vector `v`, nodal analysis gives
//!
//! ```text
//! C · dv/dt = −G · v + b · u(t)
//! ```
//!
//! where `G` is the (symmetric, weakly diagonally dominant) conductance
//! matrix over the internal nodes, `C` the diagonal capacitance matrix and
//! `b` holds the conductances tying each node to the input.

use std::collections::HashMap;

use rctree_core::element::Branch;
use rctree_core::tree::{NodeId, RcTree};

use crate::error::{Result, SimError};
use crate::matrix::Matrix;

/// One terminal of a resistor inside a [`LumpedNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// The driven input node (the voltage source).
    Input,
    /// An internal node, by index.
    Node(usize),
}

/// A lumped RC network referenced to a single driven input and ground.
#[derive(Debug, Clone)]
pub struct LumpedNetwork {
    node_names: Vec<String>,
    /// Grounded capacitance at each internal node (farads).
    caps: Vec<f64>,
    /// Resistors as (terminal, terminal, resistance in ohms).
    resistors: Vec<(Terminal, Terminal, f64)>,
    /// Mapping from original tree nodes to internal node indices (the input
    /// maps to `None`).
    tree_index: HashMap<NodeId, Option<usize>>,
}

impl LumpedNetwork {
    /// Minimum resistance substituted for exact shorts so that the
    /// conductance matrix stays finite.  Far below any physically meaningful
    /// interconnect resistance.
    pub const SHORT_RESISTANCE: f64 = 1e-9;

    /// Builds an empty network.
    pub fn new() -> Self {
        LumpedNetwork {
            node_names: Vec::new(),
            caps: Vec::new(),
            resistors: Vec::new(),
            tree_index: HashMap::new(),
        }
    }

    /// Adds an internal node with the given name and grounded capacitance,
    /// returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidValue`] if the capacitance is negative or
    /// not finite.
    pub fn add_node(&mut self, name: impl Into<String>, cap: f64) -> Result<usize> {
        if !cap.is_finite() || cap < 0.0 {
            return Err(SimError::InvalidValue {
                what: "node capacitance",
                value: cap,
            });
        }
        self.node_names.push(name.into());
        self.caps.push(cap);
        Ok(self.node_names.len() - 1)
    }

    /// Adds capacitance to an existing node.
    ///
    /// # Errors
    ///
    /// * [`SimError::NodeOutOfRange`] for an unknown node;
    /// * [`SimError::InvalidValue`] for a negative or non-finite value.
    pub fn add_capacitance(&mut self, node: usize, cap: f64) -> Result<()> {
        if node >= self.caps.len() {
            return Err(SimError::NodeOutOfRange {
                index: node,
                len: self.caps.len(),
            });
        }
        if !cap.is_finite() || cap < 0.0 {
            return Err(SimError::InvalidValue {
                what: "node capacitance",
                value: cap,
            });
        }
        self.caps[node] += cap;
        Ok(())
    }

    /// Adds a resistor between two terminals.  A zero resistance is replaced
    /// by [`Self::SHORT_RESISTANCE`].
    ///
    /// # Errors
    ///
    /// * [`SimError::NodeOutOfRange`] for an unknown node terminal;
    /// * [`SimError::InvalidValue`] for a negative or non-finite resistance.
    pub fn add_resistor(&mut self, a: Terminal, b: Terminal, resistance: f64) -> Result<()> {
        if !resistance.is_finite() || resistance < 0.0 {
            return Err(SimError::InvalidValue {
                what: "resistance",
                value: resistance,
            });
        }
        for t in [a, b] {
            if let Terminal::Node(i) = t {
                if i >= self.caps.len() {
                    return Err(SimError::NodeOutOfRange {
                        index: i,
                        len: self.caps.len(),
                    });
                }
            }
        }
        let r = if resistance == 0.0 {
            Self::SHORT_RESISTANCE
        } else {
            resistance
        };
        self.resistors.push((a, b, r));
        Ok(())
    }

    /// Converts an [`RcTree`] into a lumped network, replacing every
    /// distributed line by `segments_per_line` π-segments.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidTimeGrid`] if `segments_per_line` is zero;
    /// * construction errors from invalid element values.
    pub fn from_tree(tree: &RcTree, segments_per_line: usize) -> Result<Self> {
        if segments_per_line == 0 {
            return Err(SimError::InvalidTimeGrid {
                reason: "segments_per_line must be at least 1",
            });
        }
        let mut net = LumpedNetwork::new();
        net.tree_index.insert(tree.input(), None);

        for id in tree.preorder_iter() {
            if id == tree.input() {
                continue;
            }
            let name = tree.name(id)?.to_string();
            let cap = tree.capacitance(id)?.value();
            let parent = tree.parent(id)?.expect("non-input node has a parent");
            let parent_term = match net.tree_index[&parent] {
                None => Terminal::Input,
                Some(i) => Terminal::Node(i),
            };
            let branch = tree.branch(id)?.expect("non-input node has a branch");
            if branch.resistance().is_zero() {
                // A zero-resistance branch ties the node to its parent's
                // potential; merging them avoids introducing numerically
                // stiff "short" resistors.  Capacitance hanging directly on
                // the driven input is absorbed by the ideal source.
                let total_cap = cap + branch.capacitance().value();
                match parent_term {
                    Terminal::Node(p) => net.add_capacitance(p, total_cap)?,
                    Terminal::Input => {}
                }
                net.tree_index.insert(id, net.tree_index[&parent]);
                continue;
            }
            match branch {
                Branch::Resistor { resistance } => {
                    let idx = net.add_node(&name, cap)?;
                    net.add_resistor(parent_term, Terminal::Node(idx), resistance.value())?;
                    net.tree_index.insert(id, Some(idx));
                }
                Branch::Line {
                    resistance,
                    capacitance,
                } => {
                    let s = segments_per_line;
                    let r_seg = resistance.value() / s as f64;
                    let c_seg = capacitance.value() / s as f64;
                    let mut prev = parent_term;
                    // Half of the first segment's capacitance belongs at the
                    // driving node; if that node is the input it is absorbed
                    // by the source and can be dropped.
                    if let Terminal::Node(p) = prev {
                        net.add_capacitance(p, c_seg / 2.0)?;
                    }
                    for seg in 0..s {
                        let is_last = seg + 1 == s;
                        let seg_cap = if is_last {
                            // Far end: half of this segment plus the node's
                            // own lumped capacitance.
                            c_seg / 2.0 + cap
                        } else {
                            // Interior junction: half of this segment plus
                            // half of the next one.
                            c_seg
                        };
                        let seg_name = if is_last {
                            name.clone()
                        } else {
                            format!("{name}__seg{}", seg + 1)
                        };
                        let idx = net.add_node(seg_name, seg_cap)?;
                        net.add_resistor(prev, Terminal::Node(idx), r_seg)?;
                        prev = Terminal::Node(idx);
                        if is_last {
                            net.tree_index.insert(id, Some(idx));
                        }
                    }
                }
            }
        }
        Ok(net)
    }

    /// Number of internal nodes.
    pub fn node_count(&self) -> usize {
        self.caps.len()
    }

    /// Name of an internal node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for an unknown index.
    pub fn node_name(&self, node: usize) -> Result<&str> {
        self.node_names
            .get(node)
            .map(String::as_str)
            .ok_or(SimError::NodeOutOfRange {
                index: node,
                len: self.caps.len(),
            })
    }

    /// Grounded capacitance of every internal node, in node order.
    pub fn capacitances(&self) -> &[f64] {
        &self.caps
    }

    /// The internal node index corresponding to a tree node, or `None` if
    /// the tree node is the input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] if the tree node was not part of
    /// the converted tree.
    pub fn index_of(&self, tree_node: NodeId) -> Result<Option<usize>> {
        self.tree_index
            .get(&tree_node)
            .copied()
            .ok_or(SimError::NodeOutOfRange {
                index: tree_node.index(),
                len: self.caps.len(),
            })
    }

    /// Assembles the conductance matrix `G`, the capacitance vector `C` and
    /// the input-coupling vector `b` of the nodal equations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] if there are no internal nodes.
    pub fn assemble(&self) -> Result<(Matrix, Vec<f64>, Vec<f64>)> {
        let n = self.node_count();
        if n == 0 {
            return Err(SimError::EmptyNetwork);
        }
        let mut g = Matrix::zeros(n, n);
        let mut b = vec![0.0; n];
        for &(t1, t2, r) in &self.resistors {
            let cond = 1.0 / r;
            match (t1, t2) {
                (Terminal::Node(i), Terminal::Node(j)) => {
                    g[(i, i)] += cond;
                    g[(j, j)] += cond;
                    g[(i, j)] -= cond;
                    g[(j, i)] -= cond;
                }
                (Terminal::Input, Terminal::Node(i)) | (Terminal::Node(i), Terminal::Input) => {
                    g[(i, i)] += cond;
                    b[i] += cond;
                }
                (Terminal::Input, Terminal::Input) => {
                    // A resistor from the source to itself carries no
                    // information for the nodal equations.
                }
            }
        }
        Ok((g, self.caps.clone(), b))
    }
}

impl Default for LumpedNetwork {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::builder::RcTreeBuilder;
    use rctree_core::units::{Farads, Ohms};

    #[test]
    fn manual_network_assembles_expected_matrices() {
        let mut net = LumpedNetwork::new();
        let a = net.add_node("a", 1e-12).unwrap();
        let b = net.add_node("b", 2e-12).unwrap();
        net.add_resistor(Terminal::Input, Terminal::Node(a), 100.0)
            .unwrap();
        net.add_resistor(Terminal::Node(a), Terminal::Node(b), 50.0)
            .unwrap();
        let (g, c, bv) = net.assemble().unwrap();
        assert!((g[(0, 0)] - (0.01 + 0.02)).abs() < 1e-15);
        assert!((g[(1, 1)] - 0.02).abs() < 1e-15);
        assert!((g[(0, 1)] + 0.02).abs() < 1e-15);
        assert!(g.is_symmetric(1e-15));
        assert_eq!(c, vec![1e-12, 2e-12]);
        assert!((bv[0] - 0.01).abs() < 1e-15);
        assert_eq!(bv[1], 0.0);
    }

    #[test]
    fn invalid_values_rejected() {
        let mut net = LumpedNetwork::new();
        assert!(net.add_node("x", -1.0).is_err());
        let a = net.add_node("a", 0.0).unwrap();
        assert!(net
            .add_resistor(Terminal::Input, Terminal::Node(a), -5.0)
            .is_err());
        assert!(net
            .add_resistor(Terminal::Input, Terminal::Node(99), 5.0)
            .is_err());
        assert!(net.add_capacitance(99, 1.0).is_err());
        assert!(net.add_capacitance(a, f64::NAN).is_err());
        assert!(net.node_name(99).is_err());
    }

    #[test]
    fn zero_resistance_becomes_a_short() {
        let mut net = LumpedNetwork::new();
        let a = net.add_node("a", 1.0).unwrap();
        net.add_resistor(Terminal::Input, Terminal::Node(a), 0.0)
            .unwrap();
        let (g, _, b) = net.assemble().unwrap();
        assert!(g[(0, 0)] > 1e8);
        assert!(b[0] > 1e8);
    }

    #[test]
    fn empty_network_cannot_assemble() {
        let net = LumpedNetwork::new();
        assert!(matches!(net.assemble(), Err(SimError::EmptyNetwork)));
    }

    fn small_tree() -> RcTree {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(10.0)).unwrap();
        b.add_capacitance(a, Farads::new(1.0)).unwrap();
        let w = b
            .add_line(a, "w", Ohms::new(6.0), Farads::new(3.0))
            .unwrap();
        b.add_capacitance(w, Farads::new(2.0)).unwrap();
        b.mark_output(w).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_tree_preserves_total_capacitance() {
        let tree = small_tree();
        for segs in [1, 3, 10] {
            let net = LumpedNetwork::from_tree(&tree, segs).unwrap();
            let total: f64 = net.capacitances().iter().sum();
            assert!(
                (total - tree.total_capacitance().value()).abs() < 1e-12,
                "segments={segs}"
            );
        }
    }

    #[test]
    fn from_tree_line_discretization_adds_nodes() {
        let tree = small_tree();
        let net1 = LumpedNetwork::from_tree(&tree, 1).unwrap();
        let net4 = LumpedNetwork::from_tree(&tree, 4).unwrap();
        assert_eq!(net1.node_count(), 2);
        assert_eq!(net4.node_count(), 5); // "a" + 3 interior + "w"
        assert!(net4.node_name(1).unwrap().contains("__seg"));
    }

    #[test]
    fn from_tree_tracks_tree_node_indices() {
        let tree = small_tree();
        let net = LumpedNetwork::from_tree(&tree, 4).unwrap();
        assert_eq!(net.index_of(tree.input()).unwrap(), None);
        let w = tree.node_by_name("w").unwrap();
        let idx = net.index_of(w).unwrap().unwrap();
        assert_eq!(net.node_name(idx).unwrap(), "w");
    }

    #[test]
    fn zero_segments_rejected() {
        let tree = small_tree();
        assert!(LumpedNetwork::from_tree(&tree, 0).is_err());
    }

    #[test]
    fn zero_resistance_branch_is_merged_into_parent() {
        // input --R-- a [1F], a --(0 Ω, 2 F line)-- m [3F]: node m collapses
        // onto a, which then carries 1 + 2 + 3 = 6 F.
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(10.0)).unwrap();
        b.add_capacitance(a, Farads::new(1.0)).unwrap();
        let m = b.add_line(a, "m", Ohms::ZERO, Farads::new(2.0)).unwrap();
        b.add_capacitance(m, Farads::new(3.0)).unwrap();
        b.mark_output(m).unwrap();
        let tree = b.build().unwrap();
        let net = LumpedNetwork::from_tree(&tree, 4).unwrap();
        assert_eq!(net.node_count(), 1);
        assert!((net.capacitances()[0] - 6.0).abs() < 1e-12);
        // The merged node maps to the same index as its parent.
        assert_eq!(net.index_of(m).unwrap(), net.index_of(a).unwrap());
    }
}
