//! Wiring-algebra expressions (the notation of Eq. 18).
//!
//! The paper observes that "the topology of any RC tree can be denoted by an
//! expression using only these two functions, `WB` and `WC`" over the `URC`
//! primitive, and that such an expression "can be used as a guide for the
//! calculations".  [`NetworkExpr`] is that expression as an abstract syntax
//! tree.  It can be
//!
//! * **evaluated** directly into a [`TwoPort`] state vector (the paper's
//!   linear-time algorithm), or
//! * **elaborated** into an explicit [`RcTree`] whose designated output is
//!   the far end of the cascade chain, so that the tree-based algorithms and
//!   the exact simulator can analyse exactly the same network.
//!
//! A textual parser/printer for these expressions lives in the
//! `rctree-netlist` crate.
//!
//! ```
//! use rctree_core::expr::NetworkExpr;
//! use rctree_core::units::{Ohms, Farads};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! // Eq. (18): the Figure 7 network.
//! let expr = NetworkExpr::resistor(Ohms::new(15.0))
//!     .cascade(NetworkExpr::capacitor(Farads::new(2.0)))
//!     .cascade(
//!         NetworkExpr::resistor(Ohms::new(8.0))
//!             .cascade(NetworkExpr::capacitor(Farads::new(7.0)))
//!             .side_branch(),
//!     )
//!     .cascade(NetworkExpr::line(Ohms::new(3.0), Farads::new(4.0)))
//!     .cascade(NetworkExpr::capacitor(Farads::new(9.0)));
//!
//! let state = expr.evaluate();
//! let tree = expr.to_tree()?;
//! assert_eq!(tree.total_capacitance(), state.total_cap());
//! # Ok(())
//! # }
//! ```

use crate::builder::RcTreeBuilder;
use crate::error::Result;
use crate::tree::{NodeId, RcTree};
use crate::twoport::TwoPort;
use crate::units::{Farads, Ohms};

/// An RC-tree topology expressed with the paper's `URC`/`WB`/`WC` algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkExpr {
    /// The primitive uniform RC line `URC R,C` (a resistor if `C = 0`, a
    /// capacitor if `R = 0`).
    Urc {
        /// Total series resistance of the line.
        resistance: Ohms,
        /// Total distributed capacitance of the line.
        capacitance: Farads,
    },
    /// Cascade `A WC B`: `B` continues from the far port of `A`.
    Cascade(Box<NetworkExpr>, Box<NetworkExpr>),
    /// Side branch `WB A`: `A` hangs off the point where it is attached and
    /// its far port is left open.
    Branch(Box<NetworkExpr>),
}

impl NetworkExpr {
    /// The primitive `URC R,C`.
    pub fn line(resistance: Ohms, capacitance: Farads) -> Self {
        NetworkExpr::Urc {
            resistance,
            capacitance,
        }
    }

    /// A lumped resistor (`URC R,0`).
    pub fn resistor(resistance: Ohms) -> Self {
        Self::line(resistance, Farads::ZERO)
    }

    /// A lumped grounded capacitor (`URC 0,C`).
    pub fn capacitor(capacitance: Farads) -> Self {
        Self::line(Ohms::ZERO, capacitance)
    }

    /// Cascades `next` onto the far port of `self` (`self WC next`).
    #[must_use]
    pub fn cascade(self, next: NetworkExpr) -> Self {
        NetworkExpr::Cascade(Box::new(self), Box::new(next))
    }

    /// Turns `self` into a side branch (`WB self`).
    #[must_use]
    pub fn side_branch(self) -> Self {
        NetworkExpr::Branch(Box::new(self))
    }

    /// Number of `URC` primitives in the expression.
    pub fn primitive_count(&self) -> usize {
        match self {
            NetworkExpr::Urc { .. } => 1,
            NetworkExpr::Cascade(a, b) => a.primitive_count() + b.primitive_count(),
            NetworkExpr::Branch(a) => a.primitive_count(),
        }
    }

    /// Evaluates the expression with the paper's linear-time constructive
    /// algorithm, yielding the five-component state vector with the far end
    /// of the outermost cascade chain as port 2.
    pub fn evaluate(&self) -> TwoPort {
        match self {
            NetworkExpr::Urc {
                resistance,
                capacitance,
            } => TwoPort::line(*resistance, *capacitance),
            NetworkExpr::Cascade(a, b) => a.evaluate().cascade(b.evaluate()),
            NetworkExpr::Branch(a) => a.evaluate().into_side_branch(),
        }
    }

    /// Elaborates the expression into an explicit [`RcTree`].
    ///
    /// The far end of the outermost cascade chain is marked as the tree's
    /// output, matching the "port 2" convention of [`Self::evaluate`].
    /// Primitive lines with zero resistance become lumped node capacitors;
    /// lines with zero capacitance become lumped resistors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTree`](crate::error::CoreError::EmptyTree)
    /// if the expression contains no non-trivial element, or
    /// [`CoreError::InvalidValue`](crate::error::CoreError::InvalidValue) if
    /// a primitive holds a negative or non-finite value.
    pub fn to_tree(&self) -> Result<RcTree> {
        let mut builder = RcTreeBuilder::new();
        let mut counter = 0_usize;
        let input = builder.input();
        let output = self.elaborate(&mut builder, input, &mut counter)?;
        builder.mark_output(output)?;
        builder.build()
    }

    fn elaborate(
        &self,
        builder: &mut RcTreeBuilder,
        attach: NodeId,
        counter: &mut usize,
    ) -> Result<NodeId> {
        match self {
            NetworkExpr::Urc {
                resistance,
                capacitance,
            } => {
                if resistance.is_zero() {
                    // Pure capacitor: attach at the current node, port 2 stays.
                    if !capacitance.is_zero() {
                        builder.add_capacitance(attach, *capacitance)?;
                    }
                    Ok(attach)
                } else if capacitance.is_zero() {
                    *counter += 1;
                    builder.add_resistor(attach, format!("n{counter}"), *resistance)
                } else {
                    *counter += 1;
                    builder.add_line(attach, format!("n{counter}"), *resistance, *capacitance)
                }
            }
            NetworkExpr::Cascade(a, b) => {
                let mid = a.elaborate(builder, attach, counter)?;
                b.elaborate(builder, mid, counter)
            }
            NetworkExpr::Branch(a) => {
                a.elaborate(builder, attach, counter)?;
                Ok(attach)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::characteristic_times;

    fn fig7_expr() -> NetworkExpr {
        NetworkExpr::resistor(Ohms::new(15.0))
            .cascade(NetworkExpr::capacitor(Farads::new(2.0)))
            .cascade(
                NetworkExpr::resistor(Ohms::new(8.0))
                    .cascade(NetworkExpr::capacitor(Farads::new(7.0)))
                    .side_branch(),
            )
            .cascade(NetworkExpr::line(Ohms::new(3.0), Farads::new(4.0)))
            .cascade(NetworkExpr::capacitor(Farads::new(9.0)))
    }

    #[test]
    fn primitive_count_counts_urcs() {
        assert_eq!(fig7_expr().primitive_count(), 6);
        assert_eq!(NetworkExpr::resistor(Ohms::new(1.0)).primitive_count(), 1);
    }

    #[test]
    fn evaluate_and_tree_agree_on_figure7() {
        let expr = fig7_expr();
        let state = expr.evaluate();
        let tree = expr.to_tree().unwrap();
        let output = tree.outputs().next().expect("one output");
        let t_tree = characteristic_times(&tree, output).unwrap();
        let t_expr = state.characteristic_times().unwrap();
        assert!((t_tree.t_p.value() - t_expr.t_p.value()).abs() < 1e-9);
        assert!((t_tree.t_d.value() - t_expr.t_d.value()).abs() < 1e-9);
        assert!((t_tree.t_r.value() - t_expr.t_r.value()).abs() < 1e-9);
        assert_eq!(t_tree.r_ee, t_expr.r_ee);
        assert_eq!(tree.total_capacitance(), state.total_cap());
    }

    #[test]
    fn evaluate_and_tree_agree_on_deep_chain_with_branches() {
        // A longer synthetic expression exercising nested branches.
        let mut expr = NetworkExpr::resistor(Ohms::new(10.0));
        for i in 1..=20 {
            let seg = NetworkExpr::line(Ohms::new(1.0 + i as f64), Farads::new(0.5));
            let side = NetworkExpr::resistor(Ohms::new(2.0 * i as f64))
                .cascade(NetworkExpr::capacitor(Farads::new(0.3)))
                .side_branch();
            expr = expr.cascade(seg).cascade(side);
        }
        expr = expr.cascade(NetworkExpr::capacitor(Farads::new(1.0)));

        let state = expr.evaluate();
        let tree = expr.to_tree().unwrap();
        let output = tree.outputs().next().unwrap();
        let t_tree = characteristic_times(&tree, output).unwrap();
        let t_expr = state.characteristic_times().unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        assert!(rel(t_tree.t_p.value(), t_expr.t_p.value()) < 1e-12);
        assert!(rel(t_tree.t_d.value(), t_expr.t_d.value()) < 1e-12);
        assert!(rel(t_tree.t_r.value(), t_expr.t_r.value()) < 1e-12);
    }

    #[test]
    fn branch_keeps_port_at_attachment_point() {
        // input --R-- a, with a side branch hanging off `a`; output is `a`.
        let expr = NetworkExpr::resistor(Ohms::new(5.0))
            .cascade(
                NetworkExpr::resistor(Ohms::new(100.0))
                    .cascade(NetworkExpr::capacitor(Farads::new(1.0)))
                    .side_branch(),
            )
            .cascade(NetworkExpr::capacitor(Farads::new(2.0)));
        let tree = expr.to_tree().unwrap();
        let output = tree.outputs().next().unwrap();
        assert_eq!(tree.resistance_from_input(output).unwrap(), Ohms::new(5.0));
        // 3 nodes: input, a, side; the two capacitors are lumped on nodes.
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn capacitor_only_expression_builds() {
        let expr = NetworkExpr::capacitor(Farads::new(1.0));
        let tree = expr.to_tree().unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.total_capacitance(), Farads::new(1.0));
    }

    #[test]
    fn zero_element_is_noop_in_tree() {
        let expr = NetworkExpr::line(Ohms::ZERO, Farads::ZERO)
            .cascade(NetworkExpr::capacitor(Farads::new(1.0)));
        let tree = expr.to_tree().unwrap();
        assert_eq!(tree.node_count(), 1);
    }
}
