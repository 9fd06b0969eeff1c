//! Whole-tree delay analysis: every output, one report.
//!
//! [`TreeAnalysis`] bundles the characteristic times of every marked output
//! of an [`RcTree`] and offers the three use-cases listed in the paper's
//! abstract: bound the delay given a threshold, bound the voltage given a
//! time, and certify a network against a timing budget.
//!
//! ```
//! use rctree_core::analysis::TreeAnalysis;
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::units::{Ohms, Farads, Seconds};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! let mut b = RcTreeBuilder::new();
//! let a = b.add_resistor(b.input(), "a", Ohms::new(100.0))?;
//! let x = b.add_resistor(a, "x", Ohms::new(50.0))?;
//! let y = b.add_resistor(a, "y", Ohms::new(200.0))?;
//! b.add_capacitance(x, Farads::from_pico(0.1))?;
//! b.add_capacitance(y, Farads::from_pico(0.2))?;
//! b.mark_output(x)?;
//! b.mark_output(y)?;
//! let tree = b.build()?;
//!
//! let analysis = TreeAnalysis::of(&tree)?;
//! let worst = analysis.worst_delay_upper_bound(0.9)?;
//! assert!(worst.value() > 0.0);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::batch::BatchTimes;
use crate::bounds::{DelayBounds, VoltageBounds};
use crate::cert::Certification;
use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::tree::{NodeId, RcTree};
use crate::units::Seconds;

/// Timing signature of one output node.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTiming {
    /// The output node.
    pub node: NodeId,
    /// The node's name in the tree.
    pub name: String,
    /// The three characteristic times of this output.
    pub times: CharacteristicTimes,
}

/// Per-output characteristic times for a whole tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeAnalysis {
    outputs: Vec<OutputTiming>,
    /// Output node → position in `outputs`, for `O(1)` lookup (derived
    /// from `outputs`).
    by_node: HashMap<NodeId, usize>,
    /// Output name → position in `outputs`, for `O(1)` lookup (derived;
    /// see `by_node`).
    by_name: HashMap<String, usize>,
}

impl TreeAnalysis {
    /// Analyses every marked output of `tree`.
    ///
    /// Runs on the [`BatchTimes`] engine: the whole analysis is `O(n)` in
    /// the tree size regardless of how many outputs are marked, rather than
    /// one linear traversal per output.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoOutputs`] if the tree has no outputs marked;
    /// * the errors of [`BatchTimes::of`] for degenerate networks.
    pub fn of(tree: &RcTree) -> Result<Self> {
        if tree.outputs().next().is_none() {
            return Err(CoreError::NoOutputs);
        }
        let batch = BatchTimes::of(tree)?;
        let mut outputs = Vec::new();
        let mut by_node = HashMap::new();
        let mut by_name = HashMap::new();
        for node in tree.outputs() {
            let name = tree.name(node)?.to_string();
            by_node.insert(node, outputs.len());
            by_name.insert(name.clone(), outputs.len());
            outputs.push(OutputTiming {
                node,
                name,
                times: batch.times(node)?,
            });
        }
        Ok(TreeAnalysis {
            outputs,
            by_node,
            by_name,
        })
    }

    /// The analysed outputs, in the tree's output order.
    pub fn outputs(&self) -> &[OutputTiming] {
        &self.outputs
    }

    /// Number of analysed outputs.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Returns `true` if there are no analysed outputs (never the case for a
    /// successfully constructed analysis).
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Timing signature of a specific output node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAnOutput`] if `node` was not among the
    /// analysed outputs.
    pub fn output(&self, node: NodeId) -> Result<&OutputTiming> {
        self.by_node
            .get(&node)
            .map(|&i| &self.outputs[i])
            .ok_or(CoreError::NotAnOutput { node })
    }

    /// Timing signature of an output looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NameNotFound`] if no analysed output has that
    /// name.
    pub fn output_by_name(&self, name: &str) -> Result<&OutputTiming> {
        self.by_name
            .get(name)
            .map(|&i| &self.outputs[i])
            .ok_or_else(|| CoreError::NameNotFound {
                name: name.to_string(),
            })
    }

    /// The output with the largest Elmore delay.
    pub fn critical_output(&self) -> &OutputTiming {
        self.outputs
            .iter()
            .max_by(|a, b| a.times.t_d.value().total_cmp(&b.times.t_d.value()))
            .expect("analysis always has at least one output")
    }

    /// Delay bounds at a specific output for a threshold voltage.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::NotAnOutput`] and threshold validation errors.
    pub fn delay_bounds(&self, node: NodeId, threshold: f64) -> Result<DelayBounds> {
        self.output(node)?.times.delay_bounds(threshold)
    }

    /// Voltage bounds at a specific output for a given time.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::NotAnOutput`] and time validation errors.
    pub fn voltage_bounds(&self, node: NodeId, t: Seconds) -> Result<VoltageBounds> {
        self.output(node)?.times.voltage_bounds(t)
    }

    /// The largest delay *upper* bound across all outputs — the guaranteed
    /// worst-case settling time of the whole net to the given threshold.
    ///
    /// # Errors
    ///
    /// Propagates threshold validation errors.
    pub fn worst_delay_upper_bound(&self, threshold: f64) -> Result<Seconds> {
        let mut worst = Seconds::ZERO;
        for o in &self.outputs {
            worst = worst.max(o.times.delay_upper_bound(threshold)?);
        }
        Ok(worst)
    }

    /// The largest delay *lower* bound across all outputs.
    ///
    /// # Errors
    ///
    /// Propagates threshold validation errors.
    pub fn worst_delay_lower_bound(&self, threshold: f64) -> Result<Seconds> {
        let mut worst = Seconds::ZERO;
        for o in &self.outputs {
            worst = worst.max(o.times.delay_lower_bound(threshold)?);
        }
        Ok(worst)
    }

    /// Certifies every output against a common budget and combines the
    /// verdicts conservatively (see [`Certification::and`]).
    ///
    /// # Errors
    ///
    /// Propagates threshold and budget validation errors.
    pub fn certify_all(&self, threshold: f64, budget: Seconds) -> Result<Certification> {
        let mut verdict = Certification::Pass;
        for o in &self.outputs {
            verdict = verdict.and(o.times.certify(threshold, budget)?);
        }
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;
    use crate::units::{Farads, Ohms};

    fn two_output_tree() -> (RcTree, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let stem = b.add_resistor(b.input(), "stem", Ohms::new(100.0)).unwrap();
        let fast = b.add_resistor(stem, "fast", Ohms::new(10.0)).unwrap();
        let slow = b.add_resistor(stem, "slow", Ohms::new(400.0)).unwrap();
        b.add_capacitance(fast, Farads::new(1e-12)).unwrap();
        b.add_capacitance(slow, Farads::new(2e-12)).unwrap();
        b.mark_output(fast).unwrap();
        b.mark_output(slow).unwrap();
        (b.build().unwrap(), fast, slow)
    }

    #[test]
    fn analysis_covers_all_outputs() {
        let (tree, fast, slow) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.output(fast).is_ok());
        assert!(a.output(slow).is_ok());
        assert_eq!(a.output_by_name("slow").unwrap().node, slow);
        assert!(a.output_by_name("nope").is_err());
    }

    #[test]
    fn non_output_node_is_rejected() {
        let (tree, _, _) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        let stem = tree.node_by_name("stem").unwrap();
        assert!(matches!(a.output(stem), Err(CoreError::NotAnOutput { .. })));
    }

    #[test]
    fn critical_output_is_the_slow_one() {
        let (tree, _, slow) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        assert_eq!(a.critical_output().node, slow);
    }

    #[test]
    fn worst_bounds_dominate_individual_outputs() {
        let (tree, fast, slow) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        let worst_ub = a.worst_delay_upper_bound(0.9).unwrap();
        let worst_lb = a.worst_delay_lower_bound(0.9).unwrap();
        for node in [fast, slow] {
            let b = a.delay_bounds(node, 0.9).unwrap();
            assert!(b.upper <= worst_ub);
            assert!(b.lower <= worst_lb);
        }
        assert!(worst_lb <= worst_ub);
    }

    #[test]
    fn certify_all_is_conservative() {
        let (tree, _, slow) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        let slow_bounds = a.delay_bounds(slow, 0.9).unwrap();
        // Generous budget: everything passes.
        assert_eq!(
            a.certify_all(0.9, slow_bounds.upper + Seconds::new(1.0))
                .unwrap(),
            Certification::Pass
        );
        // Impossible budget: the slow output definitely fails.
        assert_eq!(
            a.certify_all(0.9, Seconds::new(1e-15)).unwrap(),
            Certification::Fail
        );
    }

    #[test]
    fn voltage_bounds_accessible_per_output() {
        let (tree, fast, _) = two_output_tree();
        let a = TreeAnalysis::of(&tree).unwrap();
        let vb = a.voltage_bounds(fast, Seconds::new(1e-9)).unwrap();
        assert!(vb.lower <= vb.upper);
    }

    #[test]
    fn tree_without_outputs_is_rejected() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.add_capacitance(n, Farads::new(1.0)).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(TreeAnalysis::of(&tree), Err(CoreError::NoOutputs)));
    }
}
