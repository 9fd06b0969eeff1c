//! The three characteristic times `T_P`, `T_De`, `T_Re` of an RC tree.
//!
//! Section III of the paper defines, for an output node `e` and capacitors
//! `k` of capacitance `C_k`:
//!
//! ```text
//! T_De = Σ_k R_ke · C_k                (Eq. 1 — the Elmore delay of output e)
//! T_P  = Σ_k R_kk · C_k                (Eq. 5 — identical for every output)
//! T_Re = ( Σ_k R_ke² · C_k ) / R_ee    (Eq. 6)
//! ```
//!
//! with `T_Re ≤ T_De ≤ T_P` (Eq. 7).  For RC trees that contain uniform
//! distributed lines the sums become integrals over the line capacitance;
//! the closed forms used here are derived in the module documentation of
//! [`crate::element`].
//!
//! Two independent algorithms are provided:
//!
//! * [`characteristic_times_direct`] — the straightforward "compute `R_ke`
//!   and `R_kk` for every capacitor" method of Section IV, whose cost per
//!   output is proportional to the number of elements times the tree depth
//!   (quadratic for a chain, as the paper notes);
//! * [`characteristic_times`] — a single-traversal method whose cost per
//!   output is linear in the number of elements, matching the complexity of
//!   the paper's constructive algorithm while working on an explicit tree
//!   rather than a wiring expression.
//!
//! The two must agree to floating-point accuracy; the test-suite and the
//! `algorithm_equivalence` integration tests enforce this, and the
//! [`crate::twoport`] algebra provides a third independent implementation
//! for chain-expressible networks.

use crate::error::{CoreError, Result};
use crate::resistance::shared_resistances_to;
use crate::tree::{NodeId, RcTree};
use crate::units::{Farads, Ohms, Seconds};

/// The three characteristic times of one output of an RC tree, together with
/// the path resistance `R_ee` used to normalize `T_Re`.
///
/// This is the complete "signature" from which every Penfield–Rubinstein
/// bound is evaluated (see [`crate::bounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacteristicTimes {
    /// `T_P = Σ R_kk C_k`: identical for every output of the tree.
    pub t_p: Seconds,
    /// `T_De = Σ R_ke C_k`: the Elmore delay of this output.
    pub t_d: Seconds,
    /// `T_Re = Σ R_ke² C_k / R_ee`: the rise-time constant of this output.
    pub t_r: Seconds,
    /// `R_ee`: resistance of the unique path between input and output.
    pub r_ee: Ohms,
    /// Total capacitance of the network (`C_T` of Section IV).
    pub total_cap: Farads,
}

impl CharacteristicTimes {
    /// Builds a signature from raw values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidValue`] if any quantity is negative or not
    /// finite.
    pub fn new(
        t_p: Seconds,
        t_d: Seconds,
        t_r: Seconds,
        r_ee: Ohms,
        total_cap: Farads,
    ) -> Result<Self> {
        for (what, v) in [
            ("T_P", t_p.value()),
            ("T_D", t_d.value()),
            ("T_R", t_r.value()),
            ("R_ee", r_ee.value()),
            ("C_T", total_cap.value()),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidValue { what, value: v });
            }
        }
        Ok(CharacteristicTimes {
            t_p,
            t_d,
            t_r,
            r_ee,
            total_cap,
        })
    }

    /// The Elmore delay `T_De` (first moment of the impulse response).
    pub fn elmore_delay(&self) -> Seconds {
        self.t_d
    }

    /// Checks the paper's Eq. (7) ordering `T_Re ≤ T_De ≤ T_P`, with a small
    /// relative tolerance for floating-point rounding.
    pub fn satisfies_ordering(&self) -> bool {
        let tol = 1e-9 * self.t_p.value().max(1e-300);
        self.t_r.value() <= self.t_d.value() + tol && self.t_d.value() <= self.t_p.value() + tol
    }
}

/// Characteristic times of `output`, computed by the direct per-capacitor
/// method of Section IV ("compute for each capacitor the appropriate `R_ke`
/// and `R_kk`").
///
/// The cost is `O(n · depth)` per output — quadratic in the worst case, as
/// the paper notes — which makes it a useful independent reference for the
/// linear-time methods.
///
/// # Errors
///
/// * [`CoreError::NodeNotFound`] if `output` is not a node of `tree`;
/// * [`CoreError::NoCapacitance`] if the tree carries no capacitance;
/// * [`CoreError::NoPathResistance`] if there is no resistance between the
///   input and `output` (then `T_Re` is undefined).
pub fn characteristic_times_direct(tree: &RcTree, output: NodeId) -> Result<CharacteristicTimes> {
    tree.check(output)?;
    let total_cap = tree.total_capacitance();
    if total_cap.is_zero() {
        return Err(CoreError::NoCapacitance);
    }
    let r_ee = tree.resistance_from_input(output)?;

    let mut t_p = 0.0_f64;
    let mut t_d = 0.0_f64;
    let mut t_r_num = 0.0_f64; // Σ R_ke² C_k

    for k in tree.node_ids() {
        // Lumped capacitor attached at node k.
        let cap = tree.capacitance(k)?.value();
        if cap > 0.0 {
            let r_kk = tree.resistance_from_input(k)?.value();
            let lca = tree.lowest_common_ancestor(k, output)?;
            let r_ke = tree.resistance_from_input(lca)?.value();
            t_p += r_kk * cap;
            t_d += r_ke * cap;
            t_r_num += r_ke * r_ke * cap;
        }

        // Distributed capacitance of the branch parent(k) → k.
        if let Some(branch) = tree.branch(k)? {
            let c_line = branch.capacitance().value();
            if c_line > 0.0 {
                let parent = tree.parent(k)?.expect("non-input node always has a parent");
                let r_parent = tree.resistance_from_input(parent)?.value();
                let r_line = branch.resistance().value();

                // T_P: every slice sees its own upstream resistance.
                t_p += c_line * (r_parent + r_line / 2.0);

                if tree.is_descendant(output, k)? {
                    // Output lies beyond the far end of the line: the common
                    // path includes the portion of the line up to the slice.
                    t_d += c_line * (r_parent + r_line / 2.0);
                    t_r_num +=
                        c_line * (r_parent * r_parent + r_parent * r_line + r_line * r_line / 3.0);
                } else {
                    // Paths diverge at or above the line's driving node.
                    let lca = tree.lowest_common_ancestor(parent, output)?;
                    let r_shared = tree.resistance_from_input(lca)?.value();
                    t_d += c_line * r_shared;
                    t_r_num += c_line * r_shared * r_shared;
                }
            }
        }
    }

    finish(t_p, t_d, t_r_num, r_ee, total_cap, output)
}

/// Characteristic times of `output`, computed in a single linear traversal.
///
/// One depth-first walk labels every node with its shared resistance
/// `R_ke` (see [`shared_resistances_to`]); the three sums then accumulate in
/// one pass over nodes and branches.  The asymptotic cost per output is
/// `O(n)`, matching the paper's constructive algorithm.
///
/// # Errors
///
/// Same conditions as [`characteristic_times_direct`].
pub fn characteristic_times(tree: &RcTree, output: NodeId) -> Result<CharacteristicTimes> {
    tree.check(output)?;
    let total_cap = tree.total_capacitance();
    if total_cap.is_zero() {
        return Err(CoreError::NoCapacitance);
    }
    let r_ee = tree.resistance_from_input(output)?;

    // R_ke for every node k, and R_kk via a prefix pass.
    let shared = shared_resistances_to(tree, output)?;
    let n = tree.node_count();
    let mut r_kk = vec![0.0_f64; n];
    let mut on_path = vec![false; n];
    for id in tree.path_from_input(output)? {
        on_path[id.index()] = true;
    }
    for id in tree.preorder_iter() {
        if let Some(parent) = tree.parent(id)? {
            let r_branch = tree
                .branch(id)?
                .map(|b| b.resistance().value())
                .unwrap_or(0.0);
            r_kk[id.index()] = r_kk[parent.index()] + r_branch;
        }
    }

    let mut t_p = 0.0_f64;
    let mut t_d = 0.0_f64;
    let mut t_r_num = 0.0_f64;

    for id in tree.node_ids() {
        let i = id.index();
        let cap = tree.capacitance(id)?.value();
        if cap > 0.0 {
            let r_ke = shared[i].value();
            t_p += r_kk[i] * cap;
            t_d += r_ke * cap;
            t_r_num += r_ke * r_ke * cap;
        }
        if let Some(branch) = tree.branch(id)? {
            let c_line = branch.capacitance().value();
            if c_line > 0.0 {
                let parent = tree
                    .parent(id)?
                    .expect("non-input node always has a parent");
                let p = parent.index();
                let r_parent = r_kk[p];
                let r_line = branch.resistance().value();
                t_p += c_line * (r_parent + r_line / 2.0);
                if on_path[i] {
                    t_d += c_line * (r_parent + r_line / 2.0);
                    t_r_num +=
                        c_line * (r_parent * r_parent + r_parent * r_line + r_line * r_line / 3.0);
                } else {
                    let r_shared = shared[p].value();
                    t_d += c_line * r_shared;
                    t_r_num += c_line * r_shared * r_shared;
                }
            }
        }
    }

    finish(t_p, t_d, t_r_num, r_ee, total_cap, output)
}

/// Characteristic times of **every marked output** of the tree.
///
/// Returns `(output, times)` pairs in output order.
///
/// Runs on the [`BatchTimes`](crate::batch::BatchTimes) engine: one `O(n)`
/// sweep covers all `m` outputs, instead of the `O(n·m)` cost of calling
/// [`characteristic_times`] once per output.
///
/// # Errors
///
/// * [`CoreError::NoOutputs`] if the tree has no outputs marked;
/// * otherwise the same conditions as [`characteristic_times`].
pub fn characteristic_times_all(tree: &RcTree) -> Result<Vec<(NodeId, CharacteristicTimes)>> {
    if tree.outputs().next().is_none() {
        return Err(CoreError::NoOutputs);
    }
    let batch = crate::batch::BatchTimes::of(tree)?;
    tree.outputs()
        .map(|e| batch.times(e).map(|t| (e, t)))
        .collect()
}

fn finish(
    t_p: f64,
    t_d: f64,
    t_r_num: f64,
    r_ee: Ohms,
    total_cap: Farads,
    output: NodeId,
) -> Result<CharacteristicTimes> {
    let t_r = if t_r_num == 0.0 {
        // No capacitor shares any resistance with the output; T_R is zero
        // regardless of R_ee.
        0.0
    } else {
        if r_ee.is_zero() {
            return Err(CoreError::NoPathResistance { output });
        }
        t_r_num / r_ee.value()
    };
    CharacteristicTimes::new(
        Seconds::new(t_p),
        Seconds::new(t_d),
        Seconds::new(t_r),
        r_ee,
        total_cap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;

    fn single_lump(r: f64, c: f64) -> (RcTree, NodeId) {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(r)).unwrap();
        b.add_capacitance(n, Farads::new(c)).unwrap();
        b.mark_output(n).unwrap();
        (b.build().unwrap(), n)
    }

    #[test]
    fn single_rc_lump_has_equal_times() {
        // One resistor feeding one capacitor: T_P = T_D = T_R = RC.
        let (tree, n) = single_lump(2.0, 3.0);
        let t = characteristic_times(&tree, n).unwrap();
        assert!((t.t_p.value() - 6.0).abs() < 1e-12);
        assert!((t.t_d.value() - 6.0).abs() < 1e-12);
        assert!((t.t_r.value() - 6.0).abs() < 1e-12);
        assert_eq!(t.r_ee, Ohms::new(2.0));
        assert!(t.satisfies_ordering());
    }

    #[test]
    fn single_uniform_line_matches_paper_constants() {
        // Paper, Section III: for a single uniform RC line T_P = T_D = RC/2
        // and T_R = RC/3.
        let mut b = RcTreeBuilder::new();
        let n = b
            .add_line(b.input(), "line", Ohms::new(4.0), Farads::new(6.0))
            .unwrap();
        b.mark_output(n).unwrap();
        let tree = b.build().unwrap();
        let t = characteristic_times(&tree, n).unwrap();
        let rc = 24.0;
        assert!((t.t_p.value() - rc / 2.0).abs() < 1e-12);
        assert!((t.t_d.value() - rc / 2.0).abs() < 1e-12);
        assert!((t.t_r.value() - rc / 3.0).abs() < 1e-12);
    }

    #[test]
    fn chain_without_side_branches_has_td_equal_tp() {
        // "For nonuniform RC lines (i.e., RC trees without side branches)
        // T_De = T_P" — paper, Section III.
        let mut b = RcTreeBuilder::new();
        let n1 = b.add_resistor(b.input(), "n1", Ohms::new(1.0)).unwrap();
        b.add_capacitance(n1, Farads::new(2.0)).unwrap();
        let n2 = b
            .add_line(n1, "n2", Ohms::new(3.0), Farads::new(4.0))
            .unwrap();
        b.add_capacitance(n2, Farads::new(5.0)).unwrap();
        let n3 = b.add_resistor(n2, "n3", Ohms::new(6.0)).unwrap();
        b.add_capacitance(n3, Farads::new(7.0)).unwrap();
        b.mark_output(n3).unwrap();
        let tree = b.build().unwrap();
        let t = characteristic_times(&tree, n3).unwrap();
        assert!((t.t_p.value() - t.t_d.value()).abs() < 1e-9 * t.t_p.value());
        assert!(t.satisfies_ordering());
    }

    #[test]
    fn side_branch_reduces_elmore_delay_below_tp() {
        let mut b = RcTreeBuilder::new();
        let stem = b.add_resistor(b.input(), "stem", Ohms::new(10.0)).unwrap();
        let out = b.add_resistor(stem, "out", Ohms::new(5.0)).unwrap();
        let side = b.add_resistor(stem, "side", Ohms::new(20.0)).unwrap();
        b.add_capacitance(out, Farads::new(1.0)).unwrap();
        b.add_capacitance(side, Farads::new(1.0)).unwrap();
        b.mark_output(out).unwrap();
        let tree = b.build().unwrap();
        let t = characteristic_times(&tree, out).unwrap();
        // Side-branch cap sees only the shared 10 Ω towards `out`.
        assert!((t.t_d.value() - (15.0 + 10.0)).abs() < 1e-12);
        // ... but its own full 30 Ω in T_P.
        assert!((t.t_p.value() - (15.0 + 30.0)).abs() < 1e-12);
        assert!(t.t_d < t.t_p);
        assert!(t.t_r < t.t_d);
    }

    #[test]
    fn direct_and_linear_methods_agree() {
        let mut b = RcTreeBuilder::new();
        let a = b
            .add_line(b.input(), "a", Ohms::new(15.0), Farads::new(1.5))
            .unwrap();
        b.add_capacitance(a, Farads::new(2.0)).unwrap();
        let s1 = b.add_resistor(a, "s1", Ohms::new(8.0)).unwrap();
        b.add_capacitance(s1, Farads::new(7.0)).unwrap();
        let s2 = b
            .add_line(s1, "s2", Ohms::new(2.0), Farads::new(0.5))
            .unwrap();
        b.add_capacitance(s2, Farads::new(0.25)).unwrap();
        let o = b
            .add_line(a, "o", Ohms::new(3.0), Farads::new(4.0))
            .unwrap();
        b.add_capacitance(o, Farads::new(9.0)).unwrap();
        b.mark_output(o).unwrap();
        b.mark_output(s2).unwrap();
        let tree = b.build().unwrap();
        for e in tree.outputs().collect::<Vec<_>>() {
            let fast = characteristic_times(&tree, e).unwrap();
            let slow = characteristic_times_direct(&tree, e).unwrap();
            assert!((fast.t_p.value() - slow.t_p.value()).abs() < 1e-9);
            assert!((fast.t_d.value() - slow.t_d.value()).abs() < 1e-9);
            assert!((fast.t_r.value() - slow.t_r.value()).abs() < 1e-9);
        }
    }

    #[test]
    fn tp_is_identical_across_outputs() {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(4.0)).unwrap();
        let x = b.add_resistor(a, "x", Ohms::new(1.0)).unwrap();
        let y = b.add_resistor(a, "y", Ohms::new(9.0)).unwrap();
        b.add_capacitance(x, Farads::new(2.0)).unwrap();
        b.add_capacitance(y, Farads::new(3.0)).unwrap();
        b.mark_output(x).unwrap();
        b.mark_output(y).unwrap();
        let tree = b.build().unwrap();
        let all = characteristic_times_all(&tree).unwrap();
        assert_eq!(all.len(), 2);
        assert!((all[0].1.t_p.value() - all[1].1.t_p.value()).abs() < 1e-12);
    }

    #[test]
    fn no_capacitance_is_an_error() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.mark_output(n).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(
            characteristic_times(&tree, n),
            Err(CoreError::NoCapacitance)
        ));
    }

    #[test]
    fn output_with_no_path_resistance_is_an_error() {
        // A capacitor elsewhere but zero resistance between input and output.
        let mut b = RcTreeBuilder::new();
        let out = b
            .add_line(b.input(), "out", Ohms::ZERO, Farads::ZERO)
            .unwrap();
        let far = b.add_resistor(b.input(), "far", Ohms::new(5.0)).unwrap();
        b.add_capacitance(far, Farads::new(1.0)).unwrap();
        b.add_capacitance(out, Farads::new(1.0)).unwrap();
        b.mark_output(out).unwrap();
        let tree = b.build().unwrap();
        // Σ R_ke² C_k is zero here (no shared resistance), so T_R is simply 0.
        let t = characteristic_times(&tree, out).unwrap();
        assert_eq!(t.t_r, Seconds::ZERO);
        assert_eq!(t.t_d, Seconds::ZERO);
    }

    #[test]
    fn zero_path_resistance_with_shared_capacitance_errors() {
        // Capacitance at the input itself shares zero resistance; an output
        // connected by a zero-ohm branch to a resistive subtree is fine, but
        // here we force R_ee = 0 with nonzero Σ R_ke² C_k impossible, so we
        // instead check the NoOutputs path of the "all" helper.
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.add_capacitance(n, Farads::new(1.0)).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(
            characteristic_times_all(&tree),
            Err(CoreError::NoOutputs)
        ));
    }

    #[test]
    fn invalid_raw_values_rejected() {
        assert!(CharacteristicTimes::new(
            Seconds::new(-1.0),
            Seconds::ZERO,
            Seconds::ZERO,
            Ohms::ZERO,
            Farads::ZERO
        )
        .is_err());
        assert!(CharacteristicTimes::new(
            Seconds::new(f64::NAN),
            Seconds::ZERO,
            Seconds::ZERO,
            Ohms::ZERO,
            Farads::ZERO
        )
        .is_err());
    }

    #[test]
    fn elmore_delay_accessor() {
        let (tree, n) = single_lump(2.0, 3.0);
        let t = characteristic_times(&tree, n).unwrap();
        assert_eq!(t.elmore_delay(), t.t_d);
    }
}
