//! Branch elements of an RC tree.
//!
//! An RC tree (Section II of the paper) is a resistor tree with grounded
//! capacitors attached to its nodes, in which any resistor may be replaced by
//! a distributed (uniform) RC line.  In this library a *branch* is the series
//! element connecting a node to its parent; grounded capacitors are stored on
//! the nodes themselves (see [`crate::tree::RcTree`]).

use crate::units::{Farads, Ohms};

/// A series element connecting a node to its parent in the RC tree.
///
/// The paper uses a single primitive, the uniform RC line `URC R,C`, and
/// notes that a lumped resistor is `URC R,0` and a lumped capacitor is
/// `URC 0,C`.  We keep lumped resistors and distributed lines as distinct
/// variants because their contributions to the characteristic times differ
/// (a distributed line's own capacitance "sees" only part of the line's
/// resistance), while a pure capacitor is represented as node capacitance.
///
/// ```
/// use rctree_core::element::Branch;
/// use rctree_core::units::{Ohms, Farads};
///
/// let wire = Branch::line(Ohms::new(180.0), Farads::from_pico(0.01));
/// assert_eq!(wire.resistance(), Ohms::new(180.0));
/// assert_eq!(wire.capacitance(), Farads::from_pico(0.01));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Branch {
    /// A lumped resistor of the given resistance.
    Resistor {
        /// Series resistance of the branch.
        resistance: Ohms,
    },
    /// A uniform distributed RC line with the given *total* resistance and
    /// *total* capacitance (uniformly spread along the line).
    Line {
        /// Total series resistance of the line.
        resistance: Ohms,
        /// Total distributed capacitance of the line.
        capacitance: Farads,
    },
}

impl Branch {
    /// Creates a lumped resistor branch.
    pub fn resistor(resistance: Ohms) -> Self {
        Branch::Resistor { resistance }
    }

    /// Creates a uniform distributed RC line branch.
    pub fn line(resistance: Ohms, capacitance: Farads) -> Self {
        Branch::Line {
            resistance,
            capacitance,
        }
    }

    /// Total series resistance of the branch.
    pub fn resistance(&self) -> Ohms {
        match *self {
            Branch::Resistor { resistance } => resistance,
            Branch::Line { resistance, .. } => resistance,
        }
    }

    /// Total distributed capacitance carried by the branch itself
    /// (zero for a lumped resistor).
    pub fn capacitance(&self) -> Farads {
        match *self {
            Branch::Resistor { .. } => Farads::ZERO,
            Branch::Line { capacitance, .. } => capacitance,
        }
    }

    /// Returns `true` if this branch is a distributed line with non-zero
    /// capacitance.
    pub fn is_distributed(&self) -> bool {
        matches!(self, Branch::Line { capacitance, .. } if !capacitance.is_zero())
    }

    /// The contribution of this branch's own distributed capacitance to
    /// `Σ Rkk·Ck` *beyond* the product `R_upstream · C_line`.
    ///
    /// For a uniform line with total resistance `R` and capacitance `C`, a
    /// slice at fractional position `x` sees upstream resistance
    /// `R_up + R·x`, so
    /// `∫₀¹ (R_up + R·x)·C dx = R_up·C + R·C/2`.
    /// This method returns the *internal* part `R·C/2`.
    pub fn internal_elmore(&self) -> crate::units::Seconds {
        match *self {
            Branch::Resistor { .. } => crate::units::Seconds::ZERO,
            Branch::Line {
                resistance,
                capacitance,
            } => resistance * capacitance * 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Seconds;

    #[test]
    fn resistor_has_no_capacitance() {
        let b = Branch::resistor(Ohms::new(10.0));
        assert_eq!(b.resistance(), Ohms::new(10.0));
        assert_eq!(b.capacitance(), Farads::ZERO);
        assert!(!b.is_distributed());
        assert_eq!(b.internal_elmore(), Seconds::ZERO);
    }

    #[test]
    fn line_reports_both_quantities() {
        let b = Branch::line(Ohms::new(4.0), Farads::new(6.0));
        assert_eq!(b.resistance(), Ohms::new(4.0));
        assert_eq!(b.capacitance(), Farads::new(6.0));
        assert!(b.is_distributed());
    }

    #[test]
    fn line_with_zero_capacitance_is_not_distributed() {
        let b = Branch::line(Ohms::new(4.0), Farads::ZERO);
        assert!(!b.is_distributed());
    }

    #[test]
    fn internal_elmore_is_half_rc() {
        // Single uniform RC line driven directly: T_P = T_D = RC/2 (paper,
        // Section III).  The internal term is exactly RC/2.
        let b = Branch::line(Ohms::new(3.0), Farads::new(4.0));
        assert_eq!(b.internal_elmore(), Seconds::new(6.0));
    }
}
