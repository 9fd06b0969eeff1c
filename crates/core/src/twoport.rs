//! The constructive two-port algebra of Section IV (Figures 6, 8).
//!
//! Instead of computing `R_ke`/`R_kk` for every capacitor, the paper shows
//! that a small *state vector* can be carried while the network is built
//! bottom-up from uniform-RC-line primitives with two wiring functions:
//!
//! * `WB A` — turn a previously built subtree `A` into a **side branch**
//!   (its far port is left open);
//! * `A WC B` — **cascade** two subtrees, connecting `A`'s far port to `B`'s
//!   near port.
//!
//! The state carried for each partially built network is
//! `(C_T, T_P, R₂₂, T_D2, T_R2·R₂₂)` — the total capacitance, the
//! `T_P` time constant, and the three output-port quantities with port 2
//! (the far port of the cascade chain) regarded as the output.  The update
//! rules are Eqs. (19)–(28); the whole computation is **linear** in the
//! number of elements.
//!
//! This module is a direct transliteration of the paper's APL functions
//! `URC`, `WB` and `WC` (Figure 8) into a typed Rust API.
//!
//! ```
//! use rctree_core::twoport::TwoPort;
//! use rctree_core::units::{Ohms, Farads};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! // The example of Figure 7 / Eq. (18).
//! let branch = TwoPort::resistor(Ohms::new(8.0))
//!     .cascade(TwoPort::capacitor(Farads::new(7.0)))
//!     .into_side_branch();
//! let net = TwoPort::resistor(Ohms::new(15.0))
//!     .cascade(TwoPort::capacitor(Farads::new(2.0)))
//!     .cascade(branch)
//!     .cascade(TwoPort::line(Ohms::new(3.0), Farads::new(4.0)))
//!     .cascade(TwoPort::capacitor(Farads::new(9.0)));
//! let times = net.characteristic_times()?;
//! assert!((times.t_p.value() - 419.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::units::{Farads, OhmSeconds, Ohms, Seconds};

/// State vector of a partially constructed RC tree, with port 1 at the input
/// side and port 2 at the output side of the cascade chain.
///
/// This is the five-component vector `C_T, T_P, R₂₂, T_D2, T_R2·R₂₂` passed
/// around by the paper's APL programs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TwoPort {
    total_cap: Farads,
    t_p: Seconds,
    r22: Ohms,
    t_d2: Seconds,
    t_r2_r22: OhmSeconds,
}

impl TwoPort {
    /// The empty network (identity element of [`cascade`](Self::cascade)).
    pub const EMPTY: TwoPort = TwoPort {
        total_cap: Farads::ZERO,
        t_p: Seconds::ZERO,
        r22: Ohms::ZERO,
        t_d2: Seconds::ZERO,
        t_r2_r22: OhmSeconds::ZERO,
    };

    /// The primitive element: a uniform RC line `URC R,C` (Figure 8).
    ///
    /// The state of a bare line is
    /// `(C, R·C/2, R, R·C/2, R²·C/3)`.
    pub fn line(resistance: Ohms, capacitance: Farads) -> Self {
        let r = resistance.value();
        let c = capacitance.value();
        TwoPort {
            total_cap: capacitance,
            t_p: Seconds::new(r * c / 2.0),
            r22: resistance,
            t_d2: Seconds::new(r * c / 2.0),
            t_r2_r22: OhmSeconds::new(r * r * c / 3.0),
        }
    }

    /// A lumped resistor, i.e. `URC R,0`.
    pub fn resistor(resistance: Ohms) -> Self {
        Self::line(resistance, Farads::ZERO)
    }

    /// A lumped grounded capacitor, i.e. `URC 0,C`.
    pub fn capacitor(capacitance: Farads) -> Self {
        Self::line(Ohms::ZERO, capacitance)
    }

    /// The cascade wiring function `self WC other` (Eqs. 19–23): `other` is
    /// attached to the far port of `self`, and the far port of `other`
    /// becomes the new port 2.
    #[must_use]
    pub fn cascade(self, other: TwoPort) -> TwoPort {
        let a = self;
        let b = other;
        let r22a = a.r22.value();
        let ctb = b.total_cap.value();
        TwoPort {
            // Eq. (19): C_T = C_TA + C_TB.
            total_cap: a.total_cap + b.total_cap,
            // Eq. (20): T_P = T_PA + T_PB + R₂₂A·C_TB.
            t_p: a.t_p + b.t_p + Seconds::new(r22a * ctb),
            // Eq. (21): R₂₂ = R₂₂A + R₂₂B.
            r22: a.r22 + b.r22,
            // Eq. (22): T_D2 = T_D2A + T_D2B + R₂₂A·C_TB.
            t_d2: a.t_d2 + b.t_d2 + Seconds::new(r22a * ctb),
            // Eq. (23): T_R2·R₂₂ = (T_R2·R₂₂)A + (T_R2·R₂₂)B
            //                      + 2·R₂₂A·T_D2B + R₂₂A²·C_TB.
            t_r2_r22: OhmSeconds::new(
                a.t_r2_r22.value()
                    + b.t_r2_r22.value()
                    + 2.0 * r22a * b.t_d2.value()
                    + r22a * r22a * ctb,
            ),
        }
    }

    /// The side-branch wiring function `WB self` (Eqs. 24–28): the far port
    /// of `self` is left open and the whole subtree becomes a branch hanging
    /// off whatever it is later cascaded onto.
    ///
    /// Only `C_T` and `T_P` survive; all port-2 quantities reset to zero.
    #[must_use]
    pub fn into_side_branch(self) -> TwoPort {
        TwoPort {
            total_cap: self.total_cap,
            t_p: self.t_p,
            r22: Ohms::ZERO,
            t_d2: Seconds::ZERO,
            t_r2_r22: OhmSeconds::ZERO,
        }
    }

    /// Total capacitance `C_T` of the network built so far.
    pub fn total_cap(&self) -> Farads {
        self.total_cap
    }

    /// The `T_P` time constant of the network built so far.
    pub fn t_p(&self) -> Seconds {
        self.t_p
    }

    /// Resistance `R₂₂` between the input and port 2.
    pub fn r22(&self) -> Ohms {
        self.r22
    }

    /// Elmore delay `T_D2` with port 2 regarded as the output.
    pub fn t_d2(&self) -> Seconds {
        self.t_d2
    }

    /// The product `T_R2·R₂₂` carried by the constructive algorithm.
    pub fn t_r2_r22(&self) -> OhmSeconds {
        self.t_r2_r22
    }

    /// The rise-time constant `T_R2` with port 2 as the output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoPathResistance`] if `R₂₂` is zero while
    /// `T_R2·R₂₂` is not (the quotient would be undefined).
    pub fn t_r2(&self) -> Result<Seconds> {
        if self.t_r2_r22.value() == 0.0 {
            return Ok(Seconds::ZERO);
        }
        if self.r22.is_zero() {
            return Err(CoreError::NoPathResistance {
                output: crate::tree::NodeId::INPUT,
            });
        }
        Ok(self.t_r2_r22 / self.r22)
    }

    /// Packages the state as a [`CharacteristicTimes`] signature with port 2
    /// as the output, ready for bound evaluation.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoCapacitance`] if the network carries no capacitance;
    /// * [`CoreError::NoPathResistance`] if `T_R2` is undefined.
    pub fn characteristic_times(&self) -> Result<CharacteristicTimes> {
        if self.total_cap.is_zero() {
            return Err(CoreError::NoCapacitance);
        }
        CharacteristicTimes::new(self.t_p, self.t_d2, self.t_r2()?, self.r22, self.total_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urc_primitive_matches_figure8() {
        let p = TwoPort::line(Ohms::new(4.0), Farads::new(6.0));
        assert_eq!(p.total_cap(), Farads::new(6.0));
        assert_eq!(p.t_p(), Seconds::new(12.0));
        assert_eq!(p.r22(), Ohms::new(4.0));
        assert_eq!(p.t_d2(), Seconds::new(12.0));
        assert_eq!(p.t_r2_r22(), OhmSeconds::new(32.0));
        assert_eq!(p.t_r2().unwrap(), Seconds::new(8.0)); // RC/3 = 8
    }

    #[test]
    fn resistor_and_capacitor_are_degenerate_lines() {
        let r = TwoPort::resistor(Ohms::new(5.0));
        assert_eq!(r.total_cap(), Farads::ZERO);
        assert_eq!(r.r22(), Ohms::new(5.0));
        assert_eq!(r.t_p(), Seconds::ZERO);

        let c = TwoPort::capacitor(Farads::new(5.0));
        assert_eq!(c.total_cap(), Farads::new(5.0));
        assert_eq!(c.r22(), Ohms::ZERO);
        assert_eq!(c.t_d2(), Seconds::ZERO);
    }

    #[test]
    fn cascade_with_empty_is_identity() {
        let p = TwoPort::line(Ohms::new(3.0), Farads::new(4.0));
        assert_eq!(p.cascade(TwoPort::EMPTY), p);
        assert_eq!(TwoPort::EMPTY.cascade(p), p);
    }

    #[test]
    fn cascade_of_r_then_c_is_single_lump() {
        // R driving a lumped C: T_P = T_D2 = RC, T_R2 = RC.
        let net = TwoPort::resistor(Ohms::new(2.0)).cascade(TwoPort::capacitor(Farads::new(3.0)));
        assert_eq!(net.t_p(), Seconds::new(6.0));
        assert_eq!(net.t_d2(), Seconds::new(6.0));
        assert_eq!(net.r22(), Ohms::new(2.0));
        assert_eq!(net.t_r2().unwrap(), Seconds::new(6.0));
    }

    #[test]
    fn side_branch_keeps_only_cap_and_tp() {
        let sub = TwoPort::resistor(Ohms::new(8.0)).cascade(TwoPort::capacitor(Farads::new(7.0)));
        let b = sub.into_side_branch();
        assert_eq!(b.total_cap(), Farads::new(7.0));
        assert_eq!(b.t_p(), Seconds::new(56.0));
        assert_eq!(b.r22(), Ohms::ZERO);
        assert_eq!(b.t_d2(), Seconds::ZERO);
        assert_eq!(b.t_r2_r22(), OhmSeconds::ZERO);
    }

    #[test]
    fn figure7_network_characteristic_times() {
        // NET ← (URC 15 0) WC (URC 0 2) WC (WB ((URC 8 0) WC (URC 0 7)))
        //        WC (URC 3 4) WC (URC 0 9)          — Eq. (18) / Figure 10.
        let branch = TwoPort::resistor(Ohms::new(8.0))
            .cascade(TwoPort::capacitor(Farads::new(7.0)))
            .into_side_branch();
        let net = TwoPort::resistor(Ohms::new(15.0))
            .cascade(TwoPort::capacitor(Farads::new(2.0)))
            .cascade(branch)
            .cascade(TwoPort::line(Ohms::new(3.0), Farads::new(4.0)))
            .cascade(TwoPort::capacitor(Farads::new(9.0)));

        // Hand-computed values for the Figure 7 network:
        //   C_T  = 2 + 7 + 4 + 9 = 22 F
        //   T_P  = 15·2 + (15+8)·7 + 4·(15 + 3/2) + 18·9 = 419 s
        //   T_D2 = 15·2 + 15·7     + 4·(15 + 3/2) + 18·9 = 363 s
        //   Σ R_ke²·C_k = 15²·2 + 15²·7 + 4·(15² + 15·3 + 3²/3) + 18²·9 = 6033 Ω²·F
        //   R₂₂  = 18 Ω, so T_R2 = 6033/18 = 335.1666… s
        assert_eq!(net.total_cap(), Farads::new(22.0));
        assert!((net.t_p().value() - 419.0).abs() < 1e-9);
        assert!((net.t_d2().value() - 363.0).abs() < 1e-9);
        assert_eq!(net.r22(), Ohms::new(18.0));
        assert!((net.t_r2().unwrap().value() - 6033.0 / 18.0).abs() < 1e-9);

        let t = net.characteristic_times().unwrap();
        assert!(t.satisfies_ordering());
        assert!(t.t_r < t.t_d);
    }

    #[test]
    fn characteristic_times_requires_capacitance() {
        let net = TwoPort::resistor(Ohms::new(5.0));
        assert!(matches!(
            net.characteristic_times(),
            Err(CoreError::NoCapacitance)
        ));
    }

    #[test]
    fn t_r2_of_capacitor_only_network_is_zero() {
        let net = TwoPort::capacitor(Farads::new(3.0));
        assert_eq!(net.t_r2().unwrap(), Seconds::ZERO);
        assert!(net.characteristic_times().is_ok());
    }

    #[test]
    fn cascade_is_associative() {
        let a = TwoPort::line(Ohms::new(1.0), Farads::new(2.0));
        let b = TwoPort::line(Ohms::new(3.0), Farads::new(4.0));
        let c = TwoPort::line(Ohms::new(5.0), Farads::new(6.0));
        let left = a.cascade(b).cascade(c);
        let right = a.cascade(b.cascade(c));
        assert!((left.t_p().value() - right.t_p().value()).abs() < 1e-12);
        assert!((left.t_d2().value() - right.t_d2().value()).abs() < 1e-12);
        assert!((left.t_r2_r22().value() - right.t_r2_r22().value()).abs() < 1e-12);
        assert_eq!(left.r22(), right.r22());
        assert_eq!(left.total_cap(), right.total_cap());
    }

    #[test]
    fn cascade_is_not_commutative_in_general() {
        let a = TwoPort::resistor(Ohms::new(10.0));
        let b = TwoPort::capacitor(Farads::new(1.0));
        let ab = a.cascade(b);
        let ba = b.cascade(a);
        assert_ne!(ab.t_d2(), ba.t_d2());
    }
}
