//! Physical-quantity newtypes used throughout the library.
//!
//! The Penfield–Rubinstein formulas mix resistances, capacitances, times and
//! voltages; confusing them is the classic source of silent unit errors in
//! timing code.  Each quantity is wrapped in a thin `f64` newtype
//! ([C-NEWTYPE]) with only the physically meaningful arithmetic implemented:
//! for example `Ohms * Farads = Seconds`, but `Ohms + Farads` does not
//! compile.
//!
//! All quantities are stored in SI base units (ohms, farads, seconds, volts).
//! The paper's examples use plain ohms/farads/seconds, and Section V uses
//! ohms and picofarads; helper constructors such as [`Farads::from_pico`]
//! keep call sites readable.
//!
//! ```
//! use rctree_core::units::{Ohms, Farads, Seconds};
//!
//! let r = Ohms::new(380.0);
//! let c = Farads::from_pico(0.04);
//! let tau: Seconds = r * c;
//! assert!((tau.value() - 1.52e-11).abs() < 1e-24);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for a scalar `f64` newtype.
macro_rules! scalar_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in SI base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in SI base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `true` if the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns `true` if the value is negative.
            #[inline]
            pub fn is_negative(self) -> bool {
                self.0 < 0.0
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }
    };
}

scalar_newtype!(
    /// Electrical resistance in ohms (Ω).
    Ohms,
    "Ω"
);

scalar_newtype!(
    /// Capacitance in farads (F).
    Farads,
    "F"
);

scalar_newtype!(
    /// Time in seconds (s).
    Seconds,
    "s"
);

scalar_newtype!(
    /// Voltage in volts (V).
    ///
    /// Step responses in this library are normalized so the input step is
    /// one volt; a normalized voltage of `0.7` therefore means 0.7·V_DD.
    Volts,
    "V"
);

impl Ohms {
    /// Creates a resistance from a value in kiloohms.
    #[inline]
    pub fn from_kilo(kohms: f64) -> Self {
        Self(kohms * 1e3)
    }
}

impl Farads {
    /// Creates a capacitance from a value in picofarads.
    #[inline]
    pub fn from_pico(pf: f64) -> Self {
        Self(pf * 1e-12)
    }

    /// Creates a capacitance from a value in femtofarads.
    #[inline]
    pub fn from_femto(ff: f64) -> Self {
        Self(ff * 1e-15)
    }

    /// Returns the value in picofarads.
    #[inline]
    pub fn as_pico(self) -> f64 {
        self.0 * 1e12
    }
}

impl Seconds {
    /// Creates a time from a value in nanoseconds.
    #[inline]
    pub fn from_nano(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Creates a time from a value in picoseconds.
    #[inline]
    pub fn from_pico(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Returns the value in nanoseconds.
    #[inline]
    pub fn as_nano(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in picoseconds.
    #[inline]
    pub fn as_pico(self) -> f64 {
        self.0 * 1e12
    }
}

/// `R · C = τ` — the fundamental RC time-constant product.
impl Mul<Farads> for Ohms {
    type Output = Seconds;
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// `C · R = τ` (commutative convenience).
impl Mul<Ohms> for Farads {
    type Output = Seconds;
    fn mul(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// `τ / R = C`.
impl Div<Ohms> for Seconds {
    type Output = Farads;
    fn div(self, rhs: Ohms) -> Farads {
        Farads(self.0 / rhs.0)
    }
}

/// `τ / C = R`.
impl Div<Farads> for Seconds {
    type Output = Ohms;
    fn div(self, rhs: Farads) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

/// Resistance-time product `R·τ` (ohm-seconds).
///
/// The constructive algorithm of Section IV carries `T_R2 · R₂₂` through the
/// network construction instead of `T_R2` itself (see the remark under
/// "Practical Algorithms" in the paper); this newtype keeps that intermediate
/// dimensionally distinct from a plain time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct OhmSeconds(f64);

impl OhmSeconds {
    /// Zero quantity.
    pub const ZERO: Self = Self(0.0);

    /// Creates a new ohm-second quantity.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Returns the raw value in ohm-seconds.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for OhmSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Ω·s", self.0)
    }
}

impl Add for OhmSeconds {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for OhmSeconds {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for OhmSeconds {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

/// `R · τ = R·τ`.
impl Mul<Seconds> for Ohms {
    type Output = OhmSeconds;
    fn mul(self, rhs: Seconds) -> OhmSeconds {
        OhmSeconds(self.0 * rhs.0)
    }
}

/// `τ · R = R·τ`.
impl Mul<Ohms> for Seconds {
    type Output = OhmSeconds;
    fn mul(self, rhs: Ohms) -> OhmSeconds {
        OhmSeconds(self.0 * rhs.0)
    }
}

/// `(R·τ) / R = τ`.
impl Div<Ohms> for OhmSeconds {
    type Output = Seconds;
    fn div(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_times_farads_is_seconds() {
        let tau = Ohms::new(100.0) * Farads::new(0.5);
        assert_eq!(tau, Seconds::new(50.0));
    }

    #[test]
    fn farads_times_ohms_commutes() {
        assert_eq!(
            Farads::new(2.0) * Ohms::new(3.0),
            Ohms::new(3.0) * Farads::new(2.0)
        );
    }

    #[test]
    fn seconds_divided_by_ohms_is_farads() {
        let c = Seconds::new(10.0) / Ohms::new(2.0);
        assert_eq!(c, Farads::new(5.0));
    }

    #[test]
    fn seconds_divided_by_farads_is_ohms() {
        let r = Seconds::new(10.0) / Farads::new(2.0);
        assert_eq!(r, Ohms::new(5.0));
    }

    #[test]
    fn like_quantities_divide_to_dimensionless() {
        let ratio: f64 = Seconds::new(6.0) / Seconds::new(3.0);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn ohm_seconds_round_trip() {
        let rt = Ohms::new(4.0) * Seconds::new(5.0);
        assert_eq!(rt, OhmSeconds::new(20.0));
        assert_eq!(rt / Ohms::new(4.0), Seconds::new(5.0));
    }

    #[test]
    fn pico_and_nano_helpers() {
        assert!((Farads::from_pico(1.0).value() - 1e-12).abs() < 1e-27);
        assert!((Seconds::from_nano(2.0).value() - 2e-9).abs() < 1e-21);
        assert!((Seconds::new(3e-9).as_nano() - 3.0).abs() < 1e-12);
        assert!((Farads::new(3e-12).as_pico() - 3.0).abs() < 1e-12);
        assert!((Farads::from_femto(5.0).value() - 5e-15).abs() < 1e-28);
        assert!((Ohms::from_kilo(2.5).value() - 2500.0).abs() < 1e-9);
        assert!((Seconds::from_pico(7.0).value() - 7e-12).abs() < 1e-24);
        assert!((Seconds::new(7e-12).as_pico() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Ohms::new(15.0).to_string(), "15 Ω");
        assert_eq!(Farads::new(2.0).to_string(), "2 F");
        assert_eq!(Seconds::new(1.5).to_string(), "1.5 s");
        assert_eq!(Volts::new(0.7).to_string(), "0.7 V");
        assert_eq!(OhmSeconds::new(3.0).to_string(), "3 Ω·s");
    }

    #[test]
    fn min_max_abs_helpers() {
        assert_eq!(Seconds::new(2.0).min(Seconds::new(3.0)), Seconds::new(2.0));
        assert_eq!(Seconds::new(2.0).max(Seconds::new(3.0)), Seconds::new(3.0));
        assert_eq!(Seconds::new(-2.0).abs(), Seconds::new(2.0));
        assert!(Seconds::new(-1.0).is_negative());
        assert!(!Seconds::new(1.0).is_negative());
        assert!(Seconds::ZERO.is_zero());
    }

    #[test]
    fn sum_of_quantities() {
        let total: Ohms = [Ohms::new(1.0), Ohms::new(2.0), Ohms::new(3.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Ohms::new(6.0));
    }

    #[test]
    fn arithmetic_with_scalars() {
        assert_eq!(Ohms::new(2.0) * 3.0, Ohms::new(6.0));
        assert_eq!(3.0 * Ohms::new(2.0), Ohms::new(6.0));
        assert_eq!(Ohms::new(6.0) / 3.0, Ohms::new(2.0));
        assert_eq!(-Ohms::new(2.0), Ohms::new(-2.0));
        let mut x = Seconds::new(1.0);
        x += Seconds::new(2.0);
        x -= Seconds::new(0.5);
        assert_eq!(x, Seconds::new(2.5));
    }

    #[test]
    fn conversions_from_into_f64() {
        let r: Ohms = 5.0.into();
        assert_eq!(r, Ohms::new(5.0));
        let raw: f64 = r.into();
        assert_eq!(raw, 5.0);
    }
}
