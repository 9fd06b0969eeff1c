//! The Penfield–Rubinstein upper and lower bounds (Eqs. 8–17).
//!
//! Given the three characteristic times of an output (see
//! [`CharacteristicTimes`](crate::moments::CharacteristicTimes)), the paper
//! derives closed-form bounds on the unit-step response voltage and, by
//! inversion, on the time at which the response crosses a threshold.
//!
//! With `T_P`, `T_D = T_De`, `T_R = T_Re`:
//!
//! **Voltage bounds** (response normalized to a 0 → 1 step):
//!
//! ```text
//! v_max(t) = min( 1 − (T_D − t)/T_P ,                       Eq. (8)
//!                 1 − (T_D/T_P)·exp(−t/T_R) )               Eq. (9)
//!
//! v_min(t) = max( 0 ,                                       Eq. (10)
//!                 1 − T_D/(t + T_R) ,                       Eq. (11)
//!                 1 − (T_D/T_P)·exp(−(t − T_P + T_R)/T_P) ) Eq. (12), t ≥ T_P − T_R
//! ```
//!
//! **Delay bounds** for a threshold `v ∈ (0, 1)`:
//!
//! ```text
//! t_min(v) = max( 0 ,                                       Eq. (13)
//!                 T_D − T_P·(1 − v) ,                       Eq. (14)
//!                 T_R·ln( T_D/(T_P·(1 − v)) ) )             Eq. (15)
//!
//! t_max(v) = min( T_D/(1 − v) − T_R ,                       Eq. (16)
//!                 T_P − T_R + max(0, T_P·ln( T_D/(T_P·(1 − v)) )) )   Eq. (17)
//! ```
//!
//! The formulas are exactly the ones implemented by the paper's APL
//! functions `VMIN`, `VMAX`, `TMIN`, `TMAX` (Figure 9); the regression test
//! `tests/fig10_regression.rs` checks them against every number printed in
//! Figure 10.
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::moments::characteristic_times;
//! use rctree_core::units::{Ohms, Farads, Seconds};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! let mut b = RcTreeBuilder::new();
//! let n = b.add_resistor(b.input(), "n", Ohms::new(1000.0))?;
//! b.add_capacitance(n, Farads::from_pico(1.0))?;
//! b.mark_output(n)?;
//! let tree = b.build()?;
//! let times = characteristic_times(&tree, n)?;
//! let bounds = times.delay_bounds(0.5)?;
//! assert!(bounds.lower <= bounds.upper);
//! # Ok(())
//! # }
//! ```

use crate::algebra::{DelayValue, Poly2, SymbolicTimes};
use crate::cert::Certification;
use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::units::Seconds;

/// Lower and upper bounds on the normalized step-response voltage at a given
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageBounds {
    /// Guaranteed minimum normalized voltage (Eqs. 10–12).
    pub lower: f64,
    /// Guaranteed maximum normalized voltage (Eqs. 8–9).
    pub upper: f64,
}

impl VoltageBounds {
    /// Width of the bound interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Returns `true` if a value lies within the bounds (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lower && v <= self.upper
    }
}

/// Lower and upper bounds on the delay to a threshold voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBounds {
    /// Guaranteed minimum delay (Eqs. 13–15).
    pub lower: Seconds,
    /// Guaranteed maximum delay (Eqs. 16–17).
    pub upper: Seconds,
}

impl DelayBounds {
    /// Width of the bound interval.
    pub fn width(&self) -> Seconds {
        self.upper - self.lower
    }

    /// Returns `true` if a delay lies within the bounds (inclusive).
    pub fn contains(&self, t: Seconds) -> bool {
        t >= self.lower && t <= self.upper
    }

    /// Relative uncertainty `(upper − lower) / upper`, a tightness metric
    /// used by the ablation benchmarks (0 means the bounds coincide).
    pub fn relative_uncertainty(&self) -> f64 {
        if self.upper.is_zero() {
            0.0
        } else {
            (self.upper - self.lower) / self.upper
        }
    }
}

/// The delay bounds of one output as polynomials in the uniform `(r, c)`
/// scale factors — the symbolic analogue of [`DelayBounds`].
///
/// Produced by [`symbolic_delay_bounds`]; evaluate at a concrete scale
/// point with [`SymbolicDelayBounds::eval`], or read sensitivities
/// (`∂bound/∂r`, `∂bound/∂c`) straight off the coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolicDelayBounds {
    /// Guaranteed minimum delay as a polynomial in `(r, c)` (Eqs. 13–15).
    pub lower: Poly2,
    /// Guaranteed maximum delay as a polynomial in `(r, c)` (Eqs. 16–17).
    pub upper: Poly2,
}

impl SymbolicDelayBounds {
    /// Symbolic bounds that are identically zero (a zero-Elmore output).
    pub const ZERO: SymbolicDelayBounds = SymbolicDelayBounds {
        lower: Poly2::ZERO,
        upper: Poly2::ZERO,
    };

    /// The concrete [`DelayBounds`] at one scale point.
    pub fn eval(&self, r: f64, c: f64) -> DelayBounds {
        DelayBounds {
            lower: Seconds::new(self.lower.eval(r, c)),
            upper: Seconds::new(self.upper.eval(r, c)),
        }
    }

    /// `(∂upper/∂r, ∂upper/∂c)` at one scale point — the delay
    /// sensitivities of the certified (worst-case) bound.
    pub fn upper_sens_at(&self, r: f64, c: f64) -> (f64, f64) {
        (self.upper.eval_dr(r, c), self.upper.eval_dc(r, c))
    }

    /// `(∂lower/∂r, ∂lower/∂c)` at one scale point.
    pub fn lower_sens_at(&self, r: f64, c: f64) -> (f64, f64) {
        (self.lower.eval_dr(r, c), self.lower.eval_dc(r, c))
    }
}

/// The delay bounds of one output, **symbolically** over the uniform scale
/// factors: for every `r, c > 0`, `symbolic_delay_bounds(t, v).eval(r, c)`
/// equals the scalar [`CharacteristicTimes::delay_bounds`] of the network
/// with every resistance multiplied by `r` and every capacitance by `c`
/// (to rounding).
///
/// This is exact, not an approximation, because uniform scaling turns every
/// characteristic time into a single shared monomial `m(r, c)` (for a full
/// sweep, `m = r·c`) with `m > 0` on positive scales: the log argument
/// `T_D/(T_P·(1−v))` is scale-invariant, and every `max`/`min` in
/// Eqs. 13–17 commutes with multiplication by a positive `m`, so
/// `bounds(r, c) = bounds(1, 1) · m(r, c)` identically.
///
/// # Errors
///
/// * [`CoreError::ThresholdOutOfRange`] unless `0 < threshold < 1`;
/// * [`CoreError::InvalidValue`] if the characteristic times do not share a
///   single monomial shape (unreachable for values produced by the
///   symbolic kernel, which scales uniformly by construction).
pub fn symbolic_delay_bounds(times: &SymbolicTimes, threshold: f64) -> Result<SymbolicDelayBounds> {
    check_threshold(threshold)?;
    if times.t_d.is_zero() {
        return Ok(SymbolicDelayBounds::ZERO);
    }
    let non_uniform = || CoreError::InvalidValue {
        what: "symbolic characteristic-time shape",
        value: f64::NAN,
    };
    let (di, dj, t_d) = times.t_d.as_monomial().ok_or_else(non_uniform)?;
    let (pi, pj, t_p) = times.t_p.as_monomial().ok_or_else(non_uniform)?;
    if (pi, pj) != (di, dj) {
        return Err(non_uniform());
    }
    let t_r = if times.t_r.is_zero() {
        0.0
    } else {
        let (ri, rj, t_r) = times.t_r.as_monomial().ok_or_else(non_uniform)?;
        if (ri, rj) != (di, dj) {
            return Err(non_uniform());
        }
        t_r
    };
    // The nominal bounds, computed with the exact float sequence of
    // `delay_lower_bound` / `delay_upper_bound` on the coefficient values
    // (which are the nominal characteristic times bit-for-bit).
    let one_minus_v = 1.0 - threshold;
    let ln_arg = t_d / (t_p * one_minus_v);
    let mut lower = 0.0_f64;
    lower = lower.max(t_d - t_p * one_minus_v);
    lower = lower.max(t_r * ln_arg.ln());
    let hyperbolic = t_d / one_minus_v - t_r;
    let logarithmic = t_p - t_r + (t_p * ln_arg.ln()).max(0.0);
    let upper = hyperbolic.min(logarithmic).max(lower);
    Ok(SymbolicDelayBounds {
        lower: Poly2::monomial(di, dj, lower),
        upper: Poly2::monomial(di, dj, upper),
    })
}

impl CharacteristicTimes {
    /// Upper bound on the normalized step-response voltage at time `t`
    /// (Eqs. 8–9, tightest of the two, clamped to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NegativeTime`] if `t` is negative or not finite.
    pub fn voltage_upper_bound(&self, t: Seconds) -> Result<f64> {
        check_time(t)?;
        if self.t_d.is_zero() {
            // No capacitance shares resistance with this output: the output
            // follows the input instantaneously.
            return Ok(1.0);
        }
        let (t_p, t_d, t_r, tv) = self.raw(t);
        // Eq. (8): 1 − (T_D − t)/T_P — tight for small t.
        let linear = 1.0 - (t_d - tv) / t_p;
        // Eq. (9): 1 − (T_D/T_P)·e^{−t/T_R} — tight for large t.
        let exponential = 1.0 - (t_d / t_p) * (-tv / t_r).exp();
        Ok(linear.min(exponential).clamp(0.0, 1.0))
    }

    /// Lower bound on the normalized step-response voltage at time `t`
    /// (Eqs. 10–12, tightest of the three, clamped to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NegativeTime`] if `t` is negative or not finite.
    pub fn voltage_lower_bound(&self, t: Seconds) -> Result<f64> {
        check_time(t)?;
        if self.t_d.is_zero() {
            return Ok(1.0);
        }
        let (t_p, t_d, t_r, tv) = self.raw(t);
        // Eq. (10): v ≥ 0.
        let mut best = 0.0_f64;
        // Eq. (11): v ≥ 1 − T_D/(t + T_R).
        best = best.max(1.0 - t_d / (tv + t_r));
        // Eq. (12): v ≥ 1 − (T_D/T_P)·e^{−(t − T_P + T_R)/T_P}, for t ≥ T_P − T_R.
        if tv >= t_p - t_r {
            best = best.max(1.0 - (t_d / t_p) * (-(tv - t_p + t_r) / t_p).exp());
        }
        Ok(best.clamp(0.0, 1.0))
    }

    /// Both voltage bounds at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NegativeTime`] if `t` is negative or not finite.
    pub fn voltage_bounds(&self, t: Seconds) -> Result<VoltageBounds> {
        let lower = self.voltage_lower_bound(t)?;
        let upper = self.voltage_upper_bound(t)?;
        Ok(VoltageBounds {
            lower: lower.min(upper),
            upper,
        })
    }

    /// Lower bound on the time at which the response reaches `threshold`
    /// (Eqs. 13–15).  This is the paper's `TMIN`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ThresholdOutOfRange`] unless
    /// `0 < threshold < 1`.
    pub fn delay_lower_bound(&self, threshold: f64) -> Result<Seconds> {
        check_threshold(threshold)?;
        if self.t_d.is_zero() {
            return Ok(Seconds::ZERO);
        }
        let (t_p, t_d, t_r) = (self.t_p.value(), self.t_d.value(), self.t_r.value());
        let one_minus_v = 1.0 - threshold;
        let ln_arg = t_d / (t_p * one_minus_v);
        // Eq. (13) / (14) / (15).
        let mut best = 0.0_f64;
        best = best.max(t_d - t_p * one_minus_v);
        best = best.max(t_r * ln_arg.ln());
        Ok(Seconds::new(best))
    }

    /// Upper bound on the time at which the response reaches `threshold`
    /// (Eqs. 16–17).  This is the paper's `TMAX`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ThresholdOutOfRange`] unless
    /// `0 < threshold < 1`.
    pub fn delay_upper_bound(&self, threshold: f64) -> Result<Seconds> {
        check_threshold(threshold)?;
        if self.t_d.is_zero() {
            return Ok(Seconds::ZERO);
        }
        let (t_p, t_d, t_r) = (self.t_p.value(), self.t_d.value(), self.t_r.value());
        let one_minus_v = 1.0 - threshold;
        let ln_arg = t_d / (t_p * one_minus_v);
        // Eq. (16): T_D/(1−v) − T_R.
        let hyperbolic = t_d / one_minus_v - t_r;
        // Eq. (17): T_P − T_R + T_P·ln(...), valid once the log is non-negative.
        let logarithmic = t_p - t_r + (t_p * ln_arg.ln()).max(0.0);
        Ok(Seconds::new(hyperbolic.min(logarithmic)))
    }

    /// Both delay bounds for a threshold voltage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ThresholdOutOfRange`] unless
    /// `0 < threshold < 1`.
    pub fn delay_bounds(&self, threshold: f64) -> Result<DelayBounds> {
        let lower = self.delay_lower_bound(threshold)?;
        let upper = self.delay_upper_bound(threshold)?;
        Ok(DelayBounds {
            lower,
            upper: upper.max(lower),
        })
    }

    /// The paper's `OK` function (Figure 9): certifies whether this output is
    /// guaranteed to reach `threshold` within `budget`.
    ///
    /// * [`Certification::Pass`] if the upper delay bound is within budget
    ///   ("the network is certified fast enough");
    /// * [`Certification::Fail`] if even the lower bound exceeds the budget
    ///   ("the network definitely will fail");
    /// * [`Certification::Indeterminate`] if the bounds straddle the budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ThresholdOutOfRange`] for an invalid threshold
    /// and [`CoreError::NegativeTime`] for a negative budget.
    pub fn certify(&self, threshold: f64, budget: Seconds) -> Result<Certification> {
        check_time(budget)?;
        let bounds = self.delay_bounds(threshold)?;
        Ok(if bounds.upper <= budget {
            Certification::Pass
        } else if budget < bounds.lower {
            Certification::Fail
        } else {
            Certification::Indeterminate
        })
    }

    fn raw(&self, t: Seconds) -> (f64, f64, f64, f64) {
        (
            self.t_p.value(),
            self.t_d.value(),
            self.t_r.value(),
            t.value(),
        )
    }
}

fn check_threshold(threshold: f64) -> Result<()> {
    if threshold.is_finite() && threshold > 0.0 && threshold < 1.0 {
        Ok(())
    } else {
        Err(CoreError::ThresholdOutOfRange { threshold })
    }
}

fn check_time(t: Seconds) -> Result<()> {
    if t.is_finite() && !t.is_negative() {
        Ok(())
    } else {
        Err(CoreError::NegativeTime { time: t.value() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Farads, Ohms};

    /// A hand-checkable signature: T_P = 10, T_D = 6, T_R = 4.
    fn sample() -> CharacteristicTimes {
        CharacteristicTimes::new(
            Seconds::new(10.0),
            Seconds::new(6.0),
            Seconds::new(4.0),
            Ohms::new(2.0),
            Farads::new(5.0),
        )
        .unwrap()
    }

    /// A single-lump signature where bounds collapse to the exact
    /// exponential: T_P = T_D = T_R = τ.
    fn single_pole(tau: f64) -> CharacteristicTimes {
        CharacteristicTimes::new(
            Seconds::new(tau),
            Seconds::new(tau),
            Seconds::new(tau),
            Ohms::new(1.0),
            Farads::new(tau),
        )
        .unwrap()
    }

    #[test]
    fn voltage_bounds_are_ordered_and_clamped() {
        let t = sample();
        for &time in &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 500.0] {
            let b = t.voltage_bounds(Seconds::new(time)).unwrap();
            assert!(b.lower >= 0.0 && b.upper <= 1.0, "clamped at t={time}");
            assert!(b.lower <= b.upper, "ordered at t={time}");
        }
    }

    #[test]
    fn voltage_bounds_tend_to_one() {
        let t = sample();
        let b = t.voltage_bounds(Seconds::new(1e4)).unwrap();
        assert!(b.lower > 0.999);
        assert!(b.upper >= b.lower);
    }

    #[test]
    fn voltage_upper_at_zero_is_one_minus_td_over_tp() {
        // At t = 0 both upper-bound expressions give 1 − T_D/T_P.
        let t = sample();
        let ub = t.voltage_upper_bound(Seconds::ZERO).unwrap();
        assert!((ub - 0.4).abs() < 1e-12);
        let lb = t.voltage_lower_bound(Seconds::ZERO).unwrap();
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn single_pole_bounds_collapse_to_exponential() {
        // When T_R = T_D = T_P the network is a single RC lump and both
        // voltage bounds equal 1 − e^{−t/τ} for t ≥ 0 (the bounds are tight).
        let tau = 3.0;
        let t = single_pole(tau);
        for &time in &[0.0, 0.5, 1.0, 2.0, 4.0, 10.0] {
            let exact = 1.0 - (-time / tau).exp();
            let b = t.voltage_bounds(Seconds::new(time)).unwrap();
            assert!(
                (b.upper - exact).abs() < 1e-12,
                "upper at t={time}: {} vs {exact}",
                b.upper
            );
            assert!(
                (b.lower - exact).abs() < 1e-9,
                "lower at t={time}: {} vs {exact}",
                b.lower
            );
        }
    }

    #[test]
    fn single_pole_delay_bounds_collapse() {
        let tau = 3.0;
        let t = single_pole(tau);
        for &v in &[0.1_f64, 0.5, 0.632, 0.9, 0.99] {
            let exact = -tau * (1.0 - v).ln();
            let b = t.delay_bounds(v).unwrap();
            assert!((b.lower.value() - exact).abs() < 1e-9, "lower at v={v}");
            assert!((b.upper.value() - exact).abs() < 1e-9, "upper at v={v}");
        }
    }

    #[test]
    fn delay_bounds_are_ordered_and_monotone_in_threshold() {
        let t = sample();
        let mut prev_lower = Seconds::ZERO;
        let mut prev_upper = Seconds::ZERO;
        for i in 1..100 {
            let v = i as f64 / 100.0;
            let b = t.delay_bounds(v).unwrap();
            assert!(b.lower <= b.upper, "ordered at v={v}");
            assert!(b.lower >= prev_lower, "lower monotone at v={v}");
            assert!(b.upper >= prev_upper, "upper monotone at v={v}");
            prev_lower = b.lower;
            prev_upper = b.upper;
        }
    }

    #[test]
    fn delay_and_voltage_bounds_are_consistent_inverses() {
        // If t_max(v) = T then v_min(T) ≥ v (reaching the threshold is
        // guaranteed by time T); if t_min(v) = T then v_max(T) ≥ v.
        let t = sample();
        for &v in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let b = t.delay_bounds(v).unwrap();
            let v_at_upper = t.voltage_lower_bound(b.upper).unwrap();
            assert!(
                v_at_upper >= v - 1e-9,
                "v_min(t_max({v})) = {v_at_upper} should be ≥ {v}"
            );
            let v_at_lower = t.voltage_upper_bound(b.lower).unwrap();
            assert!(
                v_at_lower >= v - 1e-9,
                "v_max(t_min({v})) = {v_at_lower} should be ≥ {v}"
            );
        }
    }

    #[test]
    fn invalid_thresholds_rejected() {
        let t = sample();
        for &v in &[0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                t.delay_bounds(v),
                Err(CoreError::ThresholdOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn negative_times_rejected() {
        let t = sample();
        assert!(matches!(
            t.voltage_bounds(Seconds::new(-1.0)),
            Err(CoreError::NegativeTime { .. })
        ));
        assert!(matches!(
            t.certify(0.5, Seconds::new(-1.0)),
            Err(CoreError::NegativeTime { .. })
        ));
    }

    #[test]
    fn certification_matches_bounds() {
        let t = sample();
        let b = t.delay_bounds(0.5).unwrap();
        assert_eq!(
            t.certify(0.5, b.upper + Seconds::new(1.0)).unwrap(),
            Certification::Pass
        );
        assert_eq!(
            t.certify(0.5, b.lower - Seconds::new(1e-3)).unwrap(),
            Certification::Fail
        );
        let mid = Seconds::new((b.lower.value() + b.upper.value()) / 2.0);
        assert_eq!(t.certify(0.5, mid).unwrap(), Certification::Indeterminate);
    }

    #[test]
    fn degenerate_zero_elmore_output() {
        let t = CharacteristicTimes::new(
            Seconds::new(5.0),
            Seconds::ZERO,
            Seconds::ZERO,
            Ohms::new(1.0),
            Farads::new(1.0),
        )
        .unwrap();
        assert_eq!(t.voltage_upper_bound(Seconds::ZERO).unwrap(), 1.0);
        assert_eq!(t.voltage_lower_bound(Seconds::ZERO).unwrap(), 1.0);
        let b = t.delay_bounds(0.9).unwrap();
        assert_eq!(b.lower, Seconds::ZERO);
        assert_eq!(b.upper, Seconds::ZERO);
        assert_eq!(t.certify(0.9, Seconds::ZERO).unwrap(), Certification::Pass);
    }

    #[test]
    fn bound_struct_helpers() {
        let vb = VoltageBounds {
            lower: 0.2,
            upper: 0.6,
        };
        assert!((vb.width() - 0.4).abs() < 1e-12);
        assert!(vb.contains(0.4));
        assert!(!vb.contains(0.7));

        let db = DelayBounds {
            lower: Seconds::new(2.0),
            upper: Seconds::new(8.0),
        };
        assert_eq!(db.width(), Seconds::new(6.0));
        assert!(db.contains(Seconds::new(5.0)));
        assert!(!db.contains(Seconds::new(9.0)));
        assert!((db.relative_uncertainty() - 0.75).abs() < 1e-12);
        let zero = DelayBounds {
            lower: Seconds::ZERO,
            upper: Seconds::ZERO,
        };
        assert_eq!(zero.relative_uncertainty(), 0.0);
    }

    #[test]
    fn symbolic_bounds_match_scaled_scalar_bounds_everywhere() {
        use crate::batch::{BatchScratch, SymbolicScratch};
        // A small pre-order net: root, a wire line, a branch point, two
        // sinks with lumped loads.
        let parent: &[u32] = &[0, 0, 1, 2, 2];
        let branch_r: &[f64] = &[0.0, 120.0, 45.0, 80.0, 30.0];
        let branch_c: &[f64] = &[0.0, 4e-14, 1e-14, 0.0, 2e-14];
        let node_cap: &[f64] = &[0.0, 1e-14, 0.0, 9e-14, 5e-14];
        let mut sym = SymbolicScratch::new();
        let view = sym.sweep(parent, branch_r, branch_c, node_cap).unwrap();
        let threshold = 0.5;
        for &(rs, cs) in &[(1.0, 1.0), (0.8, 1.4), (1.4, 0.9), (2.0, 2.0)] {
            let br: Vec<f64> = branch_r.iter().map(|&r| r * rs).collect();
            let bc: Vec<f64> = branch_c.iter().map(|&c| c * cs).collect();
            let nc: Vec<f64> = node_cap.iter().map(|&c| c * cs).collect();
            let mut scratch = BatchScratch::new();
            let scaled = scratch.sweep(parent, &br, &bc, &nc).unwrap();
            for i in 0..view.node_count() {
                let st = view.times_at(i).unwrap();
                let sb = symbolic_delay_bounds(&st, threshold).unwrap();
                let want = scaled.times_at(i).unwrap().delay_bounds(threshold).unwrap();
                let got = sb.eval(rs, cs);
                let rel = |a: Seconds, b: Seconds| {
                    (a.value() - b.value()).abs() / b.value().abs().max(1e-30)
                };
                assert!(rel(got.lower, want.lower) < 1e-9, "node {i} at ({rs},{cs})");
                assert!(rel(got.upper, want.upper) < 1e-9, "node {i} at ({rs},{cs})");
            }
        }
    }

    #[test]
    fn symbolic_bounds_at_nominal_are_bit_identical_to_scalar_bounds() {
        use crate::batch::{BatchScratch, SymbolicScratch};
        let parent: &[u32] = &[0, 0, 1, 1];
        let branch_r: &[f64] = &[0.0, 200.0, 60.0, 75.0];
        let branch_c: &[f64] = &[0.0, 1e-14, 3e-15, 0.0];
        let node_cap: &[f64] = &[0.0, 0.0, 2e-14, 6e-14];
        let mut sym = SymbolicScratch::new();
        let view = sym.sweep(parent, branch_r, branch_c, node_cap).unwrap();
        let mut scratch = BatchScratch::new();
        let scalar = scratch.sweep(parent, branch_r, branch_c, node_cap).unwrap();
        for i in 0..view.node_count() {
            for &v in &[0.1, 0.5, 0.9] {
                let sb = symbolic_delay_bounds(&view.times_at(i).unwrap(), v).unwrap();
                let want = scalar.times_at(i).unwrap().delay_bounds(v).unwrap();
                assert_eq!(sb.eval(1.0, 1.0), want, "node {i} v={v}");
            }
        }
    }

    #[test]
    fn symbolic_bounds_sensitivities_match_finite_differences() {
        use crate::batch::SymbolicScratch;
        let parent: &[u32] = &[0, 0, 1];
        let branch_r: &[f64] = &[0.0, 150.0, 90.0];
        let branch_c: &[f64] = &[0.0, 2e-14, 1e-14];
        let node_cap: &[f64] = &[0.0, 0.0, 8e-14];
        let mut sym = SymbolicScratch::new();
        let view = sym.sweep(parent, branch_r, branch_c, node_cap).unwrap();
        let sb = symbolic_delay_bounds(&view.times_at(2).unwrap(), 0.5).unwrap();
        let h = 1e-6;
        let fd_r = (sb.upper.eval(1.0 + h, 1.0) - sb.upper.eval(1.0 - h, 1.0)) / (2.0 * h);
        let fd_c = (sb.upper.eval(1.0, 1.0 + h) - sb.upper.eval(1.0, 1.0 - h)) / (2.0 * h);
        let (dr, dc) = sb.upper_sens_at(1.0, 1.0);
        assert!((dr - fd_r).abs() <= 1e-9 * dr.abs().max(1e-30));
        assert!((dc - fd_c).abs() <= 1e-9 * dc.abs().max(1e-30));
        let (lr, lc) = sb.lower_sens_at(1.0, 1.0);
        assert!(lr >= 0.0 && lc >= 0.0);
        // Uniform full-sweep bounds are a pure r·c monomial: both partials
        // at (1, 1) equal the nominal bound value.
        assert_eq!(dr, sb.upper.eval(1.0, 1.0));
        assert_eq!(dc, sb.upper.eval(1.0, 1.0));
    }

    #[test]
    fn symbolic_bounds_reject_bad_thresholds_and_degenerate_shapes() {
        use crate::algebra::Poly2;
        let zero_elmore = SymbolicTimes {
            t_p: Poly2::monomial(1, 1, 5.0),
            t_d: Poly2::ZERO,
            t_r: Poly2::ZERO,
            r_ee: Poly2::monomial(1, 0, 1.0),
            total_cap: Poly2::monomial(0, 1, 1.0),
        };
        assert_eq!(
            symbolic_delay_bounds(&zero_elmore, 0.5).unwrap(),
            SymbolicDelayBounds::ZERO
        );
        assert!(matches!(
            symbolic_delay_bounds(&zero_elmore, 1.5),
            Err(CoreError::ThresholdOutOfRange { .. })
        ));
        // Mixed-shape times cannot arise from the uniform kernel and are
        // rejected rather than silently mis-scaled.
        let mixed = SymbolicTimes {
            t_p: Poly2::monomial(1, 0, 5.0),
            t_d: Poly2::monomial(1, 1, 2.0),
            t_r: Poly2::monomial(1, 1, 1.0),
            r_ee: Poly2::monomial(1, 0, 1.0),
            total_cap: Poly2::monomial(0, 1, 1.0),
        };
        assert!(matches!(
            symbolic_delay_bounds(&mixed, 0.5),
            Err(CoreError::InvalidValue { .. })
        ));
    }

    #[test]
    fn voltage_lower_bound_is_monotone_in_time() {
        let t = sample();
        let mut prev = -1.0;
        for i in 0..500 {
            let time = Seconds::new(i as f64 * 0.1);
            let lb = t.voltage_lower_bound(time).unwrap();
            assert!(lb >= prev - 1e-12, "lower bound dipped at t={time}");
            prev = lb;
        }
    }

    #[test]
    fn voltage_upper_bound_is_monotone_in_time() {
        let t = sample();
        let mut prev = -1.0;
        for i in 0..500 {
            let time = Seconds::new(i as f64 * 0.1);
            let ub = t.voltage_upper_bound(time).unwrap();
            assert!(ub >= prev - 1e-12, "upper bound dipped at t={time}");
            prev = ub;
        }
    }
}
