//! Certification verdicts (the paper's `OK` function).
//!
//! The third use-case listed in the paper's abstract is "to certify that a
//! circuit is *fast enough*, given both the maximum delay and the voltage
//! threshold".  Because the method produces bounds rather than exact delays,
//! the verdict is three-valued.

use std::fmt;

/// Result of comparing the delay bounds of an output against a timing budget.
///
/// Mirrors the paper's APL function `OK`, which returns `1` (pass), `¯1`
/// (fail) or `0` (cannot tell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Certification {
    /// The upper delay bound is within the budget: the circuit is guaranteed
    /// fast enough.
    Pass,
    /// Even the lower delay bound exceeds the budget: the circuit definitely
    /// fails the requirement.
    Fail,
    /// The bounds straddle the budget: the method cannot decide; a tighter
    /// analysis (or exact simulation) is needed.
    Indeterminate,
}

impl Certification {
    /// Returns `true` for [`Certification::Pass`].
    pub fn is_pass(self) -> bool {
        self == Certification::Pass
    }

    /// Returns `true` for [`Certification::Fail`].
    pub fn is_fail(self) -> bool {
        self == Certification::Fail
    }

    /// Returns `true` for [`Certification::Indeterminate`].
    pub fn is_indeterminate(self) -> bool {
        self == Certification::Indeterminate
    }

    /// The paper's numeric encoding: `1` for pass, `-1` for fail, `0` for
    /// indeterminate.
    pub fn as_paper_code(self) -> i8 {
        match self {
            Certification::Pass => 1,
            Certification::Fail => -1,
            Certification::Indeterminate => 0,
        }
    }

    /// Combines two verdicts conservatively: a combined circuit passes only
    /// if both parts pass, fails if either definitely fails, and is
    /// indeterminate otherwise.
    pub fn and(self, other: Certification) -> Certification {
        use Certification::*;
        match (self, other) {
            (Fail, _) | (_, Fail) => Fail,
            (Pass, Pass) => Pass,
            _ => Indeterminate,
        }
    }
}

impl fmt::Display for Certification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Certification::Pass => "pass",
            Certification::Fail => "fail",
            Certification::Indeterminate => "indeterminate",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_match_variants() {
        assert!(Certification::Pass.is_pass());
        assert!(Certification::Fail.is_fail());
        assert!(Certification::Indeterminate.is_indeterminate());
        assert!(!Certification::Pass.is_fail());
    }

    #[test]
    fn paper_codes() {
        assert_eq!(Certification::Pass.as_paper_code(), 1);
        assert_eq!(Certification::Fail.as_paper_code(), -1);
        assert_eq!(Certification::Indeterminate.as_paper_code(), 0);
    }

    #[test]
    fn conservative_combination() {
        use Certification::*;
        assert_eq!(Pass.and(Pass), Pass);
        assert_eq!(Pass.and(Indeterminate), Indeterminate);
        assert_eq!(Indeterminate.and(Indeterminate), Indeterminate);
        assert_eq!(Pass.and(Fail), Fail);
        assert_eq!(Fail.and(Indeterminate), Fail);
        assert_eq!(Fail.and(Fail), Fail);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Certification::Pass.to_string(), "pass");
        assert_eq!(Certification::Fail.to_string(), "fail");
        assert_eq!(Certification::Indeterminate.to_string(), "indeterminate");
    }
}
