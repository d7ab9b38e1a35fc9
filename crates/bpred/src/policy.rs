//! The branch-history management policies of the paper's Table V.
//!
//! The paper's §III-A/§VI-C contrast taken-only **target history** (THR,
//! the commercial choice) against **direction history** variants that
//! differ in (a) whether BTB-miss not-taken branches trigger a history
//! fixup (a frontend flush), and (b) whether not-taken branches are
//! allocated in the BTB so they can be detected at all.
//!
//! Table V itself did not survive PDF extraction; the six policies are
//! reconstructed from the prose (see `DESIGN.md` §4):
//!
//! | policy | history | fixup on BTB-miss NT | BTB allocation |
//! |--------|---------|----------------------|----------------|
//! | THR    | target  | not needed           | taken only     |
//! | Ideal  | direction (oracle detection, 280-bit) | not needed | taken only |
//! | GHR0   | direction | no                 | taken only     |
//! | GHR1   | direction | no                 | all branches   |
//! | GHR2   | direction | yes (frontend flush) | taken only   |
//! | GHR3   | direction | yes (frontend flush) | all branches — the academic default |

use std::fmt;

/// A history-management policy (one column group of Fig. 8).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum HistoryPolicy {
    /// Taken-only branch target history (the paper's proposal).
    Thr,
    /// Idealized direction history: every branch is detected at
    /// prediction time regardless of BTB contents (upper bound).
    Ideal,
    /// Direction history, no fixup, taken-only BTB allocation.
    Ghr0,
    /// Direction history, no fixup, all-branch BTB allocation.
    Ghr1,
    /// Direction history, fixup via frontend flush, taken-only BTB
    /// allocation.
    Ghr2,
    /// Direction history, fixup via frontend flush, all-branch BTB
    /// allocation (used with basic-block BTBs in academia).
    Ghr3,
}

impl HistoryPolicy {
    /// All policies, in the order Fig. 8 reports them.
    pub const ALL: [HistoryPolicy; 6] = [
        HistoryPolicy::Thr,
        HistoryPolicy::Ideal,
        HistoryPolicy::Ghr0,
        HistoryPolicy::Ghr1,
        HistoryPolicy::Ghr2,
        HistoryPolicy::Ghr3,
    ];

    /// Does this policy hash taken-branch targets into the history
    /// (paper Eq. 2–3) rather than per-branch direction bits (Eq. 1)?
    pub const fn uses_target_history(self) -> bool {
        matches!(self, HistoryPolicy::Thr)
    }

    /// Is branch *detection* idealized (all branches seen at prediction
    /// time, independent of the BTB)?
    pub const fn oracle_detection(self) -> bool {
        matches!(self, HistoryPolicy::Ideal)
    }

    /// Must the frontend flush and repair the history when pre-decode
    /// discovers a BTB-miss not-taken branch?
    pub const fn fixup_not_taken(self) -> bool {
        matches!(self, HistoryPolicy::Ghr2 | HistoryPolicy::Ghr3)
    }

    /// Are not-taken branches allocated into the BTB (so they can be
    /// detected on future predictions)?
    pub const fn allocate_not_taken(self) -> bool {
        matches!(self, HistoryPolicy::Ghr1 | HistoryPolicy::Ghr3)
    }

    /// Display label matching the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            HistoryPolicy::Thr => "THR",
            HistoryPolicy::Ideal => "Ideal",
            HistoryPolicy::Ghr0 => "GHR0",
            HistoryPolicy::Ghr1 => "GHR1",
            HistoryPolicy::Ghr2 => "GHR2",
            HistoryPolicy::Ghr3 => "GHR3",
        }
    }
}

impl fmt::Display for HistoryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_thr_uses_target_history() {
        for p in HistoryPolicy::ALL {
            assert_eq!(p.uses_target_history(), p == HistoryPolicy::Thr);
        }
    }

    #[test]
    fn fixup_and_allocation_matrix() {
        use HistoryPolicy::*;
        assert!(!Thr.fixup_not_taken() && !Thr.allocate_not_taken());
        assert!(!Ideal.fixup_not_taken() && !Ideal.allocate_not_taken());
        assert!(!Ghr0.fixup_not_taken() && !Ghr0.allocate_not_taken());
        assert!(!Ghr1.fixup_not_taken() && Ghr1.allocate_not_taken());
        assert!(Ghr2.fixup_not_taken() && !Ghr2.allocate_not_taken());
        assert!(Ghr3.fixup_not_taken() && Ghr3.allocate_not_taken());
    }

    #[test]
    fn only_ideal_has_oracle_detection() {
        for p in HistoryPolicy::ALL {
            assert_eq!(p.oracle_detection(), p == HistoryPolicy::Ideal);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<&str> =
            HistoryPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(HistoryPolicy::Thr.to_string(), "THR");
    }
}
