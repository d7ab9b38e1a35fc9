#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Instruction prefetchers for the FDIP reproduction.
//!
//! Implements the baselines the paper compares against (§V, §VI):
//!
//! * [`NextLine`] — NL1: prefetch the next line on a miss.
//! * [`FnlMma`] — Seznec's IPC-1 winner: Footprint Next Line + Multiple
//!   Miss Ahead.
//! * [`Djolt`] — D-JOLT: return-address-FIFO signatures → miss footprints.
//! * [`Eip`] — the Entangling Instruction Prefetcher, at the paper's
//!   128KB and 27KB budgets.
//! * [`SnfourlDis`] — Divide-and-Conquer's SN4L (usefulness-filtered
//!   next-four-line) + discontinuity prefetcher; its BTB-prefetch
//!   component is driven by the simulator (pre-decode on fill).
//!
//! Each prefetcher consumes the demand I-cache access/miss stream (and,
//! for D-JOLT, retired calls/returns) and emits candidate line numbers;
//! the simulator issues them into the [`fdip_mem`](../fdip_mem/index.html)
//! hierarchy, which filters redundant requests (at the cost of tag probes
//! — the Fig. 9 effect). Fidelity note: these are structurally-faithful,
//! reduced implementations built from the IPC-1/ISCA descriptions
//! (DESIGN.md §4).

mod djolt;
mod dnc;
mod eip;
mod fnl_mma;
mod nl;
mod rdip;

pub use djolt::{Djolt, DjoltConfig};
pub use dnc::{SnfourlDis, SnfourlDisConfig};
pub use eip::{Eip, EipConfig};
pub use fnl_mma::{FnlMma, FnlMmaConfig};
pub use nl::NextLine;
pub use rdip::{Rdip, RdipConfig};

use fdip_types::{Addr, BranchKind, Cycle};

/// The instruction-prefetcher configurations the experiments select from.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PrefetcherKind {
    /// No prefetching.
    #[default]
    None,
    /// Next-line-on-miss.
    NextLine,
    /// FNL+MMA at its IPC-1 budget.
    FnlMma,
    /// D-JOLT at its IPC-1 budget.
    Djolt,
    /// EIP with the original 128KB entangled table.
    Eip128,
    /// EIP with the realistic 27KB entangled table.
    Eip27,
    /// Divide-and-Conquer SN4L+Dis (no BTB prefetching).
    SnfourlDis,
    /// Divide-and-Conquer SN4L+Dis with BTB prefetching.
    SnfourlDisBtb,
    /// RDIP (related work §VII-A; D-JOLT's predecessor).
    Rdip,
    /// Perfect prefetching (§V): instant fills, traffic still issued.
    Perfect,
}

impl PrefetcherKind {
    /// All kinds, in declaration order.
    pub const ALL: [PrefetcherKind; 10] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::FnlMma,
        PrefetcherKind::Djolt,
        PrefetcherKind::Eip128,
        PrefetcherKind::Eip27,
        PrefetcherKind::SnfourlDis,
        PrefetcherKind::SnfourlDisBtb,
        PrefetcherKind::Rdip,
        PrefetcherKind::Perfect,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "NL1",
            PrefetcherKind::FnlMma => "FNL+MMA",
            PrefetcherKind::Djolt => "D-JOLT",
            PrefetcherKind::Eip128 => "EIP-128KB",
            PrefetcherKind::Eip27 => "EIP-27KB",
            PrefetcherKind::SnfourlDis => "SN4L+Dis",
            PrefetcherKind::SnfourlDisBtb => "SN4L+Dis+BTB",
            PrefetcherKind::Rdip => "RDIP",
            PrefetcherKind::Perfect => "Perfect",
        }
    }

    /// Does this configuration ask the frontend to pre-decode I-cache
    /// fills and install discovered branches into the BTB (§VI-E)?
    pub fn wants_btb_prefetch(self) -> bool {
        matches!(self, PrefetcherKind::SnfourlDisBtb)
    }

    /// Is this the perfect prefetcher (handled specially by the core)?
    pub fn is_perfect(self) -> bool {
        matches!(self, PrefetcherKind::Perfect)
    }

    /// Instantiates the prefetcher.
    pub fn build(self) -> Prefetcher {
        match self {
            PrefetcherKind::None | PrefetcherKind::Perfect => Prefetcher::None,
            PrefetcherKind::NextLine => Prefetcher::NextLine(NextLine::new()),
            PrefetcherKind::FnlMma => Prefetcher::FnlMma(FnlMma::new(FnlMmaConfig::default())),
            PrefetcherKind::Djolt => Prefetcher::Djolt(Djolt::new(DjoltConfig::default())),
            PrefetcherKind::Eip128 => Prefetcher::Eip(Eip::new(EipConfig::kb128())),
            PrefetcherKind::Eip27 => Prefetcher::Eip(Eip::new(EipConfig::kb27())),
            PrefetcherKind::SnfourlDis | PrefetcherKind::SnfourlDisBtb => {
                Prefetcher::SnfourlDis(SnfourlDis::new(SnfourlDisConfig::default()))
            }
            PrefetcherKind::Rdip => Prefetcher::Rdip(Rdip::new(RdipConfig::default())),
        }
    }
}

/// A constructed instruction prefetcher (enum dispatch).
#[derive(Clone, Debug, Default)]
pub enum Prefetcher {
    /// No prefetcher (also used for `Perfect`, which the core drives).
    #[default]
    None,
    /// See [`NextLine`].
    NextLine(NextLine),
    /// See [`FnlMma`].
    FnlMma(FnlMma),
    /// See [`Djolt`].
    Djolt(Djolt),
    /// See [`Eip`].
    Eip(Eip),
    /// See [`SnfourlDis`].
    SnfourlDis(SnfourlDis),
    /// See [`Rdip`].
    Rdip(Rdip),
}

impl Prefetcher {
    /// Feeds one demand I-cache access (line number + hit/miss at cycle
    /// `now`) and appends candidate prefetch lines to `out`.
    pub fn on_access(&mut self, line: u64, hit: bool, now: Cycle, out: &mut Vec<u64>) {
        match self {
            Prefetcher::None => {}
            Prefetcher::NextLine(p) => p.on_access(line, hit, now, out),
            Prefetcher::FnlMma(p) => p.on_access(line, hit, now, out),
            Prefetcher::Djolt(p) => p.on_access(line, hit, now, out),
            Prefetcher::Eip(p) => p.on_access(line, hit, now, out),
            Prefetcher::SnfourlDis(p) => p.on_access(line, hit, now, out),
            Prefetcher::Rdip(p) => p.on_access(line, hit, now, out),
        }
    }

    /// Feeds one retired branch (D-JOLT builds its signatures from calls
    /// and returns, and prefetches on every signature change).
    pub fn on_branch(&mut self, pc: Addr, kind: BranchKind, target: Addr, out: &mut Vec<u64>) {
        match self {
            Prefetcher::Djolt(p) => p.on_branch_prefetch(pc, kind, target, out),
            Prefetcher::Rdip(p) => p.on_branch_prefetch(pc, kind, target, out),
            _ => {}
        }
    }

    /// Does this prefetcher implement a redundant-request filter?
    /// FNL+MMA does (paper §VI-D footnote); the others probe the I-cache
    /// tags for every candidate, which is Fig. 9's tag-traffic effect.
    pub fn has_reissue_filter(&self) -> bool {
        matches!(self, Prefetcher::FnlMma(_))
    }

    /// Metadata storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Prefetcher::None => 0,
            Prefetcher::NextLine(_) => 0,
            Prefetcher::FnlMma(p) => p.storage_bytes(),
            Prefetcher::Djolt(p) => p.storage_bytes(),
            Prefetcher::Eip(p) => p.storage_bytes(),
            Prefetcher::SnfourlDis(p) => p.storage_bytes(),
            Prefetcher::Rdip(p) => p.storage_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(PrefetcherKind::Eip128.label(), "EIP-128KB");
        assert_eq!(PrefetcherKind::FnlMma.label(), "FNL+MMA");
        assert_eq!(PrefetcherKind::Perfect.label(), "Perfect");
        let labels: std::collections::BTreeSet<&str> =
            PrefetcherKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), PrefetcherKind::ALL.len());
    }

    #[test]
    fn only_dnc_btb_variant_wants_btb_prefetch() {
        for k in PrefetcherKind::ALL {
            assert_eq!(
                k.wants_btb_prefetch(),
                k == PrefetcherKind::SnfourlDisBtb,
                "{k:?}"
            );
        }
    }

    #[test]
    fn eip_budgets_differ() {
        let big = PrefetcherKind::Eip128.build().storage_bytes();
        let small = PrefetcherKind::Eip27.build().storage_bytes();
        assert!(big > 3 * small, "{big} vs {small}");
    }

    #[test]
    fn none_emits_nothing() {
        let mut p = Prefetcher::None;
        let mut out = Vec::new();
        p.on_access(10, false, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(p.storage_bytes(), 0);
    }
}
