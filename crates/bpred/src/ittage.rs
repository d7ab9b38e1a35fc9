//! An ITTAGE-style indirect branch target predictor (Seznec, CBP-3),
//! reduced to four tagged components plus a PC-indexed base table.
//!
//! The paper configures ITTAGE with the same 260-bit taken-only target
//! history as TAGE (§V). Like [`crate::Tage`], folded histories live in
//! the shared [`FoldPlan`]; the simulator passes the speculative
//! [`FoldedHistories`] to every lookup.

use crate::fold::{FoldPlan, FoldedHistories};
use fdip_types::Addr;

/// ITTAGE geometry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IttageConfig {
    /// log2 entries per tagged component.
    pub entries_log2: u32,
    /// log2 entries of the PC-indexed base table.
    pub base_log2: u32,
    /// Tag width.
    pub tag_bits: u32,
    /// History lengths of the tagged components (short → long).
    pub hist_lens: [u32; 4],
}

impl Default for IttageConfig {
    fn default() -> Self {
        IttageConfig {
            entries_log2: 9,
            base_log2: 11,
            tag_bits: 12,
            hist_lens: [12, 40, 120, 260],
        }
    }
}

impl IttageConfig {
    /// Storage in bytes: tagged entries hold a 48-bit target + tag +
    /// 2-bit confidence + 2-bit usefulness; base entries a 48-bit target.
    pub fn size_bytes(&self) -> usize {
        let tagged_bits = 4 * (1usize << self.entries_log2) * (48 + self.tag_bits as usize + 2 + 2);
        let base_bits = (1usize << self.base_log2) * 48;
        (tagged_bits + base_bits) / 8
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct IttEntry {
    tag: u16,
    target: Addr,
    /// 2-bit confidence; target replaced when it decays to zero.
    conf: u8,
    u: u8,
}

/// Prediction metadata handed back at update time.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct IttagePrediction {
    /// Predicted target ([`Addr::NULL`] when nothing useful is stored).
    pub target: Addr,
    /// Providing component (None = base table).
    pub provider: Option<u8>,
}

/// The ITTAGE predictor.
///
/// # Examples
///
/// ```
/// use fdip_bpred::{FoldPlan, Ittage, IttageConfig};
/// use fdip_types::Addr;
///
/// let mut plan = FoldPlan::new();
/// let mut itt = Ittage::new(IttageConfig::default(), &mut plan);
/// let folds = plan.initial();
/// let pc = Addr::new(0x1000);
/// let pred = itt.predict(pc, &folds);
/// itt.update(pc, &folds, Addr::new(0x2000), pred);
/// ```
#[derive(Clone, Debug)]
pub struct Ittage {
    config: IttageConfig,
    base: Vec<Addr>,
    tables: Vec<Vec<IttEntry>>,
    /// First fold slot: component `i`'s index fold is slot `fold_base +
    /// i`, its tag fold slot `fold_base + fold_stride + i`.
    fold_base: usize,
    fold_stride: usize,
    lfsr: u64,
}

impl Ittage {
    /// Builds the predictor and registers its folds on `plan`.
    pub fn new(config: IttageConfig, plan: &mut FoldPlan) -> Self {
        let (fold_base, fold_stride) =
            plan.register_set(&config.hist_lens, &[config.entries_log2, config.tag_bits]);
        Ittage {
            config,
            base: vec![Addr::NULL; 1 << config.base_log2],
            tables: vec![vec![IttEntry::default(); 1 << config.entries_log2]; 4],
            fold_base,
            fold_stride,
            lfsr: 0xbead_cafe_1234_5678,
        }
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.config.size_bytes()
    }

    fn base_index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn index(&self, pc: Addr, folds: &FoldedHistories, i: usize) -> usize {
        let h = pc.raw() >> 2;
        let f = folds.get(self.fold_base + i) as u64;
        ((h ^ (h >> 7) ^ f ^ ((i as u64) << 2)) as usize) & ((1 << self.config.entries_log2) - 1)
    }

    fn tag(&self, pc: Addr, folds: &FoldedHistories, i: usize) -> u16 {
        let h = pc.raw() >> 2;
        let f = folds.get(self.fold_base + self.fold_stride + i) as u64;
        ((h ^ (f << 1) ^ (h >> 11)) as u16) & ((1u16 << self.config.tag_bits) - 1)
    }

    /// Predicts the target of the indirect branch at `pc`.
    pub fn predict(&self, pc: Addr, folds: &FoldedHistories) -> IttagePrediction {
        for i in (0..4).rev() {
            let e = &self.tables[i][self.index(pc, folds, i)];
            if e.tag == self.tag(pc, folds, i) && !e.target.is_null() {
                return IttagePrediction {
                    target: e.target,
                    provider: Some(i as u8),
                };
            }
        }
        IttagePrediction {
            target: self.base[self.base_index(pc)],
            provider: None,
        }
    }

    /// Trains with the resolved target. `folds` are the checkpointed
    /// folded histories from prediction time; `pred` the value returned
    /// by [`Ittage::predict`].
    pub fn update(
        &mut self,
        pc: Addr,
        folds: &FoldedHistories,
        actual: Addr,
        pred: IttagePrediction,
    ) {
        let mispredicted = pred.target != actual;
        // Base table always tracks the latest target.
        let bi = self.base_index(pc);
        self.base[bi] = actual;

        if let Some(p) = pred.provider {
            let p = p as usize;
            let idx = self.index(pc, folds, p);
            let tag = self.tag(pc, folds, p);
            let e = &mut self.tables[p][idx];
            if e.tag == tag {
                if e.target == actual {
                    e.conf = (e.conf + 1).min(3);
                    e.u = (e.u + 1).min(3);
                } else if e.conf > 0 {
                    e.conf -= 1;
                } else {
                    e.target = actual;
                    e.u = 0;
                }
            }
        }

        if mispredicted {
            // Allocate in a longer-history component with a free slot.
            let start = pred.provider.map_or(0, |p| p as usize + 1);
            let mut allocated = false;
            for j in start..4 {
                let idx = self.index(pc, folds, j);
                if self.tables[j][idx].u == 0 {
                    self.tables[j][idx] = IttEntry {
                        tag: self.tag(pc, folds, j),
                        target: actual,
                        conf: 0,
                        u: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Age a victim pseudo-randomly.
                self.lfsr ^= self.lfsr << 13;
                self.lfsr ^= self.lfsr >> 7;
                self.lfsr ^= self.lfsr << 17;
                let j = start + (self.lfsr as usize % (4 - start).max(1));
                if j < 4 {
                    let idx = self.index(pc, folds, j);
                    let e = &mut self.tables[j][idx];
                    e.u = e.u.saturating_sub(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::GlobalHistory;

    fn setup() -> (Ittage, FoldPlan) {
        let mut plan = FoldPlan::new();
        let itt = Ittage::new(IttageConfig::default(), &mut plan);
        (itt, plan)
    }

    #[test]
    fn monomorphic_site_is_learned() {
        let (mut itt, plan) = setup();
        let folds = plan.initial();
        let pc = Addr::new(0x1000);
        let t = Addr::new(0x8000);
        for _ in 0..8 {
            let pred = itt.predict(pc, &folds);
            itt.update(pc, &folds, t, pred);
        }
        assert_eq!(itt.predict(pc, &folds).target, t);
    }

    #[test]
    fn history_correlated_targets_are_separated() {
        let (mut itt, plan) = setup();
        let pc = Addr::new(0x2000);
        let mut h1 = GlobalHistory::new();
        h1.push_target(Addr::new(0x500), Addr::new(0x600));
        let f1 = plan.recompute(&h1);
        let f0 = plan.initial();
        let (ta, tb) = (Addr::new(0x9000), Addr::new(0xa000));
        for _ in 0..64 {
            let p1 = itt.predict(pc, &f1);
            itt.update(pc, &f1, ta, p1);
            let p0 = itt.predict(pc, &f0);
            itt.update(pc, &f0, tb, p0);
        }
        assert_eq!(itt.predict(pc, &f1).target, ta);
        assert_eq!(itt.predict(pc, &f0).target, tb);
    }

    #[test]
    fn cold_lookup_returns_null() {
        let (itt, plan) = setup();
        assert!(itt
            .predict(Addr::new(0x1234), &plan.initial())
            .target
            .is_null());
    }

    #[test]
    fn base_table_tracks_last_target() {
        let (mut itt, plan) = setup();
        let folds = plan.initial();
        let pc = Addr::new(0x3000);
        let pred = itt.predict(pc, &folds);
        itt.update(pc, &folds, Addr::new(0x7000), pred);
        // Even with no tagged hit, the base table serves the last target.
        assert_eq!(itt.predict(pc, &folds).target, Addr::new(0x7000));
    }

    #[test]
    fn size_is_reported() {
        let (itt, _) = setup();
        assert!(itt.size_bytes() > 10 * 1024);
        assert!(itt.size_bytes() < 64 * 1024);
    }
}
