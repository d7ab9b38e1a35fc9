//! A TAGE conditional branch direction predictor (Seznec, CBP-5 family).
//!
//! Matches the paper's configuration style (§V): geometric history lengths
//! up to 260 bits, a bimodal base predictor, partially-tagged components
//! with 3-bit counters and 2-bit usefulness, `use_alt_on_na` for weak
//! entries, and periodic usefulness aging. Storage presets scale between
//! the 9KB / 18KB / 36KB points of Fig. 12.
//!
//! History folding is maintained externally via a [`FoldPlan`] (see
//! [`crate::fold`]): TAGE registers three folds per component (index +
//! two tag folds) at construction and reads the speculative
//! [`FoldedHistories`] the simulator passes to every lookup, which is how
//! the frontend can reuse one fold computation for a whole prediction
//! block (paper footnote 1).

use crate::fold::{FoldPlan, FoldedHistories, MAX_FOLDS};
use fdip_types::Addr;

/// Most tagged components a predictor may have: each takes three folds.
const MAX_TABLES: usize = MAX_FOLDS / 3;

/// TAGE geometry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TageConfig {
    /// Number of tagged components.
    pub num_tables: usize,
    /// log2 entries per tagged component.
    pub entries_log2: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Shortest history length.
    pub min_hist: u32,
    /// Longest history length (the paper uses 260).
    pub max_hist: u32,
    /// log2 entries of the bimodal base predictor (2-bit counters).
    pub bimodal_log2: u32,
}

impl TageConfig {
    /// The paper's baseline-class predictor (~18KB).
    pub fn kb18() -> Self {
        TageConfig {
            num_tables: 12,
            entries_log2: 9,
            tag_bits: 11,
            min_hist: 4,
            max_hist: 260,
            bimodal_log2: 14,
        }
    }

    /// Half-size predictor (~9KB) for the Fig. 12 sweep.
    pub fn kb9() -> Self {
        TageConfig {
            entries_log2: 8,
            bimodal_log2: 13,
            ..Self::kb18()
        }
    }

    /// Double-size predictor (~36KB) for the Fig. 12 sweep.
    pub fn kb36() -> Self {
        TageConfig {
            entries_log2: 10,
            bimodal_log2: 15,
            ..Self::kb18()
        }
    }

    /// Geometric history length of component `i` (0-based; longest last).
    pub fn history_length(&self, i: usize) -> u32 {
        if self.num_tables == 1 {
            return self.max_hist;
        }
        let ratio = (self.max_hist as f64 / self.min_hist as f64)
            .powf(i as f64 / (self.num_tables - 1) as f64);
        ((self.min_hist as f64 * ratio).round() as u32).clamp(self.min_hist, self.max_hist)
    }

    /// Total storage in bytes (tagged entries: tag + 3-bit ctr + 2-bit u;
    /// bimodal: 2 bits per entry).
    pub fn size_bytes(&self) -> usize {
        let tagged_bits =
            self.num_tables * (1usize << self.entries_log2) * (self.tag_bits as usize + 3 + 2);
        let bimodal_bits = (1usize << self.bimodal_log2) * 2;
        (tagged_bits + bimodal_bits) / 8
    }
}

/// Every tagged component's table index and tag for one lookup. They
/// depend only on the PC and the folds, so one pass computes them for
/// the match search, the provider and alternate reads, and allocation.
struct Hashes {
    idx: [u32; MAX_TABLES],
    tag: [u16; MAX_TABLES],
}

#[derive(Copy, Clone, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit counter in [-4, 3]; >= 0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness.
    u: u8,
}

/// What a TAGE lookup produced; passed back at update time.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Providing component (None = bimodal).
    pub provider: Option<u8>,
    /// Alternate prediction (next-longest match or bimodal).
    pub alt_taken: bool,
    /// Provider counter was weak (newly allocated).
    pub provider_weak: bool,
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use fdip_bpred::{FoldPlan, GlobalHistory, Tage, TageConfig};
/// use fdip_types::Addr;
///
/// let mut plan = FoldPlan::new();
/// let mut tage = Tage::new(TageConfig::kb18(), &mut plan);
/// let hist = GlobalHistory::new();
/// let folds = plan.initial();
/// let pc = Addr::new(0x1000);
/// let pred = tage.predict(pc, &folds);
/// tage.update(pc, &folds, true, pred);
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    bimodal: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    /// First fold slot: component `i`'s index fold is slot `fold_base +
    /// i`, and its two tag folds follow at strides of `fold_stride`.
    fold_base: usize,
    fold_stride: usize,
    use_alt_on_na: i8,
    lfsr: u64,
    tick: u32,
}

impl Tage {
    /// Builds the predictor and registers its folds on `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 21 tagged components or
    /// the plan has no room for their folds.
    pub fn new(config: TageConfig, plan: &mut FoldPlan) -> Self {
        assert!(config.num_tables <= MAX_TABLES, "too many TAGE tables");
        let lens: Vec<u32> = (0..config.num_tables)
            .map(|i| config.history_length(i))
            .collect();
        let (fold_base, fold_stride) = plan.register_set(
            &lens,
            &[config.entries_log2, config.tag_bits, config.tag_bits - 1],
        );
        Tage {
            config,
            bimodal: vec![2; 1 << config.bimodal_log2], // weakly taken
            tables: vec![vec![TageEntry::default(); 1 << config.entries_log2]; config.num_tables],
            fold_base,
            fold_stride,
            use_alt_on_na: 0,
            lfsr: 0xace1_ace1_ace1_ace1,
            tick: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> TageConfig {
        self.config
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.config.size_bytes()
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) & ((1 << self.config.bimodal_log2) - 1)
    }

    fn bimodal_taken(&self, pc: Addr) -> bool {
        self.bimodal[self.bimodal_index(pc)] >= 2
    }

    /// Table indices and tags of every component for `pc` under `folds`.
    fn hashes(&self, pc: Addr, folds: &FoldedHistories) -> Hashes {
        let n = self.config.num_tables;
        let h = pc.raw() >> 2;
        let idx_mask = (1u32 << self.config.entries_log2) - 1;
        let tag_mask = (1u16 << self.config.tag_bits) - 1;
        let f = folds.slots(self.fold_base, 2 * self.fold_stride + n);
        let (fi, rest) = f.split_at(self.fold_stride);
        let (f1, f2) = rest.split_at(self.fold_stride);
        let mut out = Hashes {
            idx: [0; MAX_TABLES],
            tag: [0; MAX_TABLES],
        };
        for i in 0..n {
            let mixed = h ^ (h >> self.config.entries_log2) ^ fi[i] as u64 ^ ((i as u64) << 3);
            out.idx[i] = (mixed as u32) & idx_mask;
            out.tag[i] = ((h ^ f1[i] as u64 ^ ((f2[i] as u64) << 1)) as u16) & tag_mask;
        }
        out
    }

    /// Finds (provider, alt) component indices among the hashed entries.
    fn matches(&self, hs: &Hashes) -> (Option<usize>, Option<usize>) {
        let mut provider = None;
        let mut alt = None;
        for i in (0..self.config.num_tables).rev() {
            if self.tables[i][hs.idx[i] as usize].tag == hs.tag[i] {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt = Some(i);
                    break;
                }
            }
        }
        (provider, alt)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: Addr, folds: &FoldedHistories) -> TagePrediction {
        let hs = self.hashes(pc, folds);
        let (provider, alt) = self.matches(&hs);
        let alt_taken = match alt {
            Some(i) => self.tables[i][hs.idx[i] as usize].ctr >= 0,
            None => self.bimodal_taken(pc),
        };
        match provider {
            Some(i) => {
                let e = &self.tables[i][hs.idx[i] as usize];
                let weak = e.ctr == 0 || e.ctr == -1;
                let taken = if weak && self.use_alt_on_na >= 0 {
                    alt_taken
                } else {
                    e.ctr >= 0
                };
                TagePrediction {
                    taken,
                    provider: Some(i as u8),
                    alt_taken,
                    provider_weak: weak,
                }
            }
            None => TagePrediction {
                taken: self.bimodal_taken(pc),
                provider: None,
                alt_taken,
                provider_weak: false,
            },
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64.
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.lfsr = x;
        x
    }

    /// Trains the predictor with the resolved outcome.
    ///
    /// `folds` must be the folded histories the branch was *predicted*
    /// with (the simulator checkpoints them), and `pred` the value
    /// returned by [`Tage::predict`] at prediction time.
    pub fn update(&mut self, pc: Addr, folds: &FoldedHistories, taken: bool, pred: TagePrediction) {
        let mispredicted = pred.taken != taken;
        let hs = self.hashes(pc, folds);
        let (provider, _alt) = self.matches(&hs);

        // use_alt_on_na training on weak providers.
        if pred.provider.is_some() && pred.provider_weak {
            let alt_correct = pred.alt_taken == taken;
            if alt_correct != (pred.taken == taken) {
                let delta = if alt_correct { 1 } else { -1 };
                self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
            }
        }

        match provider {
            Some(p) => {
                let e = &mut self.tables[p][hs.idx[p] as usize];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                let provider_taken = e.ctr >= 0;
                if provider_taken != pred.alt_taken {
                    let delta = if provider_taken == taken { 1i8 } else { -1 };
                    e.u = (e.u as i8 + delta).clamp(0, 3) as u8;
                }
            }
            None => {
                let idx = self.bimodal_index(pc);
                let c = &mut self.bimodal[idx];
                *c = (*c as i8 + if taken { 1 } else { -1 }).clamp(0, 3) as u8;
            }
        }

        // Allocate a longer-history entry on misprediction.
        if mispredicted {
            let start = provider.map_or(0, |p| p + 1);
            if start < self.config.num_tables {
                // Only the two shortest-history tables with a free
                // (not useful) entry can be picked.
                let (first, second) = {
                    let mut free = (start..self.config.num_tables)
                        .filter(|&j| self.tables[j][hs.idx[j] as usize].u == 0);
                    (free.next(), free.next())
                };
                if let Some(first) = first {
                    // Prefer shorter histories with geometric bias, as in
                    // Seznec's reference code.
                    let r = self.next_rand();
                    let j = match second {
                        Some(second) if r & 1 == 0 => second,
                        _ => first,
                    };
                    self.tables[j][hs.idx[j] as usize] = TageEntry {
                        tag: hs.tag[j],
                        ctr: if taken { 0 } else { -1 },
                        u: 0,
                    };
                } else {
                    for j in start..self.config.num_tables {
                        let e = &mut self.tables[j][hs.idx[j] as usize];
                        e.u = e.u.saturating_sub(1);
                    }
                }
            }
        }

        // Periodic usefulness aging.
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(1 << 18) {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.u >>= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::GlobalHistory;

    fn setup(cfg: TageConfig) -> (Tage, FoldPlan) {
        let mut plan = FoldPlan::new();
        let tage = Tage::new(cfg, &mut plan);
        (tage, plan)
    }

    /// Train/predict over a synthetic branch whose direction is a pure
    /// function of the last `n` history bits; TAGE must learn it.
    fn accuracy_on_history_function(hist_bits: u32, iters: usize) -> f64 {
        let (mut tage, plan) = setup(TageConfig::kb18());
        let mut hist = GlobalHistory::new();
        let mut folds = plan.initial();
        let pc = Addr::new(0x1000);
        let mut correct = 0usize;
        let mut lfsr = 0x1357_9bdfu64;
        for i in 0..iters {
            // Outcome = parity of the last `hist_bits` bits.
            let taken = (hist.recent(hist_bits).count_ones() & 1) == 1;
            let pred = tage.predict(pc, &folds);
            if pred.taken == taken && i > iters / 2 {
                correct += 1;
            }
            tage.update(pc, &folds, taken, pred);
            // Also feed some noise branches so histories move.
            lfsr = lfsr.wrapping_mul(6364136223846793005).wrapping_add(7);
            let noise = lfsr >> 63 == 1;
            plan.push(&mut folds, &hist, taken as u64, 1);
            hist.push_bits(taken as u64, 1);
            plan.push(&mut folds, &hist, noise as u64, 1);
            hist.push_bits(noise as u64, 1);
        }
        correct as f64 / (iters - iters / 2) as f64
    }

    #[test]
    fn learns_history_correlated_branch() {
        let acc = accuracy_on_history_function(4, 20_000);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_long_period_loop() {
        // A 40-iteration loop back-edge: TAGE needs a >=40-bit history
        // component to catch the single not-taken per period, which is
        // beyond a 15-bit Gshare but well within TAGE's 260-bit reach.
        let (mut tage, plan) = setup(TageConfig::kb18());
        let mut hist = GlobalHistory::new();
        let mut folds = plan.initial();
        let pc = Addr::new(0x1000);
        let trip = 40usize;
        let iters = 40_000usize;
        let mut correct = 0usize;
        for i in 0..iters {
            let taken = (i % trip) != trip - 1;
            let pred = tage.predict(pc, &folds);
            if pred.taken == taken && i > iters / 2 {
                correct += 1;
            }
            tage.update(pc, &folds, taken, pred);
            plan.push(&mut folds, &hist, taken as u64, 1);
            hist.push_bits(taken as u64, 1);
        }
        let acc = correct as f64 / (iters - iters / 2) as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn always_taken_branch_saturates() {
        let (mut tage, plan) = setup(TageConfig::kb9());
        let folds = plan.initial();
        let pc = Addr::new(0x2000);
        for _ in 0..64 {
            let pred = tage.predict(pc, &folds);
            tage.update(pc, &folds, true, pred);
        }
        assert!(tage.predict(pc, &folds).taken);
    }

    #[test]
    fn history_lengths_are_geometric_and_bounded() {
        let cfg = TageConfig::kb18();
        let lens: Vec<u32> = (0..cfg.num_tables).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lens[0], cfg.min_hist);
        assert_eq!(*lens.last().unwrap(), cfg.max_hist);
        for w in lens.windows(2) {
            assert!(w[0] < w[1], "not increasing: {lens:?}");
        }
    }

    #[test]
    fn size_presets_scale() {
        let s9 = TageConfig::kb9().size_bytes();
        let s18 = TageConfig::kb18().size_bytes();
        let s36 = TageConfig::kb36().size_bytes();
        assert!(s9 < s18 && s18 < s36);
        // ~2x steps.
        assert!((s18 as f64 / s9 as f64) > 1.7);
        assert!((s36 as f64 / s18 as f64) > 1.7);
        // The "18KB" class predictor is within [12, 24] KB.
        assert!((12 * 1024..=24 * 1024).contains(&s18), "{s18}");
    }

    #[test]
    fn different_histories_can_give_different_predictions() {
        let (mut tage, plan) = setup(TageConfig::kb18());
        let pc = Addr::new(0x3000);
        // Train: history ending in 1 -> taken; ending in 0 -> not taken.
        let mut h1 = GlobalHistory::new();
        h1.push_bits(1, 1);
        let f1 = plan.recompute(&h1);
        let h0 = GlobalHistory::new();
        let f0 = plan.recompute(&h0);
        for _ in 0..200 {
            let p1 = tage.predict(pc, &f1);
            tage.update(pc, &f1, true, p1);
            let p0 = tage.predict(pc, &f0);
            tage.update(pc, &f0, false, p0);
        }
        assert!(tage.predict(pc, &f1).taken);
        assert!(!tage.predict(pc, &f0).taken);
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let (mut tage, plan) = setup(TageConfig::kb9());
            let mut hist = GlobalHistory::new();
            let mut folds = plan.initial();
            let mut outcome_bits = 0u64;
            for i in 0..2000u64 {
                let pc = Addr::new(0x1000 + (i % 37) * 4);
                let taken = (i * 2654435761) % 5 < 2;
                let pred = tage.predict(pc, &folds);
                outcome_bits = outcome_bits.wrapping_mul(3).wrapping_add(pred.taken as u64);
                tage.update(pc, &folds, taken, pred);
                plan.push(&mut folds, &hist, taken as u64, 1);
                hist.push_bits(taken as u64, 1);
            }
            outcome_bits
        };
        assert_eq!(run(), run());
    }
}
