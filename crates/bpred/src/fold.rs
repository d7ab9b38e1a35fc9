//! Incrementally-maintained folded histories.
//!
//! TAGE and ITTAGE index their tables with the global history folded down
//! to the table's index/tag width. Folding hundreds of bits from scratch
//! on every prediction is too slow, so — as in real designs — folded
//! values are maintained *incrementally*: each history push rotates the
//! folded value and patches in the entering and leaving bits.
//!
//! A [`FoldPlan`] is the immutable recipe (which `(length, width)` pairs
//! exist); a [`FoldedHistories`] is the current speculative value of every
//! fold. `FoldedHistories` is `Copy`, so the simulator checkpoints it
//! together with the raw [`GlobalHistory`].
//!
//! `FoldPlan::recompute` derives the folds from scratch and is used by
//! property tests to prove the incremental update equivalent.

use crate::history::{GlobalHistory, HISTORY_BITS};
use std::ops::Range;

/// Maximum number of folds a valid simulator configuration registers
/// (TAGE's three per table plus ITTAGE's eight); the configuration
/// codec bounds TAGE's table count with it.
pub const MAX_FOLDS: usize = 64;

/// Widest value a push may inject, in bits. Direction pushes inject one
/// bit and target pushes a 16-bit hash, so folding an injection into a
/// window of `out` bits takes a fixed `16 / out` (rounded up) chunks.
const MAX_INJECT_BITS: u32 = 16;

/// Folds are stored and updated four to a chunk, one per lane.
const LANES: usize = 4;

/// Chunks a [`FoldedHistories`] holds: room for the largest plan a valid
/// configuration builds, TAGE's three groups of up to 18 lanes padded to
/// 20, plus ITTAGE's two chunks.
const MAX_CHUNKS: usize = 17;

/// One fold recipe: the most recent `len` history bits folded to
/// `out` bits.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FoldSpec {
    /// History length in bits (1..=HISTORY_BITS).
    pub len: u32,
    /// Output width in bits (1..=31).
    pub out: u32,
}

/// Maximum history-shift width (`k`) a push supports. Direction pushes
/// shift by 1 bit, target-hash pushes by 2.
const MAX_PUSH_K: usize = 2;

/// A history bit, as the word that holds it and its mask in that word.
#[derive(Copy, Clone, Debug, Default)]
struct BitRef {
    word: usize,
    mask: u64,
}

/// History lengths whose folds share their leaving bits: the sets of
/// lengths one predictor registers at several widths.
#[derive(Clone, Debug)]
struct LengthSet {
    /// Per chunk, `leave[k - 1][j][lane]`: bit `j` of the `k` bits that
    /// leave the lane's window on a width-`k` push (mask 0 on padding
    /// lanes and for `j >= k`).
    leave: Vec<[[[BitRef; LANES]; MAX_PUSH_K]; MAX_PUSH_K]>,
    /// This set's groups in [`FoldPlan::groups`].
    groups: Range<usize>,
}

/// The folds of one [`LengthSet`] at one output width: consecutive
/// chunks, lane `i` folding the set's `i`-th length.
#[derive(Copy, Clone, Debug)]
struct Group {
    /// First chunk.
    first: usize,
    out: u32,
    mask: u32,
    /// Chunks an injection folds into `out` bits.
    inj_folds: u32,
}

/// Per-chunk constants that resolve every `% out` at registration time.
#[derive(Copy, Clone, Debug, Default)]
struct ChunkPre {
    /// `dst[k - 1][j][lane]`: the fold bit leaving bit `j` of a width-`k`
    /// push cancels, `1 << ((len - k + j) % out)`.
    dst: [[[u32; LANES]; MAX_PUSH_K]; MAX_PUSH_K],
    /// Injection bits inside the lane's window.
    inj_mask: [u32; LANES],
}

/// The set of folds a frontend maintains (immutable after setup).
///
/// Folds are registered one set of history lengths at a time and laid
/// out by output width, so a push updates four folds of one width with
/// the same shifts, and computes each length's leaving bits once for all
/// widths.
#[derive(Clone, Debug, Default)]
pub struct FoldPlan {
    /// Per slot, its recipe (`None` on padding lanes).
    specs: Vec<Option<FoldSpec>>,
    sets: Vec<LengthSet>,
    groups: Vec<Group>,
    chunks: Vec<ChunkPre>,
}

/// Current values of every fold in a [`FoldPlan`].
///
/// Plain `Copy` data for cheap speculative checkpointing.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct FoldedHistories {
    vals: [[u32; LANES]; MAX_CHUNKS],
    n: usize,
}

impl FoldedHistories {
    /// Value of fold slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn get(&self, slot: usize) -> u32 {
        assert!(slot < self.n, "fold slot {slot} out of range {}", self.n);
        self.vals[slot / LANES][slot % LANES]
    }

    /// Values of the `n` consecutive fold slots from `first`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn slots(&self, first: usize, n: usize) -> &[u32] {
        assert!(
            first + n <= self.n,
            "fold slots {first}+{n} out of range {}",
            self.n
        );
        &self.vals.as_flattened()[first..first + n]
    }
}

impl FoldPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FoldPlan::default()
    }

    /// Registers one fold of every length in `lens` at every width in
    /// `outs`. Returns the first slot and the stride between widths: the
    /// fold of `lens[i]` at `outs[w]` is slot `first + w * stride + i`.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty, the plan is full or a length or
    /// width is out of range.
    pub fn register_set(&mut self, lens: &[u32], outs: &[u32]) -> (usize, usize) {
        assert!(!lens.is_empty() && !outs.is_empty(), "empty fold set");
        let n_chunks = lens.len().div_ceil(LANES);
        let stride = n_chunks * LANES;
        let first = self.specs.len();
        assert!(
            first + stride * outs.len() <= MAX_CHUNKS * LANES,
            "fold plan full"
        );
        assert!(lens.iter().all(|&l| l >= 1 && (l as usize) <= HISTORY_BITS));
        assert!(outs.iter().all(|o| (1..=31).contains(o)));
        // Pushing k bits moves history positions len-k .. len-1 out of
        // the window (saturated: a width-k push on a shorter fold is
        // never issued).
        let leave_pos = |len: u32, k: usize, j: usize| len.saturating_sub(k as u32) + j as u32;
        let lane_len = |c: usize, l: usize| lens.get(c * LANES + l).copied();
        let groups = self.groups.len()..self.groups.len() + outs.len();
        self.sets.push(LengthSet {
            leave: (0..n_chunks)
                .map(|c| {
                    std::array::from_fn(|ki| {
                        std::array::from_fn(|j| {
                            std::array::from_fn(|l| match lane_len(c, l) {
                                Some(len) if j <= ki => {
                                    let pos = leave_pos(len, ki + 1, j);
                                    BitRef {
                                        word: (pos / 64) as usize,
                                        mask: 1 << (pos % 64),
                                    }
                                }
                                _ => BitRef::default(),
                            })
                        })
                    })
                })
                .collect(),
            groups,
        });
        for &out in outs {
            self.groups.push(Group {
                first: self.chunks.len(),
                out,
                mask: (1u32 << out) - 1,
                inj_folds: MAX_INJECT_BITS.div_ceil(out),
            });
            for c in 0..n_chunks {
                self.chunks.push(ChunkPre {
                    dst: std::array::from_fn(|ki| {
                        std::array::from_fn(|j| {
                            std::array::from_fn(|l| match lane_len(c, l) {
                                Some(len) if j <= ki => 1 << (leave_pos(len, ki + 1, j) % out),
                                _ => 0,
                            })
                        })
                    }),
                    inj_mask: std::array::from_fn(|l| match lane_len(c, l) {
                        Some(len) if len < 32 => (1 << len) - 1,
                        Some(_) => u32::MAX,
                        None => 0,
                    }),
                });
                self.specs
                    .extend((0..LANES).map(|l| lane_len(c, l).map(|len| FoldSpec { len, out })));
            }
        }
        (first, stride)
    }

    /// Registers a single fold and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the plan is full or the spec is out of range.
    pub fn register(&mut self, len: u32, out: u32) -> usize {
        self.register_set(&[len], &[out]).0
    }

    /// Number of fold slots, padding lanes included.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if no folds are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Initial (all-zero-history) fold values.
    pub fn initial(&self) -> FoldedHistories {
        FoldedHistories {
            n: self.specs.len(),
            ..FoldedHistories::default()
        }
    }

    /// Applies one history push to every fold.
    ///
    /// Must be called with the history value *before* the corresponding
    /// [`GlobalHistory::push_bits`] call, with the same `inject`/`k`.
    ///
    /// Semantics of a push (matching `GlobalHistory::push_bits`): the
    /// history shifts left by `k` bits and `inject`, at most 16 bits
    /// wide, is XOR-ed into the low bits (inject may be wider than `k`).
    pub fn push(&self, folds: &mut FoldedHistories, before: &GlobalHistory, inject: u64, k: u32) {
        debug_assert!((1..=MAX_PUSH_K as u32).contains(&k));
        debug_assert!(
            inject >> MAX_INJECT_BITS == 0,
            "injection wider than 16 bits"
        );
        match k {
            1 => self.push_k::<1>(folds, before, inject as u32),
            _ => self.push_k::<2>(folds, before, inject as u32),
        }
    }

    /// Width-monomorphized push body. Per chunk of a length set, the
    /// leaving bits are read once, as lane masks; each width group then
    /// updates its four lanes with the same shifts, which the compiler
    /// turns into vector instructions.
    fn push_k<const K: usize>(
        &self,
        folds: &mut FoldedHistories,
        before: &GlobalHistory,
        inject: u32,
    ) {
        debug_assert_eq!(folds.n, self.specs.len());
        let words = before.words();
        for set in &self.sets {
            for (c, refs) in set.leave.iter().enumerate() {
                let leave: [[u32; LANES]; K] = std::array::from_fn(|j| {
                    std::array::from_fn(|l| {
                        let r = refs[K - 1][j][l];
                        0u32.wrapping_sub((words[r.word % words.len()] & r.mask != 0) as u32)
                    })
                });
                for g in &self.groups[set.groups.clone()] {
                    let pre = &self.chunks[g.first + c];
                    let v = &mut folds.vals[g.first + c];
                    // A window narrower than the push (out < K) wraps
                    // the rotation's right-shift amount instead of
                    // overflowing it.
                    let back = g.out.wrapping_sub(K as u32);
                    let mut inj = [0u32; LANES];
                    for l in 0..LANES {
                        let mut x = v[l];
                        // Remove the bits that will leave the window.
                        for (j, bits) in leave.iter().enumerate() {
                            x ^= bits[l] & pre.dst[K - 1][j][l];
                        }
                        // Rotate left by K within `out` bits (history
                        // positions all grow by K).
                        v[l] = ((x << K) | x.wrapping_shr(back)) & g.mask;
                        inj[l] = inject & pre.inj_mask[l];
                    }
                    // XOR in the injected value, itself chunk-folded to
                    // `out` bits (it lands at history positions
                    // 0..width). Bits beyond the window never contribute.
                    for _ in 0..g.inj_folds {
                        for l in 0..LANES {
                            v[l] ^= inj[l] & g.mask;
                            inj[l] >>= g.out;
                        }
                    }
                }
            }
        }
    }

    /// Recomputes every fold from scratch (reference implementation for
    /// tests and for rebuilding state).
    pub fn recompute(&self, hist: &GlobalHistory) -> FoldedHistories {
        let mut f = self.initial();
        for (slot, spec) in self.specs.iter().enumerate() {
            if let Some(spec) = spec {
                f.vals[slot / LANES][slot % LANES] = hist.fold(spec.len, spec.out) as u32;
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_types::Addr;

    fn plan() -> FoldPlan {
        let mut p = FoldPlan::new();
        for (len, out) in [
            (4, 9),
            (10, 9),
            (37, 11),
            (64, 11),
            (130, 12),
            (260, 10),
            (9, 9),
        ] {
            p.register(len, out);
        }
        p
    }

    #[test]
    fn register_returns_slots_in_order() {
        // A single fold takes a chunk of four lanes of its own.
        let mut p = FoldPlan::new();
        assert_eq!(p.register(10, 9), 0);
        assert_eq!(p.register(20, 9), 4);
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
        // A set lays its widths out one after another, each padded to
        // whole chunks.
        assert_eq!(p.register_set(&[4, 8, 16, 32, 64], &[9, 11]), (8, 8));
        assert_eq!(p.len(), 24);
    }

    /// The plans the simulator builds: TAGE at each Fig. 12 size with
    /// ITTAGE, and ITTAGE alone (the Gshare configurations).
    fn simulator_plans() -> Vec<(&'static str, FoldPlan)> {
        let with_ittage = |tage: Option<crate::TageConfig>| {
            let mut p = FoldPlan::new();
            if let Some(t) = tage {
                crate::Tage::new(t, &mut p);
            }
            crate::Ittage::new(crate::IttageConfig::default(), &mut p);
            p
        };
        vec![
            ("kb9", with_ittage(Some(crate::TageConfig::kb9()))),
            ("kb18", with_ittage(Some(crate::TageConfig::kb18()))),
            ("kb36", with_ittage(Some(crate::TageConfig::kb36()))),
            ("ittage_only", with_ittage(None)),
        ]
    }

    #[test]
    fn simulator_plans_match_recompute_after_10k_pushes() {
        for (name, p) in simulator_plans() {
            for (k, bits) in [(1, 1), (1, 16), (2, 1), (2, 16), (0, 16)] {
                let mut h = GlobalHistory::new();
                let mut f = p.initial();
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64 ^ (bits << 8);
                for i in 0..10_000u64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // k == 0 mixes both widths.
                    let width = if k == 0 { 1 + (x >> 7 & 1) as u32 } else { k };
                    let inject = (x >> 33) & ((1 << bits) - 1);
                    p.push(&mut f, &h, inject, width);
                    h.push_bits(inject, width);
                    if i % 1_000 == 999 {
                        assert_eq!(f, p.recompute(&h), "{name}, k {k}, {bits}-bit, push {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn initial_matches_recompute_of_empty() {
        let p = plan();
        let h = GlobalHistory::new();
        assert_eq!(p.initial(), p.recompute(&h));
    }

    #[test]
    fn incremental_direction_pushes_match_recompute() {
        let p = plan();
        let mut h = GlobalHistory::new();
        let mut f = p.initial();
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bit = (x >> 62) & 1;
            p.push(&mut f, &h, bit, 1);
            h.push_bits(bit, 1);
            if i % 37 == 0 {
                assert_eq!(f, p.recompute(&h), "diverged at push {i}");
            }
        }
        assert_eq!(f, p.recompute(&h));
    }

    #[test]
    fn incremental_target_pushes_match_recompute() {
        let p = plan();
        let mut h = GlobalHistory::new();
        let mut f = p.initial();
        for i in 0u64..500 {
            let hash =
                GlobalHistory::target_hash(Addr::new(0x1000 + i * 4), Addr::new(0x9000 + i * 52));
            p.push(&mut f, &h, hash, 2);
            h.push_bits(hash, 2);
            if i % 29 == 0 {
                assert_eq!(f, p.recompute(&h), "diverged at push {i}");
            }
        }
        assert_eq!(f, p.recompute(&h));
    }

    #[test]
    fn mixed_push_widths_match_recompute() {
        let p = plan();
        let mut h = GlobalHistory::new();
        let mut f = p.initial();
        for i in 0u64..400 {
            let (inject, k) = if i % 3 == 0 {
                (1u64, 1)
            } else {
                (0xbeef ^ i, 2)
            };
            p.push(&mut f, &h, inject, k);
            h.push_bits(inject, k);
        }
        assert_eq!(f, p.recompute(&h));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = FoldPlan::new();
        let f = p.initial();
        let _ = f.get(0);
    }
}
