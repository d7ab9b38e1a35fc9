//! The global history register.
//!
//! The paper contrasts two ways of building the history that indexes the
//! direction and indirect predictors (§II-A, §III-A):
//!
//! * **Direction history** (Eq. 1): shift in one bit per *detected* branch
//!   — the academic default, fragile under FDP because BTB-miss not-taken
//!   branches silently drop bits.
//! * **Taken-only branch target history** (Eq. 2–3): only taken branches
//!   update the history, XOR-ing a hash of `(branch pc, target)` into the
//!   shifted register — the commercial choice the paper advocates.
//!
//! [`GlobalHistory`] supports both via [`push_direction`] and
//! [`push_target`]: a fixed-width bit buffer that is `Copy`, so the
//! simulator checkpoints it per speculative block and restores it on
//! pipeline flushes.
//!
//! [`push_direction`]: GlobalHistory::push_direction
//! [`push_target`]: GlobalHistory::push_target

use fdip_types::Addr;

/// Width of the history buffer in bits. Covers the paper's 260-bit
/// TAGE/ITTAGE history and the 280-bit idealized direction history.
pub const HISTORY_BITS: usize = 512;

const WORDS: usize = HISTORY_BITS / 64;

/// Bits shifted per taken branch under target history. Each taken branch
/// contributes a multi-bit hash, so target history carries more
/// information per (taken) branch than direction history does per branch.
const TARGET_SHIFT: u32 = 2;

/// Width of the target hash XOR-ed into the low bits of the history.
const TARGET_HASH_BITS: u32 = 16;

/// A fixed-width global history register.
///
/// Bit 0 of word 0 is the most recent history bit. The buffer is plain
/// `Copy` data (64 bytes), making speculative checkpoint/restore a simple
/// assignment.
///
/// # Examples
///
/// ```
/// use fdip_bpred::GlobalHistory;
/// use fdip_types::Addr;
///
/// let mut h = GlobalHistory::new();
/// let checkpoint = h;                  // snapshot before speculation
/// h.push_direction(true);
/// h.push_target(Addr::new(0x1000), Addr::new(0x2000));
/// assert_ne!(h, checkpoint);
/// h = checkpoint;                      // flush: restore
/// assert_eq!(h, GlobalHistory::new());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct GlobalHistory {
    words: [u64; WORDS],
}

impl GlobalHistory {
    /// Creates an empty (all-zero) history.
    pub fn new() -> Self {
        GlobalHistory::default()
    }

    /// Shifts the register left by `n` bits and XORs `value` into the low
    /// bits (the generic primitive behind both update styles).
    pub fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!((1..64).contains(&n));
        let mut carry = 0u64;
        for w in self.words.iter_mut() {
            let new_carry = *w >> (64 - n);
            *w = (*w << n) | carry;
            carry = new_carry;
        }
        self.words[0] ^= value;
    }

    /// Direction-history update (paper Eq. 1): one bit per branch.
    pub fn push_direction(&mut self, taken: bool) {
        self.push_bits(taken as u64, 1);
    }

    /// Taken-only target-history update (paper Eq. 2–3): shift by two
    /// bits and XOR a hash of the branch address and target.
    pub fn push_target(&mut self, pc: Addr, target: Addr) {
        let hash = Self::target_hash(pc, target);
        self.push_bits(hash, TARGET_SHIFT);
    }

    /// The target hash of Eq. 2: mixes instruction address and target.
    pub fn target_hash(pc: Addr, target: Addr) -> u64 {
        let h = (pc.raw() >> 2) ^ (target.raw() >> 3).rotate_left(7);
        // Thin to the hash width by folding 16-bit chunks.
        let folded = h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48);
        folded & ((1 << TARGET_HASH_BITS) - 1)
    }

    /// Folds the most recent `len` history bits into an `out_bits`-wide
    /// value by XOR-ing consecutive `out_bits`-sized chunks (the classic
    /// folded-history computation, done on demand).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `len > HISTORY_BITS` or `out_bits` is 0 or > 63.
    pub fn fold(&self, len: u32, out_bits: u32) -> u64 {
        debug_assert!(len as usize <= HISTORY_BITS);
        debug_assert!((1..64).contains(&out_bits));
        let mask = (1u64 << out_bits) - 1;
        let mut acc = 0u64;
        let mut taken = 0u32; // bits consumed so far
        let mut chunk = 0u64; // bits being assembled for the current chunk
        let mut chunk_fill = 0u32;
        'outer: for (wi, &w) in self.words.iter().enumerate() {
            let mut avail = (len - taken).min(64);
            let mut word = if avail == 64 {
                w
            } else {
                w & ((1u64 << avail) - 1)
            };
            let _ = wi;
            while avail > 0 {
                let take = (out_bits - chunk_fill).min(avail);
                chunk |= (word & ((1u64 << take) - 1)) << chunk_fill;
                word >>= take;
                avail -= take;
                taken += take;
                chunk_fill += take;
                if chunk_fill == out_bits {
                    acc ^= chunk;
                    chunk = 0;
                    chunk_fill = 0;
                }
                if taken == len {
                    break 'outer;
                }
            }
        }
        (acc ^ chunk) & mask
    }

    /// Returns the most recent `n` bits (n <= 64) as a value, most recent
    /// bit in position 0. Used by Gshare.
    pub fn recent(&self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 64 {
            self.words[0]
        } else {
            self.words[0] & ((1u64 << n) - 1)
        }
    }

    /// The raw history words, most recent bits in word 0.
    pub(crate) fn words(&self) -> &[u64; WORDS] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_direction_shifts_in_one_bit() {
        let mut h = GlobalHistory::new();
        h.push_direction(true);
        assert_eq!(h.recent(4), 0b0001);
        h.push_direction(false);
        assert_eq!(h.recent(4), 0b0010);
        h.push_direction(true);
        assert_eq!(h.recent(4), 0b0101);
    }

    #[test]
    fn push_bits_carries_across_words() {
        let mut h = GlobalHistory::new();
        h.push_bits(1, 1);
        // Shift the single bit across the first word boundary.
        for _ in 0..64 {
            h.push_bits(0, 1);
        }
        assert_eq!(h.words[0], 0);
        assert_eq!(h.words[1], 1);
    }

    #[test]
    fn push_target_differs_by_target() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        a.push_target(Addr::new(0x1000), Addr::new(0x2000));
        b.push_target(Addr::new(0x1000), Addr::new(0x3000));
        assert_ne!(a, b);
    }

    #[test]
    fn target_hash_fits_width() {
        for (pc, t) in [(0x1000u64, 0x2000u64), (0xdead_beef, 0x7fff_ffff_f000)] {
            let h = GlobalHistory::target_hash(Addr::new(pc), Addr::new(t));
            assert!(h < (1 << TARGET_HASH_BITS));
        }
    }

    #[test]
    fn fold_zero_history_is_zero() {
        let h = GlobalHistory::new();
        assert_eq!(h.fold(260, 11), 0);
    }

    #[test]
    fn fold_depends_only_on_recent_len_bits() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        // Different ancient history...
        a.push_direction(true);
        for _ in 0..100 {
            a.push_direction(false);
            b.push_direction(false);
        }
        // ...is invisible to a 50-bit fold but visible to a 150-bit fold.
        assert_eq!(a.fold(50, 11), b.fold(50, 11));
        assert_ne!(a.fold(150, 11), b.fold(150, 11));
    }

    #[test]
    fn fold_short_history_matches_recent() {
        let mut h = GlobalHistory::new();
        for bit in [true, false, true, true, false, true, false, false, true] {
            h.push_direction(bit);
        }
        // Folding 9 bits into 11 is the identity on those bits.
        assert_eq!(h.fold(9, 11), h.recent(9));
    }

    #[test]
    fn fold_is_chunked_xor() {
        let mut h = GlobalHistory::new();
        for _ in 0..4 {
            h.push_direction(true); // history ...1111
        }
        // 4 bits folded into 2-bit chunks: 0b11 ^ 0b11 = 0.
        assert_eq!(h.fold(4, 2), 0);
        h.push_direction(false); // history 01111
                                 // 5 bits = chunks [11, 11, 0]; the leftover 0 bit adds nothing.
        assert_eq!(h.fold(5, 2), 0b11 ^ 0b11);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut h = GlobalHistory::new();
        for i in 0..300 {
            h.push_direction(i % 3 == 0);
        }
        let cp = h;
        for i in 0..50 {
            h.push_target(Addr::new(0x1000 + i * 4), Addr::new(0x9000 + i * 64));
        }
        assert_ne!(h, cp);
        h = cp;
        assert_eq!(h, cp);
    }

    #[test]
    fn recent_widths() {
        let mut h = GlobalHistory::new();
        for _ in 0..70 {
            h.push_direction(true);
        }
        assert_eq!(h.recent(8), 0xff);
        assert_eq!(h.recent(64), u64::MAX);
    }
}
