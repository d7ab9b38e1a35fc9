//! A small open-addressed `line -> cycle` map for in-flight fill
//! tracking.
//!
//! The cache's pending-fill map sits on the demand-probe hot path: every
//! hit consults it (MSHR merge detection) and every fill inserts into
//! it. `std::collections::HashMap` pays SipHash on each of those
//! touches; line numbers are already well-distributed addresses, so this
//! map uses one Fibonacci multiply instead, with linear probing and
//! tombstone deletion. Semantics match the `HashMap` operations it
//! replaces exactly — the map is only ever iterated by `retain`, whose
//! outcome is order-independent, so replacing the hasher cannot change
//! simulation results.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use fdip_types::Cycle;

/// Sentinel key: never-used slot. Line numbers are byte addresses / 64,
/// so real keys cannot collide with the sentinels.
const EMPTY: u64 = u64::MAX;
/// Sentinel key: deleted slot (probe chains continue across it).
const TOMB: u64 = u64::MAX - 1;

/// Open-addressed hash map from cache-line number to ready cycle.
#[derive(Clone, Debug)]
pub(crate) struct FillMap {
    keys: Vec<u64>,
    vals: Vec<Cycle>,
    /// Live entries.
    len: usize,
    /// Tombstoned slots (reclaimed on rehash).
    tombs: usize,
    mask: usize,
    shift: u32,
}

const INITIAL_CAPACITY: usize = 64;

impl FillMap {
    pub(crate) fn new() -> Self {
        FillMap {
            keys: vec![EMPTY; INITIAL_CAPACITY],
            vals: vec![0; INITIAL_CAPACITY],
            len: 0,
            tombs: 0,
            mask: INITIAL_CAPACITY - 1,
            shift: 64 - INITIAL_CAPACITY.trailing_zeros(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<Cycle> {
        debug_assert!(key < TOMB);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or updates `key`.
    pub(crate) fn insert(&mut self, key: u64, val: Cycle) {
        debug_assert!(key < TOMB);
        // Keep load (live + tombstones) at or below 1/2 so probe chains
        // stay short and lookups always terminate at an empty slot.
        if (self.len + self.tombs + 1) * 2 > self.keys.len() {
            self.rehash();
        }
        let mut i = self.home(key);
        let mut place: Option<usize> = None;
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == TOMB {
                if place.is_none() {
                    place = Some(i);
                }
            } else if k == EMPTY {
                let slot = match place {
                    Some(p) => {
                        self.tombs -= 1;
                        p
                    }
                    None => i,
                };
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value if present.
    pub(crate) fn remove(&mut self, key: u64) -> Option<Cycle> {
        debug_assert!(key < TOMB);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.keys[i] = TOMB;
                self.len -= 1;
                self.tombs += 1;
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Keeps only the entries for which `f` returns `true`. `f` must be
    /// a pure predicate (the visit order is unspecified).
    pub(crate) fn retain(&mut self, mut f: impl FnMut(u64, Cycle) -> bool) {
        for i in 0..self.keys.len() {
            let k = self.keys[i];
            if k < TOMB && !f(k, self.vals[i]) {
                self.keys[i] = TOMB;
                self.len -= 1;
                self.tombs += 1;
            }
        }
    }

    /// Grows (or compacts tombstones) so live entries occupy at most a
    /// quarter of the table.
    #[cold]
    fn rehash(&mut self) {
        let mut cap = self.keys.len();
        while (self.len + 1) * 4 > cap {
            cap *= 2;
        }
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; cap]);
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        self.tombs = 0;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k < TOMB {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = FillMap::new();
        assert_eq!(m.get(5), None);
        m.insert(5, 100);
        assert_eq!(m.get(5), Some(100));
        assert!(m.contains(5));
        m.insert(5, 200); // update, not duplicate
        assert_eq!(m.get(5), Some(200));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(5), Some(200));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 0);
        assert!(!m.contains(5));
    }

    #[test]
    fn reinsertion_after_removal_reuses_tombstones() {
        let mut m = FillMap::new();
        for round in 0..200u64 {
            m.insert(7, round);
            assert_eq!(m.get(7), Some(round));
            assert_eq!(m.remove(7), Some(round));
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FillMap::new();
        for k in 0..10_000u64 {
            m.insert(k, k + 1);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn retain_drops_exactly_the_failing_entries() {
        let mut m = FillMap::new();
        for k in 0..1_000u64 {
            m.insert(k, k);
        }
        m.retain(|_, v| v % 3 == 0);
        assert_eq!(m.len(), 334);
        for k in 0..1_000u64 {
            assert_eq!(m.get(k).is_some(), k % 3 == 0, "key {k}");
        }
    }

    #[test]
    fn matches_a_std_map_under_mixed_operations() {
        let mut m = FillMap::new();
        let mut reference: BTreeMap<u64, Cycle> = BTreeMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512; // small key space forces collisions
            match x % 4 {
                0 | 1 => {
                    m.insert(key, step);
                    reference.insert(key, step);
                }
                2 => {
                    assert_eq!(m.remove(key), reference.remove(&key), "step {step}");
                }
                _ => {
                    assert_eq!(m.get(key), reference.get(&key).copied(), "step {step}");
                }
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
        }
        // Cross-check the final state both ways, plus a retain sweep.
        m.retain(|_, v| v % 2 == 0);
        reference.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }
}
