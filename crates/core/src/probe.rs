//! Bounded open-addressed probe table: the prefetch re-issue (churn)
//! filter.
//!
//! Aggressive prefetchers can flood the small L1I with repeated fills of
//! the same line; FNL+MMA filters candidates issued within a recency
//! window (paper §VI-D footnote). The previous implementation kept a
//! `HashMap<line, cycle>` that grew without bound between periodic
//! purges; this table is a fixed-size, power-of-two, open-addressed
//! array with bounded linear probing. When a probe window is full, the
//! entry with the **oldest issue cycle** in the window is evicted —
//! exactly the entry the recency filter cares least about.
//!
//! Memory is capped at construction: `capacity` slots of 16 bytes, no
//! rehashing, no heap traffic after `new`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use fdip_types::Cycle;

/// Sentinel key marking an empty slot (line numbers are byte addresses
/// divided by 64, so they can never reach it).
const EMPTY: u64 = u64::MAX;

/// Slots examined per probe before evicting within the window.
const PROBE_DEPTH: usize = 8;

/// Fixed-size open-addressed recency filter mapping line -> last issue
/// cycle.
#[derive(Clone, Debug)]
pub struct ProbeTable {
    keys: Vec<u64>,
    stamps: Vec<Cycle>,
    mask: usize,
    shift: u32,
    len: usize,
}

impl ProbeTable {
    /// Creates a table with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is smaller than the
    /// probe window.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= PROBE_DEPTH,
            "probe table capacity must be a power of two >= {PROBE_DEPTH}, got {capacity}"
        );
        ProbeTable {
            keys: vec![EMPTY; capacity],
            stamps: vec![0; capacity],
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
        }
    }

    /// Slot capacity (the memory bound).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied slots (always <= capacity).
    pub fn occupancy(&self) -> usize {
        self.len
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci multiplicative hash: top bits of key * golden ratio.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Filters one candidate: returns `true` when `line` was issued
    /// within the last `window` cycles and must be suppressed. Otherwise
    /// records `now` as the line's issue cycle (inserting, refreshing a
    /// stale entry, or evicting the oldest entry in a full probe window)
    /// and returns `false`.
    pub fn filter(&mut self, line: u64, now: Cycle, window: Cycle) -> bool {
        debug_assert_ne!(line, EMPTY);
        let home = self.home(line);
        let mut free: Option<usize> = None;
        let mut oldest = home;
        let mut oldest_stamp = Cycle::MAX;
        for step in 0..PROBE_DEPTH {
            let i = (home + step) & self.mask;
            let k = self.keys[i];
            if k == line {
                if now < self.stamps[i].saturating_add(window) {
                    return true;
                }
                self.stamps[i] = now;
                return false;
            }
            if k == EMPTY {
                if free.is_none() {
                    free = Some(i);
                }
                // Later slots cannot hold `line` either: insertion never
                // probes past the first empty slot.
                break;
            }
            if self.stamps[i] < oldest_stamp {
                oldest_stamp = self.stamps[i];
                oldest = i;
            }
        }
        let i = match free {
            Some(i) => {
                self.len += 1;
                i
            }
            None => oldest,
        };
        self.keys[i] = line;
        self.stamps[i] = now;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_pass_and_are_recorded() {
        let mut t = ProbeTable::new(64);
        assert!(!t.filter(10, 100, 768));
        assert_eq!(t.occupancy(), 1);
        assert!(!t.filter(11, 100, 768));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn churn_filter_semantics_table() {
        // (first issue cycle, re-request cycle, window, suppressed?)
        let cases: &[(Cycle, Cycle, Cycle, bool)] = &[
            (100, 100, 768, true),    // same cycle: suppressed
            (100, 500, 768, true),    // within the window: suppressed
            (100, 867, 768, true),    // last suppressed cycle of the window
            (100, 868, 768, false),   // first cycle outside: re-issued
            (100, 5_000, 768, false), // long after: re-issued
            (100, 101, 1, false),     // one-cycle window: immediately stale
            (100, 100, 1, true),      // ... but same-cycle still suppressed
        ];
        for &(first, again, window, suppressed) in cases {
            let mut t = ProbeTable::new(64);
            assert!(!t.filter(42, first, window), "first issue always passes");
            assert_eq!(
                t.filter(42, again, window),
                suppressed,
                "first={first} again={again} window={window}"
            );
        }
    }

    #[test]
    fn reissue_refreshes_the_stamp() {
        let mut t = ProbeTable::new(64);
        assert!(!t.filter(7, 0, 100));
        assert!(!t.filter(7, 200, 100)); // stale: re-issued, stamp -> 200
        assert!(t.filter(7, 250, 100)); // within the refreshed window
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn suppression_does_not_extend_the_window() {
        let mut t = ProbeTable::new(64);
        assert!(!t.filter(7, 0, 100));
        assert!(t.filter(7, 50, 100)); // suppressed; stamp must stay 0
        assert!(!t.filter(7, 100, 100)); // window measured from cycle 0
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut t = ProbeTable::new(8);
        for line in 0..10_000u64 {
            t.filter(line, line, 768);
            assert!(t.occupancy() <= t.capacity(), "line {line}");
        }
        assert_eq!(t.occupancy(), t.capacity());
    }

    #[test]
    fn eviction_prefers_the_oldest_issue_cycle() {
        // Capacity == probe depth, so every probe sees the whole table
        // and eviction choice is exact.
        let mut t = ProbeTable::new(8);
        for line in 0..8u64 {
            assert!(!t.filter(line, 10 + line, Cycle::MAX));
        }
        assert_eq!(t.occupancy(), 8);
        // Table full: inserting a 9th line evicts the oldest stamp
        // (line 0 at cycle 10) and nothing else.
        assert!(!t.filter(99, 50, Cycle::MAX));
        assert_eq!(t.occupancy(), 8);
        assert!(!t.filter(0, 51, Cycle::MAX), "line 0 was evicted");
        for line in 1..8u64 {
            // The survivors are still within the (infinite) window. Line
            // 1 became the new oldest and was evicted by re-inserting
            // line 0 above; the rest must survive.
            if line == 1 {
                continue;
            }
            assert!(t.filter(line, 52, Cycle::MAX), "line {line} survived");
        }
    }

    #[test]
    fn distinct_lines_do_not_alias() {
        let mut t = ProbeTable::new(1024);
        for line in 0..500u64 {
            assert!(!t.filter(line * 3, 1, 768));
        }
        for line in 0..500u64 {
            assert!(t.filter(line * 3, 2, 768), "line {}", line * 3);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = ProbeTable::new(100);
    }
}
