//! The branch target buffer (BTB).
//!
//! Set-associative, indexed at 16-byte block granularity (§IV-B): every
//! branch in the same 16-byte block maps to the same set, and each way
//! holds one branch (exact-PC tag). Capacity is swept 1K–32K entries by
//! the paper's sensitivity studies (Fig. 7, Fig. 11); allocation policy
//! (taken-only vs all-branch) is chosen by the history-management policy
//! (Table V) and BTB prefetching may insert pre-decoded branches.

use fdip_types::{Addr, BranchKind, INSTR_BYTES};

/// BTB geometry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BtbConfig {
    /// Total entry count (must be a multiple of `assoc`, power-of-two
    /// sets).
    pub entries: usize,
    /// Ways per set.
    pub assoc: usize,
}

impl Default for BtbConfig {
    /// The paper's baseline: 8K entries, 4-way.
    fn default() -> Self {
        BtbConfig {
            entries: 8 * 1024,
            assoc: 4,
        }
    }
}

impl BtbConfig {
    /// Creates a config with the given entry count and the baseline
    /// associativity.
    pub fn with_entries(entries: usize) -> Self {
        BtbConfig { entries, assoc: 4 }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    /// Estimated storage, using the paper's 7 bytes/branch estimate from
    /// the Exynos M3 data (§VI-D).
    pub fn estimated_bytes(&self) -> usize {
        self.entries * 7
    }
}

/// One BTB entry: a branch's address, kind, and last-seen target.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BtbEntry {
    /// Branch instruction address.
    pub pc: Addr,
    /// Pre-decoded branch kind.
    pub kind: BranchKind,
    /// Most recently observed taken-target.
    pub target: Addr,
}

/// Hit/miss counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BtbStats {
    /// Demand lookups.
    pub lookups: u64,
    /// Demand lookups that hit.
    pub hits: u64,
    /// Entries inserted (allocations, not target updates).
    pub allocs: u64,
}

#[derive(Copy, Clone, Debug)]
struct Way {
    entry: BtbEntry,
    /// Higher = more recently used.
    lru: u32,
}

/// A set-associative branch target buffer.
///
/// # Examples
///
/// ```
/// use fdip_bpred::{Btb, BtbConfig};
/// use fdip_types::{Addr, BranchKind};
///
/// let mut btb = Btb::new(BtbConfig::with_entries(1024));
/// let pc = Addr::new(0x1000);
/// assert!(btb.lookup(pc).is_none());
/// btb.insert(pc, BranchKind::CondDirect, Addr::new(0x2000));
/// assert_eq!(btb.lookup(pc).unwrap().target, Addr::new(0x2000));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    config: BtbConfig,
    sets: Vec<Vec<Way>>,
    stamp: u32,
    stats: BtbStats,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or `assoc == 0`.
    pub fn new(config: BtbConfig) -> Self {
        assert!(config.assoc > 0, "associativity must be positive");
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Btb {
            config,
            // Empty sets allocate nothing; `insert` reserves a set's ways
            // on its first allocation (cloning a `Vec` drops its capacity).
            sets: vec![Vec::new(); sets],
            stamp: 0,
            stats: BtbStats::default(),
        }
    }

    /// The geometry this BTB was built with.
    pub fn config(&self) -> BtbConfig {
        self.config
    }

    /// Demand hit/miss statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    fn set_index(&self, pc: Addr) -> usize {
        // 16B-block indexing (§IV-B): all branches in a 16-byte block
        // share a set. Mix some higher bits in to avoid striding artifacts.
        let block = pc.raw() / fdip_types::BTB_SET_BYTES;
        let mixed = block ^ (block >> 13);
        (mixed as usize) & (self.sets.len() - 1)
    }

    /// Looks up a branch by exact PC, updating recency and demand stats.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.stats.lookups += 1;
        let set = self.set_index(pc);
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.entry.pc == pc) {
            w.lru = stamp;
            self.stats.hits += 1;
            return Some(w.entry);
        }
        None
    }

    /// Counts the demand lookups of `n` consecutive instruction slots
    /// from `first`, none of which holds a branch: each misses, as
    /// [`Btb::lookup`] would, without searching its set.
    pub fn count_misses(&mut self, first: Addr, n: usize) {
        debug_assert!(
            (0..n as u64).all(|j| self.peek(first + j * INSTR_BYTES).is_none()),
            "a slot counted as a miss is in the BTB"
        );
        self.stats.lookups += n as u64;
        self.stamp += n as u32;
    }

    /// Looks up without touching recency or statistics (used by tests and
    /// by occupancy inspection).
    pub fn peek(&self, pc: Addr) -> Option<BtbEntry> {
        let set = self.set_index(pc);
        self.sets[set]
            .iter()
            .find(|w| w.entry.pc == pc)
            .map(|w| w.entry)
    }

    /// Inserts or updates a branch. An existing entry has its target and
    /// kind refreshed (indirect branches keep their last target here);
    /// otherwise the LRU way of the set is replaced.
    pub fn insert(&mut self, pc: Addr, kind: BranchKind, target: Addr) {
        let set = self.set_index(pc);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|w| w.entry.pc == pc) {
            w.entry.target = target;
            w.entry.kind = kind;
            w.lru = stamp;
            return;
        }
        self.stats.allocs += 1;
        let entry = BtbEntry { pc, kind, target };
        if ways.capacity() == 0 {
            ways.reserve_exact(self.config.assoc);
        }
        if ways.len() < self.config.assoc {
            ways.push(Way { entry, lru: stamp });
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("non-empty set");
        *victim = Way { entry, lru: stamp };
    }

    /// Number of valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb(entries: usize) -> Btb {
        Btb::new(BtbConfig::with_entries(entries))
    }

    #[test]
    fn a_set_reserves_its_ways_once_on_first_insert() {
        let mut b = Btb::new(BtbConfig {
            entries: 64,
            assoc: 8,
        });
        assert!(b.sets.iter().all(|s| s.capacity() == 0));
        // Ten branches that share a set: eight allocations, then two
        // evictions.
        let set = b.set_index(Addr::new(0x1000));
        let pcs = (0..)
            .map(|i| Addr::new(0x1000 + i * 4))
            .filter(|&pc| b.set_index(pc) == set)
            .take(10);
        for pc in pcs.collect::<Vec<_>>() {
            b.insert(pc, BranchKind::CondDirect, Addr::new(0x2000));
            assert_eq!(b.sets[set].capacity(), 8);
        }
        assert_eq!(b.sets.iter().filter(|s| s.capacity() > 0).count(), 1);
    }

    #[test]
    fn miss_then_hit() {
        let mut b = btb(64);
        let pc = Addr::new(0x4000);
        assert!(b.lookup(pc).is_none());
        b.insert(pc, BranchKind::DirectJump, Addr::new(0x8000));
        let e = b.lookup(pc).expect("hit");
        assert_eq!(e.kind, BranchKind::DirectJump);
        assert_eq!(e.target, Addr::new(0x8000));
        assert_eq!(b.stats().lookups, 2);
        assert_eq!(b.stats().hits, 1);
    }

    #[test]
    fn update_refreshes_target_without_allocating() {
        let mut b = btb(64);
        let pc = Addr::new(0x4000);
        b.insert(pc, BranchKind::IndirectJump, Addr::new(0x8000));
        b.insert(pc, BranchKind::IndirectJump, Addr::new(0x9000));
        assert_eq!(b.peek(pc).unwrap().target, Addr::new(0x9000));
        assert_eq!(b.stats().allocs, 1);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn same_16b_block_shares_a_set() {
        let mut b = btb(64);
        // 4 branches within one 16-byte block plus more from aliasing
        // blocks overflow a 4-way set and evict LRU.
        let base = Addr::new(0x1000);
        for i in 0..4u64 {
            b.insert(base + i * 4, BranchKind::CondDirect, Addr::new(0x2000));
        }
        assert_eq!(b.occupancy(), 4);
        for i in 0..4u64 {
            assert!(b.peek(base + i * 4).is_some());
        }
    }

    #[test]
    fn lru_eviction_prefers_least_recent() {
        let cfg = BtbConfig {
            entries: 8,
            assoc: 4,
        };
        let mut b = Btb::new(cfg);
        // All in one 16B block -> one set; insert 4 then touch the first.
        let pcs: Vec<Addr> = (0..4).map(|i| Addr::new(0x1000 + i * 4)).collect();
        for &pc in &pcs {
            b.insert(pc, BranchKind::CondDirect, Addr::new(0x2000));
        }
        b.lookup(pcs[0]);
        // A 5th branch in the same set must evict pcs[1] (the LRU).
        // Find an aliasing address: same set index.
        let mut alias = Addr::new(0x1000 + 16);
        while b.set_index(alias) != b.set_index(pcs[0]) {
            alias = alias + 16;
        }
        b.insert(alias, BranchKind::CondDirect, Addr::new(0x3000));
        assert!(b.peek(pcs[0]).is_some(), "recently used survived");
        assert!(b.peek(pcs[1]).is_none(), "LRU evicted");
        assert!(b.peek(alias).is_some());
    }

    #[test]
    fn capacity_is_respected() {
        let mut b = btb(256);
        for i in 0..10_000u64 {
            b.insert(
                Addr::new(0x1_0000 + i * 4),
                BranchKind::CondDirect,
                Addr::new(0x2000),
            );
        }
        assert!(b.occupancy() <= 256);
    }

    #[test]
    fn bigger_btb_retains_more() {
        let mut small = btb(64);
        let mut large = btb(4096);
        let branches: Vec<Addr> = (0..1000u64).map(|i| Addr::new(0x1_0000 + i * 20)).collect();
        for &pc in &branches {
            small.insert(pc, BranchKind::CondDirect, Addr::new(0x2000));
            large.insert(pc, BranchKind::CondDirect, Addr::new(0x2000));
        }
        let small_hits = branches
            .iter()
            .filter(|&&pc| small.peek(pc).is_some())
            .count();
        let large_hits = branches
            .iter()
            .filter(|&&pc| large.peek(pc).is_some())
            .count();
        assert!(large_hits > small_hits * 4, "{large_hits} vs {small_hits}");
    }

    #[test]
    fn estimated_bytes_uses_paper_constant() {
        assert_eq!(BtbConfig::with_entries(4096).estimated_bytes(), 28 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Btb::new(BtbConfig {
            entries: 12,
            assoc: 4,
        });
    }
}
