//! A set-associative cache with LRU replacement and ready-time tracking.
//!
//! The timing model is the "ready-at" style used by trace-driven frontend
//! simulators: an access returns the cycle at which its data is available.
//! A missing line is filled immediately but marked *pending* until its
//! ready cycle, so later accesses to an in-flight line merge onto the same
//! fill (MSHR-style) instead of seeing an instant hit.
//!
//! Every fill carries a [`FillSrc`] so prefetched lines can be followed
//! from installation to their first demand touch (or eviction) and
//! classified into the [`PrefetchOutcomes`] taxonomy, separately for
//! decoupled-frontend (FDP) fills and dedicated-prefetcher fills.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::table::FillMap;
use fdip_types::Cycle;

/// Geometry and timing of one cache level.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency from access to data for a hit, in cycles.
    pub hit_latency: u64,
    /// Maximum in-flight fills; *prefetch* requests beyond this are
    /// dropped (demand requests are always accepted).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Who initiated a fill. Determines which [`PrefetchOutcomes`] bucket a
/// line's fate is charged to.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum FillSrc {
    /// A demand access (or a line already demand-touched).
    #[default]
    Demand,
    /// A decoupled-frontend fill: an FTQ fill-pipeline probe that ran
    /// ahead of the FTQ head (the fetch-directed prefetch itself).
    Fdp,
    /// A dedicated instruction prefetcher.
    Pf,
}

/// Lifetime taxonomy for prefetched lines, kept per [`FillSrc`].
///
/// Every request eventually lands in exactly one of the outcome classes
/// (or is still resident and untouched — the *unresolved* gauge), so
/// `requests == timely + late + useless_evicted + useless_replaced +
/// dropped + unresolved` holds at any instant.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PrefetchOutcomes {
    /// Prefetch requests attributed to this source.
    pub requests: u64,
    /// First demand touch arrived after the fill completed.
    pub timely: u64,
    /// First demand touch arrived while the fill was still in flight —
    /// the prefetch hid part, but not all, of the miss.
    pub late: u64,
    /// Evicted untouched by a demand fill.
    pub useless_evicted: u64,
    /// Replaced untouched by another prefetch fill.
    pub useless_replaced: u64,
    /// Dropped before filling: line already present/in flight, or no
    /// MSHR was free.
    pub dropped: u64,
}

impl PrefetchOutcomes {
    /// Sum of all resolved outcome classes (everything except the
    /// still-resident *unresolved* lines).
    pub fn resolved(&self) -> u64 {
        self.timely + self.late + self.useless_evicted + self.useless_replaced + self.dropped
    }
}

/// Per-cache event counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Demand accesses.
    pub demand_accesses: u64,
    /// Demand hits (including hits on still-pending lines).
    pub demand_hits: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Demand hits that merged onto an in-flight fill.
    pub demand_merged: u64,
    /// Prefetch requests received.
    pub prefetch_requests: u64,
    /// Prefetch requests that initiated a fill.
    pub prefetch_fills: u64,
    /// Prefetches dropped because the MSHRs were full.
    pub prefetch_dropped: u64,
    /// Demand accesses that hit a line brought in by a prefetch.
    pub useful_prefetches: u64,
    /// Tag-array probes (every lookup, hit or miss, demand or prefetch).
    pub tag_probes: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Lifetime taxonomy of decoupled-frontend (FDP) fills.
    pub outcomes_fdp: PrefetchOutcomes,
    /// Lifetime taxonomy of dedicated-prefetcher fills.
    pub outcomes_pf: PrefetchOutcomes,
}

#[derive(Copy, Clone, Debug, Default)]
struct Line {
    tag: u64,
    lru: u64,
    /// Who brought the line in; reset to [`FillSrc::Demand`] at the
    /// first demand touch (resolving its prefetch outcome).
    src: FillSrc,
}

/// Where a set's ways are in [`Cache`]'s shared way storage.
#[derive(Copy, Clone, Debug, Default)]
struct SetWays {
    /// One more than the position of the set's first way, or 0 before
    /// the set's first fill.
    start: u32,
    /// Ways in use.
    len: u8,
}

/// Result of a cache probe.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// Present; data ready at the given cycle (>= now for pending lines).
    Hit(Cycle),
    /// Absent.
    Miss,
}

/// One cache level.
///
/// Addresses are *line numbers* (byte address / line size); the caller
/// does the division once.
///
/// # Examples
///
/// ```
/// use fdip_mem::{Cache, CacheConfig, FillSrc, Lookup};
///
/// let mut c = Cache::new("L1I", CacheConfig {
///     size_bytes: 32 * 1024, assoc: 8, line_bytes: 64, hit_latency: 1, mshrs: 8,
/// });
/// assert_eq!(c.probe_demand(42, 100), Lookup::Miss);
/// c.fill(42, 180, FillSrc::Demand);
/// assert_eq!(c.probe_demand(42, 200), Lookup::Hit(201));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    config: CacheConfig,
    /// Where each set's ways are.
    sets: Vec<SetWays>,
    /// The ways of every set filled so far, `assoc` per set, in the
    /// order of the sets' first fills. Reserved once for every set, so
    /// filling never reallocates, and untouched sets touch no memory.
    ways: Vec<Line>,
    /// line -> ready cycle, for in-flight fills.
    pending: FillMap,
    stamp: u64,
    /// Source (and in-flight flag) of the prefetched line most recently
    /// resolved by a demand probe, if any since the last
    /// [`Cache::take_last_use`] — event-tracer hook, written only on the
    /// rare resolving probe.
    last_use: Option<(FillSrc, bool)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a positive power of two.
    pub fn new(name: &'static str, config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "{name}: set count must be a power of two, got {sets}"
        );
        assert!(config.assoc <= u8::MAX as usize, "{name}: at most 255 ways");
        Cache {
            name,
            config,
            sets: vec![SetWays::default(); sets],
            ways: Vec::with_capacity(sets * config.assoc),
            pending: FillMap::new(),
            stamp: 0,
            last_use: None,
            stats: CacheStats::default(),
        }
    }

    /// This cache's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Geometry in use.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Event counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// The lines held by set `set`.
    fn lines(&self, set: usize) -> &[Line] {
        let SetWays { start, len } = self.sets[set];
        match (start as usize).checked_sub(1) {
            Some(first) => &self.ways[first..first + len as usize],
            None => &[],
        }
    }

    /// The lines held by set `set`, mutably.
    fn lines_mut(&mut self, set: usize) -> &mut [Line] {
        let SetWays { start, len } = self.sets[set];
        match (start as usize).checked_sub(1) {
            Some(first) => &mut self.ways[first..first + len as usize],
            None => &mut [],
        }
    }

    fn find(&mut self, line: u64, touch: bool) -> Option<&mut Line> {
        let set = self.set_index(line);
        self.stamp += 1;
        let stamp = self.stamp;
        let l = self.lines_mut(set).iter_mut().find(|l| l.tag == line)?;
        if touch {
            l.lru = stamp;
        }
        Some(l)
    }

    /// Demand probe: updates LRU, counts stats, detects useful prefetches.
    pub fn probe_demand(&mut self, line: u64, now: Cycle) -> Lookup {
        self.stats.tag_probes += 1;
        self.stats.demand_accesses += 1;
        let mut used: Option<FillSrc> = None;
        let hit = if let Some(l) = self.find(line, true) {
            if l.src != FillSrc::Demand {
                used = Some(l.src);
                l.src = FillSrc::Demand;
            }
            true
        } else {
            false
        };
        if hit {
            self.stats.demand_hits += 1;
            // One pending lookup answers both questions: a still-in-flight
            // fill merges the demand onto it; a completed fill releases
            // its MSHR and the hit proceeds at the normal latency.
            let pending = self.pending.get(line);
            if let Some(src) = used {
                let in_flight = matches!(pending, Some(r) if r > now);
                // `used` is only ever Fdp or Pf (set when the hit line's
                // source was not Demand).
                let o = match src {
                    FillSrc::Fdp => &mut self.stats.outcomes_fdp,
                    _ => &mut self.stats.outcomes_pf,
                };
                if in_flight {
                    o.late += 1;
                } else {
                    o.timely += 1;
                }
                if src == FillSrc::Pf {
                    self.stats.useful_prefetches += 1;
                }
                self.last_use = Some((src, in_flight));
            }
            match pending {
                Some(r) if r > now => {
                    self.stats.demand_merged += 1;
                    Lookup::Hit(r)
                }
                Some(_) => {
                    self.pending.remove(line);
                    Lookup::Hit(now + self.config.hit_latency)
                }
                None => Lookup::Hit(now + self.config.hit_latency),
            }
        } else {
            self.stats.demand_misses += 1;
            Lookup::Miss
        }
    }

    /// Takes the source of the prefetched line the most recent
    /// [`Cache::probe_demand`] resolved, plus whether its fill was still
    /// in flight (a *late* use). `None` when no probe has resolved a
    /// prefetched line since the last take — the event tracer consumes
    /// this after each demand fetch, so the hot probe path only writes
    /// the slot on the (rare) resolving probe.
    pub fn take_last_use(&mut self) -> Option<(FillSrc, bool)> {
        self.last_use.take()
    }

    /// Tag-only probe for prefetchers and fill filters: counts a tag
    /// access, does not touch LRU or demand stats.
    pub fn probe_tag(&mut self, line: u64) -> bool {
        self.stats.tag_probes += 1;
        self.contains(line)
    }

    /// Silent presence check (no statistics; for tests and oracles).
    pub fn contains(&self, line: u64) -> bool {
        self.lines(self.set_index(line))
            .iter()
            .any(|l| l.tag == line)
    }

    /// Accounts a prefetch request arriving at this cache at cycle `now`.
    /// Returns `true` if the line was absent and the caller should
    /// perform the fill (i.e. MSHR space was available and the line is
    /// not already present or in flight).
    pub fn note_prefetch(&mut self, line: u64, now: Cycle) -> bool {
        self.stats.prefetch_requests += 1;
        self.stats.outcomes_pf.requests += 1;
        if self.probe_tag(line) || self.pending.contains(line) {
            self.stats.outcomes_pf.dropped += 1;
            return false;
        }
        if self.pending.len() >= self.config.mshrs {
            // Completed fills release their MSHRs; purge lazily.
            self.pending.retain(|_, ready| ready > now);
        }
        if self.pending.len() >= self.config.mshrs {
            self.stats.prefetch_dropped += 1;
            self.stats.outcomes_pf.dropped += 1;
            return false;
        }
        self.stats.prefetch_fills += 1;
        true
    }

    /// Accounts one decoupled-frontend fill initiation (an ahead-of-head
    /// FTQ probe that missed). The matching [`Cache::fill`] must pass
    /// [`FillSrc::Fdp`].
    pub(crate) fn note_fdp_fill(&mut self) {
        self.stats.outcomes_fdp.requests += 1;
    }

    /// Accounts one perfect-prefetcher ("instant") fill. Instant fills
    /// skip the tag/MSHR gauntlet of [`Cache::note_prefetch`] but are
    /// still prefetches: they count as a request and a fill so the
    /// outcome invariant covers them.
    pub(crate) fn note_instant_prefetch(&mut self) {
        self.stats.prefetch_requests += 1;
        self.stats.prefetch_fills += 1;
        self.stats.outcomes_pf.requests += 1;
    }

    /// Installs `line`, available at cycle `ready`, evicting LRU if the
    /// set is full. `src` records who brought the line in, for the
    /// prefetch-lifetime taxonomy; a victim that was never demand-touched
    /// resolves as `useless_evicted` (displaced by a demand fill) or
    /// `useless_replaced` (displaced by another prefetch).
    pub fn fill(&mut self, line: u64, ready: Cycle, src: FillSrc) {
        let set = self.set_index(line);
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(l) = self.lines_mut(set).iter_mut().find(|l| l.tag == line) {
            // Refill of a present line: refresh only.
            l.lru = stamp;
            return;
        }
        if self.sets[set].start == 0 {
            self.sets[set].start = self.ways.len() as u32 + 1;
            self.ways
                .resize(self.ways.len() + self.config.assoc, Line::default());
        }
        let SetWays { start, len } = self.sets[set];
        let (start, len) = (start as usize - 1, len as usize);
        let new = Line {
            tag: line,
            lru: stamp,
            src,
        };
        if len < self.config.assoc {
            self.ways[start + len] = new;
            self.sets[set].len += 1;
        } else {
            // A full set replaces its LRU way. The order of a set's ways
            // never matters: tags and stamps are unique within a set.
            let ways = &mut self.ways[start..start + len];
            let victim_idx = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i);
            if let Some(victim_idx) = victim_idx {
                let victim = std::mem::replace(&mut ways[victim_idx], new);
                self.pending.remove(victim.tag);
                self.stats.evictions += 1;
                if victim.src != FillSrc::Demand {
                    let o = match victim.src {
                        FillSrc::Fdp => &mut self.stats.outcomes_fdp,
                        _ => &mut self.stats.outcomes_pf,
                    };
                    if src == FillSrc::Demand {
                        o.useless_evicted += 1;
                    } else {
                        o.useless_replaced += 1;
                    }
                }
            }
        }
        if ready > 0 {
            self.pending.insert(line, ready);
        }
    }

    /// Resident lines filled by `src` and not yet demand-touched — the
    /// *unresolved* remainder of the outcome invariant. O(capacity);
    /// intended for tests and end-of-run checks, not the hot path.
    pub fn unresolved_prefetches(&self, src: FillSrc) -> u64 {
        (0..self.sets.len())
            .flat_map(|set| self.lines(set))
            .filter(|l| l.src == src)
            .count() as u64
    }

    /// Number of in-flight fills.
    pub fn inflight(&self) -> usize {
        self.pending.len()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_take_their_ways_from_one_reservation_on_first_fill() {
        let mut c = Cache::new(
            "T",
            CacheConfig {
                size_bytes: 4096,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 4,
            },
        );
        let sets = c.sets.len() as u64;
        let reserved = c.ways.capacity();
        assert!(reserved >= 64 && c.ways.is_empty());
        // Ten lines into set 3: eight fills, then two evictions.
        for k in 0..10 {
            c.fill(3 + k * sets, 0, FillSrc::Demand);
            assert_eq!(c.ways.len(), 8, "fill {k}");
            assert_eq!(c.occupancy(), (k as usize + 1).min(8));
        }
        assert_eq!(c.stats().evictions, 2);
        // One more set takes the next eight ways; the rest stay untouched.
        c.fill(5, 0, FillSrc::Demand);
        assert_eq!(c.ways.len(), 16);
        assert_eq!(c.ways.capacity(), reserved);
        assert_eq!(c.sets.iter().filter(|s| s.start != 0).count(), 2);
        assert!(c.contains(5) && c.contains(3 + 9 * sets) && !c.contains(3));
    }

    fn small() -> Cache {
        Cache::new(
            "T",
            CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 2,
                mshrs: 4,
            },
        )
    }

    fn outcome_invariant(c: &Cache, src: FillSrc) {
        let (o, requests) = match src {
            FillSrc::Pf => (c.stats().outcomes_pf, c.stats().outcomes_pf.requests),
            FillSrc::Fdp => (c.stats().outcomes_fdp, c.stats().outcomes_fdp.requests),
            FillSrc::Demand => panic!("demand fills have no prefetch outcomes"),
        };
        assert_eq!(
            o.resolved() + c.unresolved_prefetches(src),
            requests,
            "outcome invariant violated for {src:?}: {o:?}"
        );
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert_eq!(c.probe_demand(5, 10), Lookup::Miss);
        c.fill(5, 50, FillSrc::Demand);
        // Before ready: merged hit at the fill's ready time.
        assert_eq!(c.probe_demand(5, 20), Lookup::Hit(50));
        // After ready: normal hit latency.
        assert_eq!(c.probe_demand(5, 60), Lookup::Hit(62));
        let s = c.stats();
        assert_eq!(s.demand_misses, 1);
        assert_eq!(s.demand_hits, 2);
        assert_eq!(s.demand_merged, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small(); // 8 sets, 2 ways
                             // Three lines mapping to set 0 (multiples of 8).
        c.fill(0, 0, FillSrc::Demand);
        c.fill(8, 0, FillSrc::Demand);
        c.probe_demand(0, 1); // touch line 0 so line 8 is LRU
        c.fill(16, 0, FillSrc::Demand);
        assert!(c.contains(0));
        assert!(!c.contains(8));
        assert!(c.contains(16));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn prefetch_usefulness_tracked() {
        let mut c = small();
        assert!(c.note_prefetch(3, 0));
        c.fill(3, 30, FillSrc::Pf);
        assert_eq!(c.probe_demand(3, 40), Lookup::Hit(42));
        assert_eq!(c.stats().useful_prefetches, 1);
        assert_eq!(c.stats().outcomes_pf.timely, 1);
        assert_eq!(c.take_last_use(), Some((FillSrc::Pf, false)));
        // Second demand hit is no longer "useful".
        c.probe_demand(3, 50);
        assert_eq!(c.stats().useful_prefetches, 1);
        assert_eq!(c.stats().outcomes_pf.timely, 1);
        assert_eq!(c.take_last_use(), None);
        outcome_invariant(&c, FillSrc::Pf);
    }

    #[test]
    fn late_prefetch_counts_as_late_not_timely() {
        let mut c = small();
        assert!(c.note_prefetch(3, 0));
        c.fill(3, 30, FillSrc::Pf);
        // Demand arrives at cycle 10, fill completes at 30: late.
        assert_eq!(c.probe_demand(3, 10), Lookup::Hit(30));
        let o = c.stats().outcomes_pf;
        assert_eq!((o.timely, o.late), (0, 1));
        // Late uses still count toward usefulness (the line was wanted).
        assert_eq!(c.stats().useful_prefetches, 1);
        assert_eq!(c.take_last_use(), Some((FillSrc::Pf, true)));
        outcome_invariant(&c, FillSrc::Pf);
    }

    #[test]
    fn untouched_prefetch_eviction_is_classified_by_displacer() {
        let mut c = small(); // 8 sets, 2 ways; lines ≡ 0 (mod 8) share set 0
        assert!(c.note_prefetch(0, 0));
        c.fill(0, 0, FillSrc::Pf);
        assert!(c.note_prefetch(8, 1));
        c.fill(8, 0, FillSrc::Pf);
        // A demand fill displaces line 0 (the LRU): useless_evicted.
        c.fill(16, 0, FillSrc::Demand);
        assert_eq!(c.stats().outcomes_pf.useless_evicted, 1);
        // Another prefetch displaces line 8: useless_replaced.
        assert!(c.note_prefetch(24, 2));
        c.fill(24, 0, FillSrc::Pf);
        assert_eq!(c.stats().outcomes_pf.useless_replaced, 1);
        outcome_invariant(&c, FillSrc::Pf);
    }

    #[test]
    fn fdp_fills_resolve_into_their_own_bucket() {
        let mut c = small();
        c.note_fdp_fill();
        c.fill(5, 40, FillSrc::Fdp);
        assert_eq!(c.probe_demand(5, 100), Lookup::Hit(102));
        let s = c.stats();
        assert_eq!(s.outcomes_fdp.timely, 1);
        // FDP fills are not dedicated-prefetcher fills: the legacy
        // usefulness counter must not move.
        assert_eq!(s.useful_prefetches, 0);
        assert_eq!(s.outcomes_pf.requests, 0);
        outcome_invariant(&c, FillSrc::Fdp);
    }

    #[test]
    fn redundant_prefetch_is_filtered_but_probes_tags() {
        let mut c = small();
        c.fill(7, 0, FillSrc::Demand);
        let before = c.stats().tag_probes;
        assert!(!c.note_prefetch(7, 0));
        assert_eq!(c.stats().tag_probes, before + 1);
        assert_eq!(c.stats().prefetch_fills, 0);
        // Redundant requests resolve immediately as dropped.
        assert_eq!(c.stats().outcomes_pf.dropped, 1);
        outcome_invariant(&c, FillSrc::Pf);
    }

    #[test]
    fn prefetch_mshr_limit_drops() {
        let mut c = small(); // mshrs = 4
        for line in 0..4 {
            assert!(c.note_prefetch(line, 0));
            c.fill(line, 1000, FillSrc::Pf);
        }
        assert_eq!(c.inflight(), 4);
        // At cycle 10 the fills are still in flight: dropped.
        assert!(!c.note_prefetch(100, 10));
        assert_eq!(c.stats().prefetch_dropped, 1);
        assert_eq!(c.stats().outcomes_pf.dropped, 1);
        // Once the fills complete, MSHRs free up again. (The invariant
        // requires the fill a `true` return promises.)
        assert!(c.note_prefetch(100, 2_000));
        c.fill(100, 2_100, FillSrc::Pf);
        outcome_invariant(&c, FillSrc::Pf);
    }

    #[test]
    fn demand_ignores_mshr_limit() {
        let mut c = small();
        for line in 0..4 {
            c.fill(line, 1000, FillSrc::Demand);
        }
        // Demand probes still work and fills still accepted.
        assert_eq!(c.probe_demand(50, 10), Lookup::Miss);
        c.fill(50, 500, FillSrc::Demand);
        assert_eq!(c.probe_demand(50, 20), Lookup::Hit(500));
    }

    #[test]
    fn eviction_clears_pending() {
        let mut c = small();
        c.fill(0, 100, FillSrc::Demand);
        c.fill(8, 100, FillSrc::Demand);
        c.fill(16, 100, FillSrc::Demand); // evicts one of the set-0 lines
        assert!(c.inflight() <= 2);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.fill(1, 0, FillSrc::Demand);
        c.fill(2, 0, FillSrc::Demand);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(
            "bad",
            CacheConfig {
                size_bytes: 999,
                assoc: 1,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 1,
            },
        );
    }
}
