//! The full memory hierarchy: split L1I/L1D, unified L2, LLC, DRAM.
//!
//! Parameters default to the ChampSim/IPC-1 + Sunny Cove class
//! configuration the paper uses (§V, Table IV): 32KB L1I, 48KB L1D,
//! 512KB L2, 2MB LLC, ~200-cycle DRAM.

use crate::cache::{Cache, CacheConfig, CacheStats, FillSrc, Lookup};
use fdip_types::Cycle;

/// Hierarchy-wide configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 16,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                assoc: 12,
                line_bytes: 64,
                hit_latency: 4,
                mshrs: 16,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 12,
                mshrs: 32,
            },
            llc: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                hit_latency: 36,
                mshrs: 64,
            },
            dram_latency: 200,
        }
    }
}

/// Traffic counters below the L1s.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TrafficStats {
    /// Requests that reached DRAM.
    pub dram_accesses: u64,
    /// Requests sent below the L1I by prefetches (traffic overhead).
    pub prefetch_traffic: u64,
    /// Total cycles instruction-fetch demands waited for data.
    pub ifetch_wait_cycles: u64,
}

/// The assembled memory hierarchy.
///
/// All addresses are **line numbers** (byte address / 64).
///
/// # Examples
///
/// ```
/// use fdip_mem::{Hierarchy, HierarchyConfig};
///
/// let mut mem = Hierarchy::new(HierarchyConfig::default());
/// let cold = mem.fetch_instr_line(100, 0);
/// assert!(cold > 200); // went to DRAM
/// let warm = mem.fetch_instr_line(100, cold);
/// assert_eq!(warm, cold + 1); // L1I hit
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    traffic: TrafficStats,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            config,
            l1i: Cache::new("L1I", config.l1i),
            l1d: Cache::new("L1D", config.l1d),
            l2: Cache::new("L2", config.l2),
            llc: Cache::new("LLC", config.llc),
            traffic: TrafficStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// L1I counters (tag probes feed Fig. 9).
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L1D counters.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Below-L1 traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Resolves a miss below the L1s: L2 → LLC → DRAM. Returns the cycle
    /// at which the line reaches the L1's fill port.
    fn fetch_from_l2(&mut self, line: u64, now: Cycle) -> Cycle {
        match self.l2.probe_demand(line, now) {
            Lookup::Hit(r) => r,
            Lookup::Miss => {
                let at_llc = now + self.config.l2.hit_latency;
                let ready = match self.llc.probe_demand(line, at_llc) {
                    Lookup::Hit(r) => r,
                    Lookup::Miss => {
                        let r = at_llc + self.config.llc.hit_latency + self.config.dram_latency;
                        self.traffic.dram_accesses += 1;
                        self.llc.fill(line, r, FillSrc::Demand);
                        r
                    }
                };
                self.l2.fill(line, ready, FillSrc::Demand);
                ready
            }
        }
    }

    /// Demand instruction fetch of a line. Returns the data-ready cycle.
    pub fn fetch_instr_line(&mut self, line: u64, now: Cycle) -> Cycle {
        self.fetch_instr_line_decoupled(line, now, false)
    }

    /// Instruction fetch from the FTQ fill pipeline. `ahead` marks
    /// probes issued while the entry was *not yet* the FTQ head — on a
    /// miss those install the line as an [`FillSrc::Fdp`] fill, so the
    /// fetch-directed prefetch itself is tracked in the prefetch-outcome
    /// taxonomy (head probes are plain demand). Returns the data-ready
    /// cycle.
    pub fn fetch_instr_line_decoupled(&mut self, line: u64, now: Cycle, ahead: bool) -> Cycle {
        let ready = match self.l1i.probe_demand(line, now) {
            Lookup::Hit(r) => r,
            Lookup::Miss => {
                let r = self.fetch_from_l2(line, now + self.config.l1i.hit_latency);
                let src = if ahead {
                    self.l1i.note_fdp_fill();
                    FillSrc::Fdp
                } else {
                    FillSrc::Demand
                };
                self.l1i.fill(line, r, src);
                r
            }
        };
        self.traffic.ifetch_wait_cycles += ready - now;
        ready
    }

    /// Takes the source of the prefetched line the most recent
    /// instruction fetch resolved, plus whether its fill was still in
    /// flight (event-tracer hook; see [`Cache::take_last_use`]).
    pub fn take_last_instr_use(&mut self) -> Option<(FillSrc, bool)> {
        self.l1i.take_last_use()
    }

    /// Resident L1I lines filled by `src` and never demand-touched —
    /// the *unresolved* remainder of the prefetch-outcome invariant.
    /// O(capacity); for tests and end-of-run checks.
    pub fn l1i_unresolved_prefetches(&self, src: FillSrc) -> u64 {
        self.l1i.unresolved_prefetches(src)
    }

    /// Tag-only L1I probe (the FTQ fill pipeline and prefetch filters use
    /// this; every call counts an I-cache tag access for Fig. 9).
    pub fn probe_instr_tag(&mut self, line: u64) -> bool {
        self.l1i.probe_tag(line)
    }

    /// Is the line (or an in-flight fill of it) present in the L1I?
    /// Silent: no statistics.
    pub fn instr_line_present(&self, line: u64) -> bool {
        self.l1i.contains(line)
    }

    /// Issues an instruction prefetch. Probes the L1I tags; if absent and
    /// MSHR space allows, fetches the line from below and installs it
    /// (ready after the full round trip). Returns `true` if a fill was
    /// initiated.
    pub fn prefetch_instr_line(&mut self, line: u64, now: Cycle) -> bool {
        if !self.l1i.note_prefetch(line, now) {
            return false;
        }
        self.traffic.prefetch_traffic += 1;
        let ready = self.fetch_from_l2(line, now + self.config.l1i.hit_latency);
        self.l1i.fill(line, ready, FillSrc::Pf);
        true
    }

    /// Perfect-prefetch semantics (§V): the line appears in the L1I
    /// instantly, but the request still traverses the lower levels so
    /// traffic overhead is simulated.
    pub fn prefetch_instr_line_instant(&mut self, line: u64, now: Cycle) {
        if self.l1i.contains(line) {
            return;
        }
        self.l1i.note_instant_prefetch();
        self.traffic.prefetch_traffic += 1;
        let _ = self.fetch_from_l2(line, now);
        self.l1i.fill(line, now, FillSrc::Pf);
    }

    /// Pre-installs instruction lines into the LLC (used to model the
    /// paper's 50M-instruction warm-up, after which the code footprint
    /// is LLC-resident; DESIGN.md §2).
    pub fn prewarm_llc_instr(&mut self, lines: impl Iterator<Item = u64>) {
        for line in lines {
            self.llc.fill(line, 0, FillSrc::Demand);
        }
    }

    /// Demand data access (loads and stores). Returns the data-ready
    /// cycle.
    pub fn access_data_line(&mut self, line: u64, now: Cycle) -> Cycle {
        match self.l1d.probe_demand(line, now) {
            Lookup::Hit(r) => r,
            Lookup::Miss => {
                let ready = self.fetch_from_l2(line, now + self.config.l1d.hit_latency);
                self.l1d.fill(line, ready, FillSrc::Demand);
                ready
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_fetch_goes_to_dram() {
        let mut m = mem();
        let ready = m.fetch_instr_line(1000, 0);
        // 1 (L1I) + 12 (L2) + 36 (LLC) + 200 (DRAM)
        assert!(ready >= 200, "ready={ready}");
        assert_eq!(m.traffic().dram_accesses, 1);
    }

    #[test]
    fn second_fetch_hits_l1i() {
        let mut m = mem();
        let r1 = m.fetch_instr_line(1000, 0);
        let r2 = m.fetch_instr_line(1000, r1 + 10);
        assert_eq!(r2, r1 + 10 + 1);
        assert_eq!(m.l1i_stats().demand_hits, 1);
    }

    #[test]
    fn l2_keeps_evicted_l1i_lines_warm() {
        let mut m = mem();
        // Fill far more lines than L1I holds (512 lines).
        let mut t = 0;
        for line in 0..2000u64 {
            t = m.fetch_instr_line(line, t);
        }
        // Re-fetch line 0: L1I evicted it, L2 (8192 lines) still has it.
        let before_dram = m.traffic().dram_accesses;
        let start = t + 10;
        let ready = m.fetch_instr_line(0, start);
        assert_eq!(m.traffic().dram_accesses, before_dram);
        assert!(ready < start + m.config().dram_latency, "hit below DRAM");
    }

    #[test]
    fn prefetch_then_demand_is_a_useful_hit() {
        let mut m = mem();
        assert!(m.prefetch_instr_line(77, 0));
        let ready = m.fetch_instr_line(77, 500);
        assert_eq!(ready, 501);
        assert_eq!(m.l1i_stats().useful_prefetches, 1);
    }

    #[test]
    fn early_demand_merges_with_prefetch() {
        let mut m = mem();
        assert!(m.prefetch_instr_line(77, 0));
        // Demand arrives before the prefetch completes: merged, waits.
        let ready = m.fetch_instr_line(77, 5);
        assert!(ready > 100, "merged onto in-flight fill: {ready}");
        assert_eq!(m.l1i_stats().demand_merged, 1);
    }

    #[test]
    fn instant_prefetch_is_ready_immediately_but_counts_traffic() {
        let mut m = mem();
        m.prefetch_instr_line_instant(55, 10);
        assert_eq!(m.fetch_instr_line(55, 11), 12);
        assert_eq!(m.traffic().prefetch_traffic, 1);
        assert_eq!(m.traffic().dram_accesses, 1);
        // Instant fills join the prefetch-outcome taxonomy too.
        let s = m.l1i_stats();
        assert_eq!(s.prefetch_requests, 1);
        assert_eq!(s.outcomes_pf.requests, 1);
        assert_eq!(s.outcomes_pf.timely, 1);
    }

    #[test]
    fn ahead_probe_installs_an_fdp_tracked_fill() {
        let mut m = mem();
        // A fill-pipeline probe ahead of the FTQ head misses: the line
        // installs as an FDP fill and stays unresolved until touched.
        let ready = m.fetch_instr_line_decoupled(500, 0, true);
        assert!(ready > 0);
        let s = m.l1i_stats();
        assert_eq!(s.outcomes_fdp.requests, 1);
        assert_eq!(m.l1i_unresolved_prefetches(FillSrc::Fdp), 1);
        // The head fetch after the fill completes resolves it as timely.
        m.fetch_instr_line(500, ready + 10);
        let o = m.l1i_stats().outcomes_fdp;
        assert_eq!((o.timely, o.late), (1, 0));
        assert_eq!(m.l1i_unresolved_prefetches(FillSrc::Fdp), 0);
        assert_eq!(m.take_last_instr_use(), Some((FillSrc::Fdp, false)));
        // FDP fills never touch the dedicated-prefetcher usefulness
        // counter.
        assert_eq!(m.l1i_stats().useful_prefetches, 0);
    }

    #[test]
    fn head_probe_that_arrives_during_fdp_fill_is_late() {
        let mut m = mem();
        let ready = m.fetch_instr_line_decoupled(501, 0, true);
        // Demand arrives before the fill completes: late FDP fill.
        m.fetch_instr_line(501, ready - 1);
        let o = m.l1i_stats().outcomes_fdp;
        assert_eq!((o.timely, o.late), (0, 1));
        assert_eq!(m.take_last_instr_use(), Some((FillSrc::Fdp, true)));
    }

    #[test]
    fn tag_probe_counts_without_lru_effects() {
        let mut m = mem();
        let probes0 = m.l1i_stats().tag_probes;
        assert!(!m.probe_instr_tag(9));
        m.fetch_instr_line(9, 0);
        assert!(m.probe_instr_tag(9));
        assert_eq!(m.l1i_stats().tag_probes, probes0 + 3); // 2 probes + 1 demand
    }

    #[test]
    fn data_side_is_independent_of_instruction_side() {
        let mut m = mem();
        m.fetch_instr_line(4, 0);
        // Same line number on the data side still misses L1D but hits L2.
        let before = m.traffic().dram_accesses;
        let ready = m.access_data_line(4, 1000);
        assert_eq!(m.traffic().dram_accesses, before);
        assert!(ready < 1000 + m.config().dram_latency);
    }

    #[test]
    fn redundant_prefetch_returns_false() {
        let mut m = mem();
        m.fetch_instr_line(3, 0);
        assert!(!m.prefetch_instr_line(3, 10));
        assert_eq!(m.traffic().prefetch_traffic, 0);
    }
}
