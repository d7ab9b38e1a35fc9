//! Simulation statistics: raw counters plus the derived metrics the
//! paper's figures report (IPC, branch MPKI, starvation cycles/KI,
//! I-cache tag accesses/KI, exposure classification).

use fdip_bpred::BtbStats;
use fdip_mem::{CacheStats, PrefetchOutcomes, TrafficStats};
use fdip_telemetry::{Json, ToJson};

use crate::record::{record, Counters, Wire};

/// Display/schema names of the stall buckets, indexed by
/// [`StallReason::index`]. Also the label table handed to
/// `fdip_trace::Tracer::to_chrome_trace`.
pub const STALL_REASON_NAMES: [&str; 8] = [
    "committing",
    "backend",
    "fetch_bw",
    "icache_miss",
    "ftq_empty",
    "pred_latency",
    "redirect",
    "pfc_restream",
];

/// The single bucket a simulated cycle is charged to.
///
/// Classification is a priority tree evaluated once per cycle at the end
/// of `Simulator::step`; every cycle lands in exactly one bucket, so the
/// per-bucket counters in [`StallCycles`] always sum to `cycles`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum StallReason {
    /// At least one instruction retired this cycle.
    Committing = 0,
    /// Nothing retired but the decode queue is full: the backend
    /// (execution latency, ROB, retire width) is the bottleneck.
    Backend = 1,
    /// The FTQ head is fetch-ready but the decode queue still starved:
    /// fetch bandwidth (or a mid-entry taken-branch break) limited
    /// delivery.
    FetchBw = 2,
    /// The decode queue starved while the FTQ head waits on an
    /// in-flight I-cache fill — the exposed-miss stall of §VI-G.
    IcacheMiss = 3,
    /// The decode queue starved with an empty FTQ (prediction pipeline
    /// could not stay ahead).
    FtqEmpty = 4,
    /// Predictor/BTB/fetch-pipeline latency: the BTB-latency portion of
    /// a redirect, an entry awaiting its tag lookup, or an I-cache hit
    /// still in its hit-latency window.
    PredLatency = 5,
    /// The post-BTB-latency portion of an execute-time misprediction
    /// redirect penalty.
    Redirect = 6,
    /// The post-BTB-latency portion of a PFC restream penalty (§III-B).
    PfcRestream = 7,
}

impl StallReason {
    /// Every bucket, in [`STALL_REASON_NAMES`] order.
    pub const ALL: [StallReason; 8] = [
        StallReason::Committing,
        StallReason::Backend,
        StallReason::FetchBw,
        StallReason::IcacheMiss,
        StallReason::FtqEmpty,
        StallReason::PredLatency,
        StallReason::Redirect,
        StallReason::PfcRestream,
    ];

    /// Index into [`STALL_REASON_NAMES`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Schema name of this bucket.
    pub fn name(self) -> &'static str {
        STALL_REASON_NAMES[self.index()]
    }
}

/// Per-bucket cycle counts, indexed by [`StallReason`]; the invariant
/// `sum() == cycles` is asserted at the end of every
/// `Simulator::run_detailed` and in tests.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct StallCycles([u64; STALL_REASON_NAMES.len()]);

impl StallCycles {
    /// Charges one cycle to bucket `r`.
    pub fn charge(&mut self, r: StallReason) {
        self.0[r.index()] += 1;
    }

    /// Cycles charged to bucket `r`.
    pub fn get(&self, r: StallReason) -> u64 {
        self.0[r.index()]
    }

    /// Total cycles across all buckets (must equal `cycles`).
    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Field-wise difference (interval arithmetic).
    pub fn sub(&self, b: &StallCycles) -> StallCycles {
        StallCycles(std::array::from_fn(|i| self.0[i] - b.0[i]))
    }
}

impl Counters for StallCycles {
    fn sub(&self, earlier: &StallCycles) -> StallCycles {
        StallCycles::sub(self, earlier)
    }
}

/// An object keyed by [`STALL_REASON_NAMES`].
impl Wire for StallCycles {
    fn encode(&self) -> Json {
        let mut out = Json::obj();
        for r in StallReason::ALL {
            out.set(r.name(), self.get(r));
        }
        out
    }
    fn decode(v: &Json) -> Option<StallCycles> {
        let mut out = StallCycles::default();
        for r in StallReason::ALL {
            out.0[r.index()] = v.get(r.name())?.as_u64()?;
        }
        Some(out)
    }
}

/// Raw counters collected over a simulation interval.
///
/// Supports interval arithmetic (`delta`) so warm-up can be excluded.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Committed (correct-path) instructions retired.
    pub retired: u64,
    /// Committed branches retired.
    pub retired_branches: u64,
    /// Committed conditional branches retired.
    pub retired_cond: u64,
    /// Branch mispredictions resolved at execute (all causes).
    pub mispredicts: u64,
    /// ... of which: conditional direction wrong (branch was detected).
    pub misp_cond_dir: u64,
    /// ... of which: BTB-miss taken branches that went undetected.
    pub misp_undetected: u64,
    /// ... of which: wrong target from the indirect predictor.
    pub misp_indirect: u64,
    /// ... of which: wrong return target from the RAS.
    pub misp_return: u64,
    /// Execute-time pipeline flushes.
    pub flushes: u64,
    /// PFC restreams performed (both Fig. 5 cases).
    pub pfc_restreams: u64,
    /// ... of which case 1 (unconditional before block end).
    pub pfc_case1: u64,
    /// ... of which case 2 (hinted conditional, BTB miss).
    pub pfc_case2: u64,
    /// PFC restreams that steered onto a wrong path (harmful PFC,
    /// §VI-B) — known when the restreamed branch was on the committed
    /// path and actually not taken.
    pub pfc_harmful: u64,
    /// Frontend flushes performed to repair direction history on
    /// BTB-miss branches (GHR2/GHR3 policies).
    pub fixup_flushes: u64,
    /// Cycles in which the decode queue held fewer than `decode_width`
    /// instructions (§VI-D "starvation").
    pub starvation_cycles: u64,
    /// Sum of FTQ occupancy per cycle (for average occupancy).
    pub ftq_occupancy_sum: u64,
    /// I-cache misses (from FTQ fill probes) that were covered: the line
    /// arrived before causing a starvation cycle (§VI-G).
    pub miss_covered: u64,
    /// ... partially exposed.
    pub miss_partial: u64,
    /// ... fully exposed (requested only once the entry was FTQ head).
    pub miss_full: u64,
    /// Prefetch candidate lines emitted by the dedicated prefetcher.
    pub prefetch_candidates: u64,
    /// Per-bucket cycle attribution (`sum == cycles` always).
    pub stall: StallCycles,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Below-L1 traffic counters.
    pub traffic: TrafficStats,
    /// BTB counters.
    pub btb: BtbStats,
}

// One field list per counter group: `SimStats::delta`, `from_json` and
// the `counters` block of `to_json` all derive from these.
record!(counters SimStats {
    cycles, retired, retired_branches, retired_cond, mispredicts,
    misp_cond_dir, misp_undetected, misp_indirect, misp_return,
    flushes, pfc_restreams, pfc_case1, pfc_case2, pfc_harmful,
    fixup_flushes, starvation_cycles, ftq_occupancy_sum,
    miss_covered, miss_partial, miss_full, prefetch_candidates,
    stall => "stall_cycles", l1i, l1d, l2, traffic, btb,
});
record!(counters CacheStats {
    demand_accesses, demand_hits, demand_misses, demand_merged,
    prefetch_requests, prefetch_fills, prefetch_dropped,
    useful_prefetches, tag_probes, evictions,
    outcomes_fdp => "prefetch_outcomes" / "fdp",
    outcomes_pf => "prefetch_outcomes" / "pf",
});
record!(counters PrefetchOutcomes {
    requests, timely, late, useless_evicted, useless_replaced, dropped,
});
record!(counters TrafficStats { dram_accesses, prefetch_traffic, ifetch_wait_cycles });
record!(counters BtbStats { lookups, hits, allocs });

impl SimStats {
    /// Counters accumulated between `earlier` and `self` (used to strip
    /// warm-up).
    pub fn delta(&self, earlier: &SimStats) -> SimStats {
        Counters::sub(self, earlier)
    }

    /// Parses the `counters` block of [`SimStats::to_json`] back, exactly:
    /// `SimStats::from_json(&s.to_json()) == Some(s)`, which the
    /// `fdip-serve` result cache relies on. Derived metrics are
    /// recomputed on demand. `None` if a counter is missing or mistyped.
    pub fn from_json(v: &Json) -> Option<SimStats> {
        SimStats::decode(v.get("counters")?)
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.retired as f64 / self.cycles as f64
    }

    /// Branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        1000.0 * self.mispredicts as f64 / self.retired as f64
    }

    /// L1I demand misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        1000.0 * self.l1i.demand_misses as f64 / self.retired as f64
    }

    /// Starvation cycles per kilo-instruction (§VI-D).
    pub fn starvation_pki(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        1000.0 * self.starvation_cycles as f64 / self.retired as f64
    }

    /// I-cache tag-array accesses per kilo-instruction (Fig. 9).
    pub fn icache_tag_pki(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        1000.0 * self.l1i.tag_probes as f64 / self.retired as f64
    }

    /// Average FTQ occupancy.
    pub fn avg_ftq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ftq_occupancy_sum as f64 / self.cycles as f64
    }

    /// Fraction of I-cache misses that were fully or partially exposed
    /// (§VI-G).
    pub fn exposed_fraction(&self) -> f64 {
        let total = self.miss_covered + self.miss_partial + self.miss_full;
        if total == 0 {
            return 0.0;
        }
        (self.miss_partial + self.miss_full) as f64 / total as f64
    }

    /// BTB demand hit rate.
    pub fn btb_hit_rate(&self) -> f64 {
        if self.btb.lookups == 0 {
            return 0.0;
        }
        self.btb.hits as f64 / self.btb.lookups as f64
    }

    /// Fraction of PFC restreams that steered onto a wrong path
    /// (harmful PFC, §VI-B).
    pub fn pfc_harmful_rate(&self) -> f64 {
        if self.pfc_restreams == 0 {
            return 0.0;
        }
        self.pfc_harmful as f64 / self.pfc_restreams as f64
    }

    /// Fraction of cycles charged to frontend stall buckets (everything
    /// except `committing` and `backend`).
    pub fn frontend_bound_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let fe: u64 = StallReason::ALL
            .into_iter()
            .filter(|r| !matches!(r, StallReason::Committing | StallReason::Backend))
            .map(|r| self.stall.get(r))
            .sum();
        fe as f64 / self.cycles as f64
    }

    /// Dedicated-prefetcher accuracy at the L1I: demand-used fills over
    /// all fills whose fate is known (dropped requests and still-resident
    /// lines excluded).
    pub fn pf_accuracy(&self) -> f64 {
        outcome_accuracy(&self.l1i.outcomes_pf)
    }

    /// Of the demand-used dedicated-prefetcher fills, the fraction that
    /// completed before the demand arrived.
    pub fn pf_timeliness(&self) -> f64 {
        outcome_timeliness(&self.l1i.outcomes_pf)
    }

    /// Dedicated-prefetcher coverage at the L1I: demand-used fills over
    /// used fills plus remaining demand misses.
    pub fn pf_coverage(&self) -> f64 {
        outcome_coverage(&self.l1i.outcomes_pf, self.l1i.demand_misses)
    }

    /// FDP (decoupled ahead-of-head fill) accuracy at the L1I; same
    /// definition as [`SimStats::pf_accuracy`].
    pub fn fdp_accuracy(&self) -> f64 {
        outcome_accuracy(&self.l1i.outcomes_fdp)
    }

    /// Of the demand-used FDP fills, the fraction that completed before
    /// the FTQ head demanded them.
    pub fn fdp_timeliness(&self) -> f64 {
        outcome_timeliness(&self.l1i.outcomes_fdp)
    }
}

fn outcome_accuracy(o: &PrefetchOutcomes) -> f64 {
    let used = o.timely + o.late;
    let resolved_fills = used + o.useless_evicted + o.useless_replaced;
    if resolved_fills == 0 {
        return 0.0;
    }
    used as f64 / resolved_fills as f64
}

fn outcome_timeliness(o: &PrefetchOutcomes) -> f64 {
    let used = o.timely + o.late;
    if used == 0 {
        return 0.0;
    }
    o.timely as f64 / used as f64
}

fn outcome_coverage(o: &PrefetchOutcomes, demand_misses: u64) -> f64 {
    let used = o.timely + o.late;
    if used + demand_misses == 0 {
        return 0.0;
    }
    used as f64 / (used + demand_misses) as f64
}

impl ToJson for SimStats {
    /// Serializes as `{counters: {...}, derived: {...}}` — every raw
    /// counter (with nested `l1i`/`l1d`/`l2`/`traffic`/`btb` groups)
    /// plus every derived metric. The field names are the schema
    /// documented in `docs/METRICS.md`.
    fn to_json(&self) -> Json {
        let per_ki = |v: u64| {
            if self.retired == 0 {
                0.0
            } else {
                1000.0 * v as f64 / self.retired as f64
            }
        };
        let mut stall_pki = Json::obj();
        for r in StallReason::ALL {
            stall_pki.set(r.name(), per_ki(self.stall.get(r)));
        }
        let derived = Json::obj()
            .with("ipc", self.ipc())
            .with("branch_mpki", self.branch_mpki())
            .with("l1i_mpki", self.l1i_mpki())
            .with("starvation_pki", self.starvation_pki())
            .with("icache_tag_pki", self.icache_tag_pki())
            .with("avg_ftq_occupancy", self.avg_ftq_occupancy())
            .with("exposed_fraction", self.exposed_fraction())
            .with("btb_hit_rate", self.btb_hit_rate())
            .with("pfc_harmful_rate", self.pfc_harmful_rate())
            .with("stall_pki", stall_pki)
            .with("frontend_bound_fraction", self.frontend_bound_fraction())
            .with("pf_accuracy", self.pf_accuracy())
            .with("pf_timeliness", self.pf_timeliness())
            .with("pf_coverage", self.pf_coverage())
            .with("fdp_accuracy", self.fdp_accuracy())
            .with("fdp_timeliness", self.fdp_timeliness());
        Json::obj()
            .with("counters", self.encode())
            .with("derived", derived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            cycles: 1000,
            retired: 2000,
            retired_branches: 400,
            mispredicts: 10,
            starvation_cycles: 100,
            miss_covered: 30,
            miss_partial: 10,
            miss_full: 10,
            ftq_occupancy_sum: 12_000,
            ..SimStats::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample();
        assert!((s.ipc() - 2.0).abs() < 1e-9);
        assert!((s.branch_mpki() - 5.0).abs() < 1e-9);
        assert!((s.starvation_pki() - 50.0).abs() < 1e-9);
        assert!((s.avg_ftq_occupancy() - 12.0).abs() < 1e-9);
        assert!((s.exposed_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let z = SimStats::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.branch_mpki(), 0.0);
        assert_eq!(z.exposed_fraction(), 0.0);
        assert_eq!(z.btb_hit_rate(), 0.0);
    }

    #[test]
    fn to_json_round_trips_counters_and_derived() {
        let s = sample();
        let j = s.to_json();
        let round = Json::parse(&j.to_string()).unwrap();
        let counters = round.get("counters").unwrap();
        assert_eq!(counters.get("cycles").and_then(Json::as_u64), Some(1000));
        assert_eq!(counters.get("retired").and_then(Json::as_u64), Some(2000));
        assert!(counters
            .get("l1i")
            .and_then(|c| c.get("tag_probes"))
            .is_some());
        let derived = round.get("derived").unwrap();
        assert!((derived.get("ipc").and_then(Json::as_f64).unwrap() - 2.0).abs() < 1e-9);
        assert!(
            (derived
                .get("starvation_pki")
                .and_then(Json::as_f64)
                .unwrap()
                - 50.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn from_json_inverts_to_json_exactly() {
        let mut s = sample();
        s.stall.charge(StallReason::IcacheMiss);
        s.l1i.outcomes_fdp.requests = 9;
        s.l1i.outcomes_fdp.timely = 4;
        s.l1d.demand_accesses = 77;
        s.l2.evictions = 3;
        s.traffic.dram_accesses = 12;
        s.btb.lookups = 500;
        s.btb.hits = 480;
        let parsed = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(SimStats::from_json(&parsed), Some(s));
        // A document missing a counter is rejected rather than zeroed.
        let c = parsed.get("counters").unwrap().clone();
        let truncated = Json::obj().with("counters", c.with("cycles", Json::Null));
        assert_eq!(SimStats::from_json(&truncated), None);
    }

    #[test]
    fn stall_sum_covers_every_bucket() {
        let mut s = StallCycles::default();
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                s.charge(r);
            }
            assert_eq!(s.get(r), i as u64 + 1);
            assert_eq!(r.name(), STALL_REASON_NAMES[r.index()]);
        }
        assert_eq!(s.sum(), (1..=8).sum::<u64>());
        let d = s.sub(&s);
        assert_eq!(d.sum(), 0);
    }

    #[test]
    fn stall_and_outcome_blocks_survive_json() {
        let mut s = sample();
        s.stall.charge(StallReason::IcacheMiss);
        s.stall.charge(StallReason::Committing);
        s.l1i.outcomes_fdp.requests = 9;
        s.l1i.outcomes_fdp.timely = 4;
        s.l1i.outcomes_fdp.late = 2;
        s.l1i.outcomes_fdp.useless_evicted = 3;
        s.l1i.outcomes_pf.requests = 5;
        s.l1i.outcomes_pf.dropped = 5;
        let round = Json::parse(&s.to_json().to_string()).unwrap();
        let stall = round.get("counters").and_then(|c| c.get("stall_cycles"));
        let stall = stall.expect("stall_cycles block");
        for name in STALL_REASON_NAMES {
            assert!(stall.get(name).and_then(Json::as_u64).is_some(), "{name}");
        }
        assert_eq!(stall.get("icache_miss").and_then(Json::as_u64), Some(1));
        let outcomes = round
            .get("counters")
            .and_then(|c| c.get("l1i"))
            .and_then(|c| c.get("prefetch_outcomes"))
            .expect("prefetch_outcomes block");
        let fdp = outcomes.get("fdp").expect("fdp side");
        assert_eq!(fdp.get("requests").and_then(Json::as_u64), Some(9));
        assert_eq!(fdp.get("timely").and_then(Json::as_u64), Some(4));
        let derived = round.get("derived").unwrap();
        let acc = derived.get("fdp_accuracy").and_then(Json::as_f64).unwrap();
        assert!((acc - 6.0 / 9.0).abs() < 1e-9, "{acc}");
        let tml = derived
            .get("fdp_timeliness")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((tml - 4.0 / 6.0).abs() < 1e-9, "{tml}");
        assert!(derived
            .get("stall_pki")
            .and_then(|p| p.get("committing"))
            .and_then(Json::as_f64)
            .is_some());
        assert!(derived
            .get("frontend_bound_fraction")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn pfc_harmful_rate_guards_zero_restreams() {
        let mut s = sample();
        assert_eq!(s.pfc_harmful_rate(), 0.0);
        s.pfc_restreams = 8;
        s.pfc_harmful = 2;
        assert!((s.pfc_harmful_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_all_core_fields() {
        let a = sample();
        let mut b = sample();
        b.cycles += 500;
        b.retired += 1500;
        b.mispredicts += 7;
        b.l1i.tag_probes += 42;
        b.stall.charge(StallReason::FtqEmpty);
        b.l1i.outcomes_pf.late += 3;
        let d = b.delta(&a);
        assert_eq!(d.cycles, 500);
        assert_eq!(d.retired, 1500);
        assert_eq!(d.mispredicts, 7);
        assert_eq!(d.l1i.tag_probes, 42);
        assert_eq!(d.starvation_cycles, 0);
        assert_eq!(d.stall.get(StallReason::FtqEmpty), 1);
        assert_eq!(d.l1i.outcomes_pf.late, 3);
    }
}
