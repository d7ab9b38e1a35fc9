//! Core configuration — the paper's Table IV parameter set.
//!
//! Defaults model an Intel Sunny Cove-class core (§V): 6-wide
//! fetch/decode, 352-entry ROB, 12-instruction/cycle branch-prediction
//! bandwidth (2× fetch, for run-ahead), 8K-entry 4-way BTB with 2-cycle
//! latency, ~18KB TAGE with 260-bit taken-only target history, ITTAGE,
//! RAS, a 24-entry FTQ (192 instructions), and PFC enabled.

use fdip_bpred::{
    BtbConfig, GshareConfig, HistoryPolicy, IttageConfig, TageConfig, HISTORY_BITS, MAX_FOLDS,
};
use fdip_mem::{CacheConfig, HierarchyConfig};
use fdip_prefetch::PrefetcherKind;
use fdip_telemetry::Json;

use crate::record::{record, Wire};

/// Which conditional direction predictor to build (Fig. 12 sweep).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DirectionConfig {
    /// TAGE at a given size point.
    Tage(TageConfig),
    /// Gshare with idealized direction history.
    Gshare(GshareConfig),
    /// Perfect direction prediction on the committed path.
    Perfect,
}

impl Default for DirectionConfig {
    fn default() -> Self {
        DirectionConfig::Tage(TageConfig::kb18())
    }
}

/// Backend timing parameters.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BackendConfig {
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Decode-queue capacity (frontend/backend interface).
    pub decode_queue: usize,
    /// Instructions dispatched from the decode queue per cycle.
    pub dispatch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Decode-to-execute pipeline depth in cycles (sets the base
    /// misprediction penalty).
    pub frontend_depth: u64,
    /// Synthetic data working set: hot-region bytes (mostly L1D-resident).
    pub data_hot_bytes: u64,
    /// Synthetic data working set: total bytes.
    pub data_total_bytes: u64,
    /// Fraction (percent) of data accesses that stay in the hot region.
    pub data_hot_pct: u8,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            rob_size: 352,
            decode_queue: 64,
            dispatch_width: 6,
            retire_width: 8,
            frontend_depth: 14,
            data_hot_bytes: 32 * 1024,
            data_total_bytes: 8 * 1024 * 1024,
            data_hot_pct: 94,
        }
    }
}

/// Full core configuration (the paper's Table IV).
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Instructions fetched from the I-cache per cycle.
    pub fetch_width: usize,
    /// Decode width; a cycle with fewer decode-queue instructions than
    /// this counts as a starvation cycle (§VI-D).
    pub decode_width: usize,
    /// Branch-prediction bandwidth in instruction slots per cycle
    /// (baseline 12 = 2× fetch; Fig. 13 sweeps 6/12/18).
    pub pred_bw: usize,
    /// Allow more than one predicted-taken branch per cycle (B18m).
    pub multi_taken: bool,
    /// FTQ capacity in 32-byte-block entries (24 = 192 instructions;
    /// 2 disables FDP's run-ahead).
    pub ftq_entries: usize,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// BTB access latency in cycles (Fig. 13 sweeps 1–4).
    pub btb_latency: u64,
    /// Model a perfect BTB (every actual branch detected, §VI-A).
    pub perfect_btb: bool,
    /// Oracle targets for register-indirect branches ("Perfect All").
    pub perfect_indirect: bool,
    /// Conditional direction predictor.
    pub direction: DirectionConfig,
    /// ITTAGE geometry.
    pub ittage: IttageConfig,
    /// Branch-history management policy (Table V).
    pub policy: HistoryPolicy,
    /// Post-fetch correction enabled (§III-B).
    pub pfc: bool,
    /// Enable the loop predictor (§II-A): confident fixed-trip loops
    /// override the direction predictor. Off in the paper's baseline.
    pub loop_predictor: bool,
    /// Dedicated instruction prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Prefetch requests issued into the hierarchy per cycle.
    pub prefetch_issue_bw: usize,
    /// Extra redirect bubble after an execute-time flush.
    pub redirect_penalty: u64,
    /// Extra redirect bubble after a PFC / history-fixup restream.
    pub pfc_redirect_penalty: u64,
    /// Functional-warmup instructions: before timed simulation, the
    /// committed stream is replayed architecturally to pre-train the BTB
    /// (modelling the paper's 50M-instruction ChampSim warm-up, which
    /// the reduced timed run lengths cannot reproduce; DESIGN.md §2).
    pub func_warmup: u64,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// Backend parameters.
    pub backend: BackendConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 6,
            decode_width: 6,
            pred_bw: 12,
            multi_taken: false,
            ftq_entries: 24,
            btb: BtbConfig::default(),
            btb_latency: 2,
            perfect_btb: false,
            perfect_indirect: false,
            direction: DirectionConfig::default(),
            ittage: IttageConfig::default(),
            policy: HistoryPolicy::Thr,
            pfc: true,
            loop_predictor: false,
            prefetcher: PrefetcherKind::None,
            prefetch_issue_bw: 8,
            redirect_penalty: 1,
            pfc_redirect_penalty: 1,
            func_warmup: 2_000_000,
            mem: HierarchyConfig::default(),
            backend: BackendConfig::default(),
        }
    }
}

impl CoreConfig {
    /// The paper's improved-FDP configuration: 24-entry FTQ, PFC on,
    /// taken-only target history, no dedicated prefetcher.
    pub fn fdp() -> Self {
        CoreConfig::default()
    }

    /// The paper's no-FDP baseline: a 2-entry FTQ removes the run-ahead
    /// capability (§V); PFC is pointless without run-ahead but remains
    /// configurable.
    pub fn no_fdp() -> Self {
        CoreConfig {
            ftq_entries: 2,
            pfc: false,
            ..CoreConfig::default()
        }
    }

    /// Returns this config with a different prefetcher.
    pub fn with_prefetcher(mut self, p: PrefetcherKind) -> Self {
        self.prefetcher = p;
        self
    }

    /// Returns this config with a different BTB entry count.
    pub fn with_btb_entries(mut self, entries: usize) -> Self {
        self.btb = BtbConfig::with_entries(entries);
        self
    }

    /// Returns this config with PFC on or off.
    pub fn with_pfc(mut self, pfc: bool) -> Self {
        self.pfc = pfc;
        self
    }

    /// Returns this config with a different history policy.
    pub fn with_policy(mut self, policy: HistoryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns this config with a different FTQ depth.
    pub fn with_ftq(mut self, entries: usize) -> Self {
        self.ftq_entries = entries;
        self
    }

    /// Maximum FTQ entries one prediction cycle can produce (used to gate
    /// prediction on FTQ space).
    pub fn max_blocks_per_predict(&self) -> usize {
        self.pred_bw / 8 + 2
    }
}

// The canonical wire form (`docs/SERVE.md`), one field list per config
// struct in wire order. The ranges keep out what the constructors,
// `FoldPlan` and the deadlock guard assert on, and table sizes that
// would allocate gigabytes.
const MAX_WIDTH: usize = 256;
const MAX_QUEUE: usize = 1 << 16;
const MAX_LATENCY: u64 = 10_000;
const MAX_ASSOC: usize = 64;
const MAX_TABLE_LOG2: u32 = 20;
const MAX_BASE_LOG2: u32 = 24;
const MAX_HIST: u32 = HISTORY_BITS as u32;

record!(CoreConfig {
    fetch_width: 1..=MAX_WIDTH,
    decode_width: 1..=MAX_WIDTH,
    pred_bw: 1..=MAX_WIDTH,
    multi_taken,
    ftq_entries: 1..=MAX_QUEUE,
    btb,
    btb_latency: 0..=MAX_LATENCY,
    perfect_btb,
    perfect_indirect,
    direction,
    ittage,
    policy,
    pfc,
    loop_predictor,
    prefetcher,
    prefetch_issue_bw: 1..=MAX_WIDTH,
    redirect_penalty: 0..=MAX_LATENCY,
    pfc_redirect_penalty: 0..=MAX_LATENCY,
    func_warmup,
    mem,
    backend,
});
record!(BackendConfig {
    rob_size: 1..=MAX_QUEUE,
    decode_queue: 1..=MAX_QUEUE,
    dispatch_width: 1..=MAX_WIDTH,
    retire_width: 1..=MAX_WIDTH,
    frontend_depth: 0..=MAX_LATENCY,
    data_hot_bytes,
    data_total_bytes,
    data_hot_pct: 0..=100,
} check |b| b.data_hot_bytes < b.data_total_bytes);
record!(HierarchyConfig {
    l1i,
    l1d,
    l2,
    llc,
    dram_latency: 0..=MAX_LATENCY
});
record!(CacheConfig {
    size_bytes: 1..=64 << 20,
    assoc: 1..=MAX_ASSOC,
    line_bytes: 1..=4096,
    hit_latency: 0..=MAX_LATENCY,
    mshrs: 0..=MAX_QUEUE,
} check |c| c.sets().is_power_of_two());
record!(BtbConfig {
    entries: 1..=1 << 20,
    assoc: 1..=MAX_ASSOC,
} check |b| b.sets().is_power_of_two());
record!(TageConfig {
    // Three folds per table, on the plan ITTAGE's eight share.
    num_tables: 1..=(MAX_FOLDS - 8) / 3,
    entries_log2: 1..=MAX_TABLE_LOG2,
    tag_bits: 2..=15,
    min_hist: 1..=MAX_HIST,
    max_hist: 1..=MAX_HIST,
    bimodal_log2: 0..=MAX_BASE_LOG2,
} check |t| t.min_hist <= t.max_hist);
record!(GshareConfig {
    table_log2: 0..=MAX_BASE_LOG2,
    hist_bits: 0..=64
});
record!(IttageConfig {
    entries_log2: 1..=MAX_TABLE_LOG2,
    base_log2: 0..=MAX_BASE_LOG2,
    tag_bits: 1..=15,
    hist_lens,
} check |i| i.hist_lens.iter().all(|l| (1..=MAX_HIST).contains(l)));

/// An object tagged by `kind` (`tage`, `gshare` or `perfect`), then the
/// predictor's own fields.
impl Wire for DirectionConfig {
    fn encode(&self) -> Json {
        let (kind, body) = match self {
            DirectionConfig::Tage(t) => ("tage", t.encode()),
            DirectionConfig::Gshare(g) => ("gshare", g.encode()),
            DirectionConfig::Perfect => ("perfect", Json::obj()),
        };
        let mut fields = vec![("kind".to_string(), Json::from(kind))];
        if let Json::Obj(body) = body {
            fields.extend(body);
        }
        Json::Obj(fields)
    }
    fn decode(v: &Json) -> Option<DirectionConfig> {
        match v.get("kind")?.as_str()? {
            "tage" => Some(DirectionConfig::Tage(TageConfig::decode(v)?)),
            "gshare" => Some(DirectionConfig::Gshare(GshareConfig::decode(v)?)),
            "perfect" => Some(DirectionConfig::Perfect),
            _ => None,
        }
    }
}

/// Enums written as their display labels.
macro_rules! wire_label {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self) -> Json {
                Json::from(self.label())
            }
            fn decode(v: &Json) -> Option<$t> {
                let label = v.as_str()?;
                <$t>::ALL.into_iter().find(|x| x.label() == label)
            }
        }
    )*};
}

wire_label!(HistoryPolicy, PrefetcherKind);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.pred_bw, 12);
        assert_eq!(c.ftq_entries, 24);
        assert_eq!(c.btb.entries, 8 * 1024);
        assert_eq!(c.btb_latency, 2);
        assert_eq!(c.policy, HistoryPolicy::Thr);
        assert!(c.pfc);
        assert_eq!(c.backend.rob_size, 352);
    }

    #[test]
    fn no_fdp_uses_two_entry_ftq() {
        let c = CoreConfig::no_fdp();
        assert_eq!(c.ftq_entries, 2);
        assert!(!c.pfc);
    }

    #[test]
    fn builder_methods_compose() {
        let c = CoreConfig::fdp()
            .with_btb_entries(1024)
            .with_pfc(false)
            .with_policy(HistoryPolicy::Ghr3)
            .with_ftq(12)
            .with_prefetcher(PrefetcherKind::NextLine);
        assert_eq!(c.btb.entries, 1024);
        assert!(!c.pfc);
        assert_eq!(c.policy, HistoryPolicy::Ghr3);
        assert_eq!(c.ftq_entries, 12);
        assert_eq!(c.prefetcher, PrefetcherKind::NextLine);
    }

    #[test]
    fn predict_block_bound_covers_bandwidth() {
        let c = CoreConfig::default();
        // 12 slots starting at the last slot of a block span at most 3
        // blocks.
        assert!(c.max_blocks_per_predict() >= 3);
    }
}
