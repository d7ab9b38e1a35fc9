#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fdip-sim` — the paper's contribution: a cycle-level decoupled-frontend
//! core simulator with Fetch-Directed Prefetching, taken-only branch
//! target history, and post-fetch correction.
//!
//! The frontend contains separate branch-prediction and instruction-fetch
//! pipelines connected by the [FTQ](ftq::Ftq) (§IV). The prediction
//! pipeline probes up to 12 instruction slots per cycle against TAGE and
//! a 16B-indexed BTB, terminates blocks at the first predicted-taken
//! branch, and inserts 32-byte-block entries with per-instruction
//! direction hints into the FTQ. The fetch pipeline probes I-cache tags
//! for the two oldest unprobed entries (starting fills early — this *is*
//! the fetch-directed prefetch), fetches the head entry into the decode
//! queue, and pre-decodes fetched instructions to drive **post-fetch
//! correction** (§III-B) and the direction-history fixup policies of
//! Table V.
//!
//! # Examples
//!
//! ```no_run
//! use fdip_program::workload::{Workload, WorkloadFamily};
//! use fdip_sim::{run_workload, CoreConfig};
//!
//! let wl = Workload::family_default("spec_a", WorkloadFamily::Spec, 301);
//! let program = wl.build();
//! let fdp = run_workload(&CoreConfig::fdp(), &program, 50_000, 200_000);
//! let base = run_workload(&CoreConfig::no_fdp(), &program, 50_000, 200_000);
//! println!("FDP speedup: {:.1}%", 100.0 * (fdp.ipc() / base.ipc() - 1.0));
//! ```

pub mod backend;
pub mod check;
pub mod config;
pub mod dists;
pub mod ftq;
pub mod hist;
pub mod meta;
pub mod oracle;
pub mod predictors;
pub mod probe;
mod record;
pub mod sim;
pub mod stats;

pub use check::{
    check_outcome_ledger, check_stall_partition, run_workload_checked, CheckedRun,
    InvariantViolation, OutcomeLedger,
};
pub use config::{BackendConfig, CoreConfig, DirectionConfig};
pub use dists::SimDists;
pub use ftq::{ftq_overhead_bytes, FillState, Ftq, FtqEntry, SlotBranch};
pub use hist::HistState;
pub use meta::StaticMeta;
pub use probe::ProbeTable;
pub use record::Wire;
pub use sim::{
    run_workload, run_workload_detailed, run_workload_job, run_workload_traced, Simulator,
};
pub use stats::{SimStats, StallCycles, StallReason, STALL_REASON_NAMES};
