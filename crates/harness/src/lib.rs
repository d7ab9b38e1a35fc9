#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section on the synthetic workload suite.
//!
//! Each experiment lives in [`experiments`] and returns a [`Report`]
//! whose text tables mirror the paper's rows/series (speedup over the
//! no-prefetch/no-FDP baseline, branch MPKI, starvation cycles/KI,
//! I-cache tag accesses/KI, …). The `fdip-experiments` binary runs one
//! or all of them:
//!
//! ```text
//! cargo run --release -p fdip-harness --bin fdip-experiments -- all
//! cargo run --release -p fdip-harness --bin fdip-experiments -- fig7 fig8
//! ```
//!
//! Scale knobs (environment):
//!
//! * `FDIP_INSTRS`  — measured instructions per workload (default 200000)
//! * `FDIP_WARMUP`  — warm-up instructions per workload (default 50000)
//! * `FDIP_SUITE`   — `full` (10 workloads, default) or `quick` (3)
//! * `FDIP_JOBS`    — worker-pool size for parallel sweeps (default:
//!   available cores; `--jobs <n>` on the binaries overrides). Results
//!   are identical for any value — only wall-clock changes.

pub mod experiments;
pub mod remote;
mod report;
mod runner;
mod suite;

pub use remote::RemoteClient;
pub use report::{experiments_json, Report, Table};
pub use runner::{geomean, Runner};
pub use suite::{SuiteResult, WorkloadResult};
