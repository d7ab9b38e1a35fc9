#![forbid(unsafe_code)]

//! Umbrella crate for the FDIP reproduction workspace.
//!
//! Re-exports the public API of every member crate so examples and
//! integration tests can use a single dependency. See the individual
//! crates for documentation:
//!
//! * [`fdip_types`] — shared vocabulary (addresses, instruction model).
//! * [`fdip_program`] — synthetic program model and workload suite.
//! * [`fdip_bpred`] — branch-prediction substrate (TAGE, BTB, ITTAGE, RAS,
//!   history management).
//! * [`fdip_mem`] — memory hierarchy (caches, MSHRs, DRAM).
//! * [`fdip_prefetch`] — instruction prefetchers (NL1, FNL+MMA, D-JOLT,
//!   EIP, SN4L+Dis, perfect).
//! * [`fdip_sim`] — the decoupled-frontend cycle-level simulator with FDP,
//!   taken-only target history, and post-fetch correction.
//! * [`fdip_exec`] — the bounded FIFO job pool every sweep runs on.
//! * [`fdip_harness`] — the per-table/per-figure experiment harness.

pub use fdip_bpred as bpred;
pub use fdip_exec as exec;
pub use fdip_harness as harness;
pub use fdip_mem as mem;
pub use fdip_prefetch as prefetch;
pub use fdip_program as program;
pub use fdip_sim as sim;
pub use fdip_types as types;
