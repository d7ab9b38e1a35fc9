#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Telemetry substrate for the FDIP reproduction: the machine-readable
//! side of the paper's evaluation (§VI).
//!
//! The simulator's figures are *measurements* — IPC speedups, MPKI
//! breakdowns, starvation cycles/KI, prefetch timeliness — and the text
//! tables the harness prints cannot be consumed by regression tooling or
//! plotting. This crate provides the pieces that make a run a dataset:
//!
//! * [`Histogram`] — a log2-bucketed distribution (occupancy, lead times,
//!   queue fills), cheap enough to record per cycle.
//! * [`Json`] — a hand-rolled JSON value with writer **and** parser. The
//!   build environment is offline, so no `serde`; the schema emitted by
//!   the harness is documented in `docs/METRICS.md` and carries
//!   [`SCHEMA_VERSION`].
//! * [`RunManifest`] — provenance for a results file: tool, suite, run
//!   lengths, git revision, wall time.
//! * [`chrome_trace`] — the Chrome `trace_event` writer behind every
//!   trace file (tracks, [`ChromeEvent`]s sorted by `ts`, metadata).
//!
//! Everything here is dependency-free and deterministic; nothing in this
//! crate knows about the simulator (the `fdip-sim` and `fdip-harness`
//! crates implement [`ToJson`] for their own types).
//!
//! # Examples
//!
//! ```
//! use fdip_telemetry::{Histogram, Json, ToJson};
//!
//! let mut h = Histogram::new();
//! for occupancy in [0u64, 3, 3, 17] {
//!     h.record(occupancy);
//! }
//! assert_eq!(h.count(), 4);
//! let j = h.to_json();
//! let round = Json::parse(&j.to_string()).unwrap();
//! assert_eq!(round.get("count").and_then(Json::as_u64), Some(4));
//! ```

mod chrome;
mod hist;
mod json;
mod manifest;

pub use chrome::{chrome_trace, ChromeEvent};
pub use hist::{Bucket, Histogram};
pub use json::{Json, JsonError};
pub use manifest::RunManifest;

/// Version of the JSON results schema emitted by the harness.
///
/// Bump this whenever a field is renamed, removed, or its meaning changes;
/// purely additive fields do not require a bump. The schema itself is
/// documented in `docs/METRICS.md`.
pub const SCHEMA_VERSION: u64 = 1;

/// Conversion into a [`Json`] value.
///
/// Implemented by the simulator and harness for their stats/config types so
/// the whole result tree serializes through one mechanism.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
