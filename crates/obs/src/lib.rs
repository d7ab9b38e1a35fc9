#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fdip-obs` — the operational observability plane for the serving
//! stack: structured logging, a metrics registry with Prometheus text
//! exposition, and wall-clock span tracing for grid lifecycles.
//!
//! The simulator already has *result* telemetry (`fdip-telemetry`, the
//! documents of `docs/METRICS.md`) and *cycle-domain* tracing
//! (`fdip-trace`). What it lacked was the operational layer an
//! operator of the `fdip-serve` daemon needs: "why is this grid slow",
//! "what is my cache hit rate over time", "which worker is wedged".
//! This crate provides that layer, dependency-free, in four pieces:
//!
//! * [`log`] — leveled, target-tagged structured log records (one JSON
//!   object per line), filtered by an env/flag spec
//!   (`FDIP_LOG=serve=debug,exec=info`), kept in a bounded in-memory
//!   ring (served by the daemon at `GET /v1/logs`) and optionally
//!   mirrored to stderr and a size-rotated file.
//! * [`metrics`] — named counters, gauges, and histograms (built on
//!   [`fdip_telemetry::Histogram`]) grouped in a [`metrics::Registry`]
//!   and rendered in Prometheus text exposition format
//!   (`GET /v1/metrics` on the daemon).
//! * [`expo`] — an in-repo parser/validator for that exposition
//!   format, used by tests and `fdip-serve ctl metrics` so the scrape
//!   surface is checked against an independent reading of the spec.
//! * [`span`] — a bounded recorder of wall-clock lifecycle spans
//!   (submit → classify → simulate → assemble → respond), exported
//!   through [`fdip_telemetry::chrome_trace`] like `fdip-run --trace`,
//!   so a slow grid opens in Perfetto next to the simulator's traces.
//!
//! **Determinism contract.** Observability must never perturb results:
//! every wall-clock read in this crate is confined to [`clock`] (the
//! workspace's `clippy::disallowed_types` lint rejects `Instant` and
//! `SystemTime` everywhere else), nothing here feeds a simulation, and
//! `scripts/verify.sh` diffs stripped `results.json` with the whole
//! plane enabled versus disabled.

pub mod clock;
pub mod expo;
pub mod log;
pub mod metrics;
pub mod span;
