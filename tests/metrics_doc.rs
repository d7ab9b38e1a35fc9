//! Schema/documentation coverage: every key the harness emits into its
//! JSON documents must be documented in `docs/METRICS.md`.
//!
//! This is the drift guard promised by the metrics doc — adding a field
//! to `SimStats::to_json`, the histograms, the manifest, the report
//! serialization, or the trace exporter without documenting it fails
//! this test.

mod support;

use fdip_harness::{experiments_json, Report, Runner, Table};
use fdip_sim::CoreConfig;
use fdip_telemetry::{Json, RunManifest, ToJson, SCHEMA_VERSION};
use std::collections::BTreeSet;

/// Every key `emitted` carries must be documented in docs/METRICS.md,
/// except below `metrics` (experiment metric names are
/// experiment-specific and documented as such).
fn assert_all_documented(emitted: &Json, context: &str) {
    let keys = support::assert_documented(emitted, &["METRICS.md"], &["metrics"], context);
    assert!(keys > 10, "{context}: implausibly few keys emitted");
}

#[test]
fn every_results_json_field_is_documented() {
    // A real (tiny) suite run, so every field of the schema is emitted
    // through the same path `fdip-run --json` uses.
    let runner = Runner::quick(500, 3_000);
    let suite = runner.run_suite(&CoreConfig::fdp(), "metrics-doc-test");
    let emitted = suite.to_json();
    assert_eq!(
        emitted.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_all_documented(&emitted, "results.json");
}

#[test]
fn every_experiments_json_field_is_documented() {
    // The document `fdip-experiments --json` writes, around a small
    // report instead of a real experiment run.
    let mut report = Report::new("fig7");
    report.metric("fdp_speedup_pct", 14.1);
    let mut table = Table::new("T", &["cfg", "speedup"]);
    table.row_f("fdp", &[14.1]);
    report.tables.push(table);
    let manifest = RunManifest::new("fdip-experiments", "quick", 500, 3_000, 3);
    let doc_json = experiments_json(&manifest, &[report]);
    assert_all_documented(&doc_json, "experiments json");
}

#[test]
fn every_serve_manifest_field_is_documented() {
    // Document 6: the serve manifest from `GET /v1/telemetry`, with
    // every counter group populated so every key is emitted.
    let t = fdip_serve::telemetry::ServeTelemetry::new();
    t.counters.requests.inc();
    t.on_grid_admitted(false, 1);
    t.on_grid_admitted(true, 2);
    t.counters.grids_completed.inc();
    t.counters.grids_interrupted.inc();
    t.counters.rejected_busy.inc();
    t.counters.rejected_draining.inc();
    t.on_cells_served("metrics-doc-test", 6, 2, 1);
    t.on_cell_simulated(1_250);
    let emitted = t.to_json();
    assert_eq!(
        emitted.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_all_documented(&emitted, "serve manifest");
    // Reverse direction: the documented counter groups must be emitted.
    let serve = emitted.get("serve").expect("serve block");
    for name in [
        "tool",
        "started_unix",
        "uptime_seconds",
        "requests",
        "grids",
        "cells",
        "rejected",
        "queue_depth",
        "clients",
    ] {
        assert!(serve.get(name).is_some(), "serve field {name} missing");
    }
}

#[test]
fn documented_derived_metrics_exist_in_emitted_json() {
    // The reverse direction for the derived block: the metrics the doc
    // tabulates must actually be emitted.
    let runner = Runner::quick(500, 3_000);
    let suite = runner.run_suite(&CoreConfig::fdp(), "metrics-doc-test");
    let emitted = suite.to_json();
    let derived = emitted.get("workloads").and_then(Json::as_arr).unwrap()[0]
        .get("derived")
        .expect("derived block");
    for name in [
        "ipc",
        "branch_mpki",
        "l1i_mpki",
        "starvation_pki",
        "icache_tag_pki",
        "avg_ftq_occupancy",
        "exposed_fraction",
        "btb_hit_rate",
        "pfc_harmful_rate",
        "stall_pki",
        "frontend_bound_fraction",
        "pf_accuracy",
        "pf_timeliness",
        "pf_coverage",
        "fdp_accuracy",
        "fdp_timeliness",
    ] {
        assert!(derived.get(name).is_some(), "derived metric {name} missing");
    }
}

#[test]
fn documented_observability_counters_exist_in_emitted_json() {
    // Reverse direction for the new counter groups: every stall bucket
    // and outcome field the doc tabulates must be emitted, under both
    // the counters block and the per-KI derived block.
    let runner = Runner::quick(500, 3_000);
    let suite = runner.run_suite(&CoreConfig::fdp(), "metrics-doc-test");
    let emitted = suite.to_json();
    let wl = &emitted.get("workloads").and_then(Json::as_arr).unwrap()[0];
    let counters = wl.get("counters").expect("counters block");
    let stall = counters.get("stall_cycles").expect("stall_cycles block");
    let stall_pki = wl
        .get("derived")
        .and_then(|d| d.get("stall_pki"))
        .expect("stall_pki block");
    for name in fdip_sim::STALL_REASON_NAMES {
        assert!(stall.get(name).is_some(), "stall bucket {name} missing");
        assert!(stall_pki.get(name).is_some(), "stall_pki {name} missing");
    }
    let outcomes = counters
        .get("l1i")
        .and_then(|c| c.get("prefetch_outcomes"))
        .expect("prefetch_outcomes block");
    for src in ["fdp", "pf"] {
        let o = outcomes.get(src).expect("outcome source");
        for name in [
            "requests",
            "timely",
            "late",
            "useless_evicted",
            "useless_replaced",
            "dropped",
        ] {
            assert!(o.get(name).is_some(), "outcome {src}.{name} missing");
        }
    }
}

#[test]
fn documented_trace_fields_exist_in_exported_trace() {
    // Document 4, both ways: a real traced run must emit only documented
    // keys, and the documented top-level fields and both named tracks.
    use fdip_program::workload;
    let program = workload::quick_suite()[0].build();
    let (_, _, tracer) =
        fdip_sim::run_workload_traced(&CoreConfig::fdp(), &program, 500, 3_000, 10_000);
    let trace = tracer.to_chrome_trace(&fdip_sim::STALL_REASON_NAMES);
    assert_all_documented(&trace, "trace file");
    for name in ["traceEvents", "displayTimeUnit", "metadata"] {
        assert!(trace.get(name).is_some(), "trace field {name} missing");
    }
    let meta = trace.get("metadata").unwrap();
    for name in ["tool", "clock", "dropped_events", "ring_capacity"] {
        assert!(meta.get(name).is_some(), "trace metadata {name} missing");
    }
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut names = BTreeSet::new();
    for e in events {
        names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    assert!(
        names.contains("FtqEnqueue"),
        "no FtqEnqueue events: {names:?}"
    );
    // The run mispredicts, so cycle attribution must include slices
    // beyond plain committing.
    assert!(
        fdip_sim::STALL_REASON_NAMES
            .iter()
            .filter(|n| names.contains(**n))
            .count()
            >= 2,
        "too few stall slice kinds: {names:?}"
    );
}
