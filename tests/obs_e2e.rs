//! End-to-end guarantees of the observability stack (`fdip-obs` wired
//! through `fdip-serve`, `docs/OBSERVABILITY.md` §"Enforcement"):
//!
//! * every `/v1/metrics` scrape passes the in-repo exposition
//!   validator and covers the documented breadth (≥ 12 families);
//! * counters are monotonic across scrapes, and a replayed grid moves
//!   the cache-hit counter by exactly its cell count;
//! * `/v1/logs` serves the grid-lifecycle records with a working
//!   `next_since` cursor, and the ring stays bounded;
//! * `--trace-dir` produces a parseable Chrome trace per grid, under
//!   pid 0 and in `ts` order;
//! * and above all: stripped grid results are **byte-identical** with
//!   observability fully enabled (debug logging + tracing) and fully
//!   disabled.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fdip_harness::remote::{
    grid_request, http_json_request, http_text_request, GRID_PATH, LOGS_PATH, METRICS_PATH,
};
use fdip_harness::Runner;
use fdip_obs::expo;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::CoreConfig;
use fdip_telemetry::Json;

const WARMUP: u64 = 500;
const MEASURE: u64 = 2_000;

/// The logger (filter spec, ring) is process-global; both tests read or
/// reconfigure it, so they take this lock to keep each other's settings
/// from interleaving.
static LOGGER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdip-obs-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scrape(addr: &str) -> expo::Scrape {
    let (status, text) = http_text_request(addr, "GET", METRICS_PATH, None).expect("scrape");
    assert_eq!(status, 200);
    expo::validate(&text).expect("scrape must pass the in-repo validator")
}

/// Every counter family's total, for monotonicity diffs.
fn counter_totals(s: &expo::Scrape) -> BTreeMap<String, u64> {
    s.families
        .iter()
        .filter(|(_, f)| f.kind == "counter")
        .map(|(name, _)| (name.clone(), s.counter_total(name).expect("whole counter")))
        .collect()
}

fn stripped_cells(response: &Json) -> Vec<String> {
    response
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells")
        .iter()
        .map(|c| {
            format!(
                "{}|{}",
                c.get("stats").expect("stats").to_string(),
                c.get("dists").expect("dists").to_string()
            )
        })
        .collect()
}

#[test]
fn scrape_validates_counters_are_monotonic_and_cache_hits_move_on_replay() {
    let _logger = LOGGER.lock().unwrap();
    fdip_obs::log::logger().set_filter_spec("info");
    let dir = state_dir("metrics");
    let trace_dir = dir.join("traces");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    config.trace_dir = Some(trace_dir.clone());
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();

    // A cold scrape already validates and shows the full schema.
    let cold = scrape(&addr);
    let families = cold
        .families
        .keys()
        .filter(|n| n.starts_with("fdip_serve_") || n.starts_with("fdip_exec_"))
        .count();
    assert!(
        families >= 12,
        "cold scrape covers only {families} serve/exec families: {:?}",
        cold.families.keys().collect::<Vec<_>>()
    );

    // First grid: everything simulates.
    let request = grid_request("obs-e2e", "quick", WARMUP, MEASURE, &[CoreConfig::fdp()]);
    let (status, first) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{first:?}");
    let total = first
        .get("summary")
        .and_then(|s| s.get("total_cells"))
        .and_then(Json::as_u64)
        .expect("total_cells");
    // The cold grid's span file, before the replay below overwrites it
    // (same grid id). Its cell slices are recorded before the `simulate`
    // slice that encloses them, so recording order is not `ts` order.
    let grid_id = first.get("grid_id").and_then(Json::as_str).unwrap();
    let cold_trace = std::fs::read_to_string(trace_dir.join(format!("grid-{grid_id}.json")))
        .expect("trace file");

    let after_first = scrape(&addr);
    assert_eq!(
        after_first.counter_total("fdip_serve_cells_simulated_total"),
        Some(total)
    );
    assert_eq!(
        after_first.counter_total("fdip_serve_grids_completed_total"),
        Some(1)
    );
    // The exec mirrors reflect the pool that ran the cells.
    assert!(
        after_first
            .counter_total("fdip_exec_jobs_completed_total")
            .expect("exec mirror")
            >= total,
        "pool mirror must count the simulated cells"
    );
    assert_eq!(after_first.gauge_value("fdip_exec_workers"), Some(2.0));
    // Per-cell simulation latency was observed once per cell.
    assert_eq!(
        after_first.histogram_count("fdip_serve_cell_sim_duration_us"),
        Some(total)
    );

    // Second grid: pure cache replay. Counters never move backwards,
    // and the cache-hit counter moves by exactly the grid's cells.
    let (status, second) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{second:?}");
    let after_second = scrape(&addr);
    let (before, after) = (counter_totals(&after_first), counter_totals(&after_second));
    for (name, total_before) in &before {
        let total_after = after.get(name).unwrap_or_else(|| {
            panic!("counter family {name} vanished between scrapes");
        });
        assert!(
            total_after >= total_before,
            "counter {name} went backwards: {total_before} -> {total_after}"
        );
    }
    assert_eq!(
        after["fdip_serve_cell_cache_hits_total"] - before["fdip_serve_cell_cache_hits_total"],
        total,
        "a replayed grid must hit the cache once per cell"
    );
    assert_eq!(
        after["fdip_serve_cells_simulated_total"], before["fdip_serve_cells_simulated_total"],
        "a replayed grid must simulate nothing"
    );
    assert_eq!(stripped_cells(&first), stripped_cells(&second));

    // The labeled client family carries the submitting client.
    let clients = &after_second.families["fdip_serve_client_cells_total"];
    let ours = clients
        .samples
        .iter()
        .find(|s| s.label("client") == Some("obs-e2e"))
        .expect("client sample");
    assert_eq!(ours.value, (2 * total) as f64);

    // /v1/logs: the lifecycle records are there, the cursor works, and
    // the page is bounded by the documented ring capacity.
    let (status, page) = http_json_request(&addr, "GET", LOGS_PATH, None).unwrap();
    assert_eq!(status, 200);
    let records = page.get("logs").and_then(Json::as_arr).expect("logs");
    assert!(records.len() <= 1024, "ring page exceeds capacity");
    let admitted = records
        .iter()
        .filter(|r| {
            r.get("msg").and_then(Json::as_str) == Some("grid admitted")
                && r.get("target").and_then(Json::as_str) == Some("serve")
        })
        .count();
    assert!(admitted >= 2, "both grid admissions must be logged");
    let next = page
        .get("next_since")
        .and_then(Json::as_u64)
        .expect("cursor");
    let (_, newer) =
        http_json_request(&addr, "GET", &format!("{LOGS_PATH}?since={next}"), None).unwrap();
    assert_eq!(
        newer.get("logs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0),
        "the cursor must exclude already-seen records"
    );
    // Unparseable query parameters are a clean 400.
    let (status, _) =
        http_json_request(&addr, "GET", &format!("{LOGS_PATH}?level=loud"), None).unwrap();
    assert_eq!(status, 400);

    // The cold grid wrote a Chrome trace (read above).
    let trace = Json::parse(&cold_trace).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for expected in ["classify", "simulate", "assemble", "completed"] {
        assert!(
            names.contains(&expected),
            "trace lacks {expected}: {names:?}"
        );
    }
    // Document 4: every event under pid 0, timed events in `ts` order.
    let mut last_ts = 0;
    for e in events {
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(0), "{e:?}");
        if let Some(ts) = e.get("ts").and_then(Json::as_u64) {
            assert!(ts >= last_ts, "ts went backwards: {ts} < {last_ts}");
            last_ts = ts;
        }
    }

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stripped_results_are_byte_identical_with_observability_on_and_off() {
    // "On": trace-everything filter, tracing enabled. "Off": logging
    // filtered out entirely, no trace dir.
    let _logger = LOGGER.lock().unwrap();
    let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
    let request = grid_request("obs-diff", "quick", WARMUP, MEASURE, &cfgs);

    let dir_on = state_dir("obs-on");
    let mut config = ServerConfig::new(dir_on.clone());
    config.jobs = Some(2);
    config.trace_dir = Some(dir_on.join("traces"));
    fdip_obs::log::logger().set_filter_spec("trace");
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let (status, with_obs) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{with_obs:?}");
    server.stop();
    fdip_obs::log::logger().set_filter_spec("off");

    let dir_off = state_dir("obs-off");
    let mut config = ServerConfig::new(dir_off.clone());
    config.jobs = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let (status, without_obs) =
        http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{without_obs:?}");
    server.stop();
    fdip_obs::log::logger().set_filter_spec("info");

    assert_eq!(
        stripped_cells(&with_obs),
        stripped_cells(&without_obs),
        "observability must never change simulation results"
    );
    // And both match a direct local run, which never touches fdip-obs.
    let local = Runner::quick(WARMUP, MEASURE).run_configs_detailed(&cfgs);
    let local_stripped: Vec<String> = local
        .iter()
        .flatten()
        .map(|(stats, dists)| {
            use fdip_telemetry::ToJson;
            format!(
                "{}|{}",
                stats.to_json().to_string(),
                dists.to_json().to_string()
            )
        })
        .collect();
    assert_eq!(stripped_cells(&with_obs), local_stripped);

    std::fs::remove_dir_all(&dir_on).ok();
    std::fs::remove_dir_all(&dir_off).ok();
}
