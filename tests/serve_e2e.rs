//! End-to-end guarantees of the `fdip-serve` daemon (`docs/SERVE.md`
//! §"Determinism guarantee"):
//!
//! * a grid submitted twice is served entirely from the
//!   content-addressed cache the second time, and both responses carry
//!   byte-identical results that match a direct local run;
//! * a daemon killed mid-grid resumes from its checkpoint journal
//!   without re-simulating the cells that already reached the cache;
//! * a grid that outlives its wall-clock budget gets `408 timeout`, and
//!   a later daemon finishes it from the journal and the cache;
//! * a journaled grid that no longer passes validation is closed on
//!   replay instead of being replayed on every restart.

use std::path::PathBuf;

use fdip_harness::remote::{
    config_to_json, grid_request, http_json_request, RemoteClient, GRID_PATH, TELEMETRY_PATH,
};
use fdip_harness::Runner;
use fdip_serve::journal::Journal;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::CoreConfig;
use fdip_telemetry::{Json, ToJson};

const WARMUP: u64 = 500;
const MEASURE: u64 = 2_000;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdip-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cache_entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir.join("cache"))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0)
}

/// Serializes a response's cells to the stripped per-cell form used for
/// determinism diffs: just the stats and dists documents, in order.
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

/// The same stripped per-cell form for a local `run_configs_detailed`
/// grid, flattened in the response's config-major order.
fn strip_local(grid: &[Vec<(fdip_sim::SimStats, fdip_sim::SimDists)>]) -> Vec<String> {
    grid.iter()
        .flatten()
        .map(|(stats, dists)| {
            format!(
                "{}|{}",
                stats.to_json().to_string(),
                dists.to_json().to_string()
            )
        })
        .collect()
}

fn stats_of(grid: &[Vec<(fdip_sim::SimStats, fdip_sim::SimDists)>]) -> Vec<fdip_sim::SimStats> {
    grid.iter().flatten().map(|(s, _)| *s).collect()
}

#[test]
fn second_submission_hits_cache_and_matches_local_run_byte_for_byte() {
    let dir = state_dir("cache");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];

    // First submission simulates every cell.
    let request = grid_request("e2e", "quick", WARMUP, MEASURE, &cfgs);
    let (status, first) =
        http_json_request(&addr, "POST", GRID_PATH, Some(&request)).expect("first grid");
    assert_eq!(status, 200, "{first:?}");
    let summary = first.get("summary").expect("summary");
    let total = summary.get("total_cells").and_then(Json::as_u64).unwrap();
    assert_eq!(summary.get("simulated").and_then(Json::as_u64), Some(total));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));

    // Second submission: 100% cache hits, zero simulation, and the
    // stripped result payload is byte-identical.
    let (status, second) =
        http_json_request(&addr, "POST", GRID_PATH, Some(&request)).expect("second grid");
    assert_eq!(status, 200, "{second:?}");
    let summary = second.get("summary").expect("summary");
    assert_eq!(
        summary.get("cache_hits").and_then(Json::as_u64),
        Some(total),
        "second pass must be served entirely from the cache"
    );
    assert_eq!(summary.get("simulated").and_then(Json::as_u64), Some(0));
    assert_eq!(second.get("grid_id"), first.get("grid_id"));
    assert_eq!(stripped_cells(&first), stripped_cells(&second));
    for cell in second.get("cells").and_then(Json::as_arr).unwrap() {
        assert_eq!(cell.get("cache_hit").and_then(Json::as_bool), Some(true));
    }

    // Both must match a direct local run byte-for-byte once stripped to
    // the stats/dists documents.
    let local = Runner::quick(WARMUP, MEASURE).run_configs_detailed(&cfgs);
    assert_eq!(stripped_cells(&first), strip_local(&local));

    // The typed client and the server-backed Runner agree with the
    // local Runner: raw counters by PartialEq, the full result document
    // (dists carry unserialized sampling-accumulator state) byte-wise.
    let via_client = RemoteClient::new(&addr, "e2e-client")
        .run_grid("quick", WARMUP, MEASURE, &cfgs, local[0].len())
        .expect("client grid");
    assert_eq!(stats_of(&via_client), stats_of(&local));
    assert_eq!(strip_local(&via_client), strip_local(&local));
    let via_runner = Runner::quick(WARMUP, MEASURE)
        .with_server(&addr, "e2e-runner")
        .run_configs_detailed(&cfgs);
    assert_eq!(stats_of(&via_runner), stats_of(&local));
    assert_eq!(strip_local(&via_runner), strip_local(&local));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_daemon_resumes_from_journal_without_resimulating() {
    let dir = state_dir("resume");
    let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
    let request = grid_request("e2e", "quick", WARMUP, MEASURE, &cfgs);

    // Phase 1: a daemon rigged to die after two simulated cells. A
    // single-worker pool makes the kill point deterministic.
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    config.crash_after_cells = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 503, "{body:?}");
    server.join();

    // Exactly the two committed cells survive on disk, and the journal
    // still holds the grid's begin record (no end record).
    assert_eq!(cache_entries(&dir), 2);
    let journal = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
    assert!(journal.contains("grid_begin"), "{journal}");
    assert!(!journal.contains("grid_end"), "{journal}");

    // Phase 2: a fresh daemon on the same state dir resumes the grid in
    // the background; the client's resubmission coalesces with it.
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    let server = Server::spawn(config).expect("server respawns");
    let addr = server.addr().to_string();
    let (status, response) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{response:?}");
    let summary = response.get("summary").expect("summary");
    let total = summary.get("total_cells").and_then(Json::as_u64).unwrap();
    assert_eq!(total, 6); // 2 configs × 3 quick-suite workloads
    assert_eq!(
        summary.get("cache_hits").and_then(Json::as_u64).unwrap()
            + summary.get("simulated").and_then(Json::as_u64).unwrap()
            + summary.get("coalesced").and_then(Json::as_u64).unwrap(),
        total
    );

    // The load-bearing assertion: across the background resume AND the
    // resubmission, only the four missing cells were simulated — the
    // two cells committed before the kill were never re-run.
    let (status, telemetry) = http_json_request(&addr, "GET", TELEMETRY_PATH, None).unwrap();
    assert_eq!(status, 200);
    let simulated = telemetry
        .get("serve")
        .and_then(|s| s.get("cells"))
        .and_then(|c| c.get("simulated"))
        .and_then(Json::as_u64)
        .expect("serve.cells.simulated");
    assert_eq!(
        simulated,
        total - 2,
        "resume must not re-simulate journaled/cached cells: {telemetry:?}"
    );

    // The served results still match a direct local run exactly.
    let local = Runner::quick(WARMUP, MEASURE).run_configs_detailed(&cfgs);
    assert_eq!(stripped_cells(&response), strip_local(&local));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_over_its_budget_times_out_and_a_resubmission_finishes_it() {
    let dir = state_dir("budget");
    let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
    let request = grid_request("e2e", "quick", WARMUP, MEASURE, &cfgs);

    // Phase 1: a zero budget runs out before the grid's six cells do.
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    config.grid_timeout_ms = 0;
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 408, "{body:?}");
    let code = body
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("timeout"), "{body:?}");
    server.stop();

    // Some cells never ran, and the journal keeps the grid for resume.
    let cached = cache_entries(&dir) as u64;
    assert!(cached < 6, "all {cached} cells ran despite the zero budget");
    let journal = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
    assert!(journal.contains("grid_begin"), "{journal}");

    // Phase 2: a daemon with the default budget on the same state dir
    // finishes the grid, simulating only the cells phase 1 left out.
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    let server = Server::spawn(config).expect("server respawns");
    let addr = server.addr().to_string();
    let (status, response) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 200, "{response:?}");
    let (status, telemetry) = http_json_request(&addr, "GET", TELEMETRY_PATH, None).unwrap();
    assert_eq!(status, 200);
    let simulated = telemetry
        .get("serve")
        .and_then(|s| s.get("cells"))
        .and_then(|c| c.get("simulated"))
        .and_then(Json::as_u64)
        .expect("serve.cells.simulated");
    assert_eq!(simulated, 6 - cached, "{telemetry:?}");

    let local = Runner::quick(WARMUP, MEASURE).run_configs_detailed(&cfgs);
    assert_eq!(stripped_cells(&response), strip_local(&local));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_grid_that_fails_validation_is_closed_on_replay() {
    // A daemon without the config ranges journaled this grid (a BTB with
    // no ways) before its simulation panicked; each restart replayed it.
    let dir = state_dir("invalid-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = config_to_json(&CoreConfig::fdp());
    cfg.set(
        "btb",
        Json::obj().with("entries", 8192u64).with("assoc", 0u64),
    );
    let request = grid_request("e2e", "quick", WARMUP, MEASURE, &[]).with("configs", vec![cfg]);
    let begin = Json::obj()
        .with("op", "grid_begin")
        .with("grid_id", "g-invalid")
        .with("request", request);
    std::fs::write(dir.join("journal.log"), begin.to_string() + "\n").unwrap();

    let server = Server::spawn(ServerConfig::new(dir.clone())).expect("server spawns");
    server.stop();
    let (_, incomplete) = Journal::open(dir.join("journal.log")).expect("journal opens");
    assert!(incomplete.is_empty(), "the invalid grid is still open");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runner_falls_back_to_local_when_the_server_is_unreachable() {
    // Grab an ephemeral port, then close it: connections are refused.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfgs = [CoreConfig::fdp()];
    let local = Runner::quick(WARMUP, MEASURE).run_configs_detailed(&cfgs);
    let via_fallback = Runner::quick(WARMUP, MEASURE)
        .with_server(&dead, "e2e-fallback")
        .run_configs_detailed(&cfgs);
    assert_eq!(via_fallback, local, "fallback must produce local results");
}
