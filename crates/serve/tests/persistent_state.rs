//! The daemon's persistent state under load (`docs/SERVE.md`
//! §"Persistent state"):
//!
//! * a cache entry is served only when its header names the requested
//!   cell and its digest matches the served bytes; an edited value, an
//!   entry copied from another cell, and an entry in the single-document
//!   layout are misses that re-simulate, and the reply still matches a
//!   local run byte for byte;
//! * the checkpoint journal is empty whenever no grid is open, however
//!   many grids the daemon has served.

use std::path::{Path, PathBuf};

use fdip_harness::remote::{
    grid_request, http_json_request, http_text_request, GRID_PATH, TELEMETRY_PATH,
};
use fdip_harness::Runner;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::CoreConfig;
use fdip_telemetry::{Json, ToJson};

const WARMUP: u64 = 500;
const MEASURE: u64 = 2_000;

fn spawn(tag: &str) -> (Server, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("fdip-serve-state-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    (server, addr, dir)
}

fn post(addr: &str, request: &Json) -> Json {
    let (status, text) = http_text_request(addr, "POST", GRID_PATH, Some(request)).unwrap();
    assert_eq!(status, 200, "{text}");
    let reply = Json::parse(&text).expect("the reply parses");
    // The spliced reply is exactly what the JSON writer emits for it.
    assert_eq!(reply.to_string(), text);
    reply
}

fn summary(reply: &Json, key: &str) -> u64 {
    reply
        .get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .expect(key)
}

/// `(cache_hits, cache_misses, simulated)` from Document 6.
fn cell_counters(addr: &str) -> [u64; 3] {
    let (status, doc) = http_json_request(addr, "GET", TELEMETRY_PATH, None).unwrap();
    assert_eq!(status, 200);
    let cells = doc
        .get("serve")
        .and_then(|s| s.get("cells"))
        .expect("cells");
    ["cache_hits", "cache_misses", "simulated"]
        .map(|k| cells.get(k).and_then(Json::as_u64).expect(k))
}

/// Each cell's `stats|dists`, compactly serialized, in reply order.
fn stripped(reply: &Json) -> Vec<String> {
    reply
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells")
        .iter()
        .map(|c| {
            let part = |k| c.get(k).map(Json::to_string).expect(k);
            format!("{}|{}", part("stats"), part("dists"))
        })
        .collect()
}

fn local(cfgs: &[CoreConfig]) -> Vec<String> {
    Runner::quick(WARMUP, MEASURE)
        .run_configs_detailed(cfgs)
        .iter()
        .flatten()
        .map(|(s, d)| format!("{}|{}", s.to_json().to_string(), d.to_json().to_string()))
        .collect()
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join("cache").join(format!("{key}.json"))
}

/// Adds one to the first counter of the stats line, leaving every line
/// valid JSON.
fn edit_a_stats_value(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let marker = "{\"counters\":{\"cycles\":";
    let digits = lines[2].strip_prefix(marker).expect("stats line");
    let end = digits.find(|c: char| !c.is_ascii_digit()).expect("number");
    let cycles: u64 = digits[..end].parse().unwrap();
    let stats = format!("{marker}{}{}", cycles + 1, &digits[end..]);
    let edited = format!("{}\n{}\n{stats}\n{}\n", lines[0], lines[1], lines[3]);
    for line in edited.lines() {
        Json::parse(line).expect("the edited entry still parses");
    }
    edited
}

/// The same cell as one pretty-printed document: the metadata fields
/// with `cell` after `schema_version`, then `stats` and `dists`.
fn single_document_layout(text: &str) -> String {
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let mut doc = Json::obj();
    for (k, v) in lines[1].as_obj().expect("metadata") {
        doc.set(k, v.clone());
        if k == "schema_version" {
            doc.set("cell", lines[0].get("cell").cloned().expect("cell"));
        }
    }
    doc.set("stats", lines[2].clone());
    doc.set("dists", lines[3].clone());
    doc.to_string_pretty()
}

#[test]
fn damaged_foreign_and_old_layout_entries_are_resimulated() {
    let (server, addr, dir) = spawn("miss");
    let cfgs = [CoreConfig::fdp()];
    let request = grid_request("state-test", "quick", WARMUP, MEASURE, &cfgs);
    let first = post(&addr, &request);
    let want = local(&cfgs);
    assert_eq!(stripped(&first), want);
    let keys: Vec<String> = first
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells")
        .iter()
        .map(|c| {
            c.get("cell")
                .and_then(Json::as_str)
                .expect("cell")
                .to_string()
        })
        .collect();
    let victim = entry_path(&dir, &keys[0]);
    let neighbour = entry_path(&dir, &keys[1]);

    // Each damage maps (this entry, a neighbour's entry) to the file.
    type Damage = fn(&str, &str) -> String;
    let damages: [(&str, Damage); 3] = [
        ("a stats value edited", |own, _| edit_a_stats_value(own)),
        ("another cell's entry", |_, other| other.to_string()),
        ("the single-document layout", |own, _| {
            single_document_layout(own)
        }),
    ];
    for (case, damage) in damages {
        let own = std::fs::read_to_string(&victim).unwrap();
        let other = std::fs::read_to_string(&neighbour).unwrap();
        std::fs::write(&victim, damage(&own, &other)).unwrap();
        let [hits, misses, simulated] = cell_counters(&addr);

        let reply = post(&addr, &request);
        assert_eq!(summary(&reply, "simulated"), 1, "{case}");
        assert_eq!(summary(&reply, "cache_hits"), 2, "{case}");
        assert_eq!(
            cell_counters(&addr),
            [hits + 2, misses + 1, simulated + 1],
            "{case}: the damaged entry must count as a miss and re-simulate"
        );
        assert_eq!(stripped(&reply), want, "{case}");
        // The fresh entry replaced the damaged file.
        assert_eq!(std::fs::read_to_string(&victim).unwrap(), own, "{case}");
    }

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_grids_leave_the_journal_empty() {
    let (server, addr, dir) = spawn("journal");
    let journal = dir.join("journal.log");
    let log_len = || std::fs::metadata(&journal).expect("journal.log").len();
    let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
    let request = grid_request("state-test", "quick", WARMUP, MEASURE, &cfgs);
    let cold = post(&addr, &request);
    assert_eq!(summary(&cold, "simulated"), 6);
    assert_eq!(
        log_len(),
        0,
        "a finished cold grid leaves nothing to resume"
    );
    for _ in 0..5 {
        let warm = post(&addr, &request);
        assert_eq!(summary(&warm, "cache_hits"), 6);
        assert_eq!(log_len(), 0);
    }
    server.stop();
    assert_eq!(log_len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
