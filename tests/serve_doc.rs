//! Bidirectional enforcement of `docs/SERVE.md`, in the style of
//! `tests/metrics_doc.rs`:
//!
//! * **emitted → documented**: every key that actually crosses the wire
//!   (grid request, grid response, every GET endpoint, error bodies),
//!   every key in an on-disk cache entry or journal record, and every
//!   key of a `--trace-dir` grid span file must be documented — in
//!   `docs/SERVE.md`, or in `docs/METRICS.md` for the embedded
//!   stats/dists/histogram/Document-6 blocks and the Document 4 trace
//!   vocabulary specified there.
//! * **documented → real**: the endpoints, error codes, and
//!   content-address algorithms the doc spells out must behave exactly
//!   as written — the FNV-1a constants and canonical strings are
//!   re-implemented here from the doc's text and compared against the
//!   production codec.

mod support;

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use fdip_bpred::GshareConfig;
use fdip_harness::remote::{
    cell_key, config_hash, config_to_json, fnv1a64, grid_request, http_json_request, workload_hash,
    GRID_PATH, HEALTHZ_PATH, LOGS_PATH, METRICS_PATH, PROGRESS_PATH, SHUTDOWN_PATH, TELEMETRY_PATH,
};
use fdip_serve::journal::Journal;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::{CoreConfig, DirectionConfig};
use fdip_telemetry::Json;

/// Every key `emitted` carries must be documented in docs/SERVE.md or
/// docs/METRICS.md.
fn assert_documented(emitted: &Json, context: &str) {
    support::assert_documented(emitted, &["SERVE.md", "METRICS.md"], &[], context);
}

/// The fields named in the first column of the tables in
/// docs/SERVE.md §"Cache entries".
fn documented_entry_fields() -> BTreeSet<String> {
    let doc = support::doc("SERVE.md");
    let start = doc.find("### Cache entries").expect("§Cache entries");
    let section = &doc[start..];
    let end = section[1..].find("\n#").map_or(section.len(), |i| i + 1);
    support::table_rows(&section[..end])
        .into_iter()
        .flat_map(|(names, _)| names)
        .collect()
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdip-serve-doc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn test_server(tag: &str) -> (Server, String, PathBuf) {
    let dir = state_dir(tag);
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    config.trace_dir = Some(dir.join("traces"));
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    (server, addr, dir)
}

#[test]
fn every_wire_key_is_documented() {
    let (server, addr, dir) = test_server("wire");
    let request = grid_request("serve-doc-test", "quick", 500, 2_000, &[CoreConfig::fdp()]);
    assert_documented(&request, "grid request");
    // The direction variants the grid below does not send.
    for direction in [
        DirectionConfig::Gshare(GshareConfig::default()),
        DirectionConfig::Perfect,
    ] {
        let mut cfg = CoreConfig::fdp();
        cfg.direction = direction;
        assert_documented(&config_to_json(&cfg), "canonical config");
    }

    let (status, response) =
        http_json_request(&addr, "POST", GRID_PATH, Some(&request)).expect("grid served");
    assert_eq!(status, 200, "{response:?}");
    assert_documented(&response, "grid response");
    // The documented summary must reflect a fresh, fully simulated grid.
    let summary = response.get("summary").expect("summary");
    assert_eq!(summary.get("total_cells").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("simulated").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(summary.get("coalesced").and_then(Json::as_u64), Some(0));

    // Every JSON GET endpoint, same rule (`/v1/metrics` is text, not
    // JSON — its vocabulary is enforced by tests/obs_doc.rs instead).
    for (path, context) in [
        (HEALTHZ_PATH, "healthz"),
        (PROGRESS_PATH, "progress"),
        (TELEMETRY_PATH, "telemetry"),
        (LOGS_PATH, "logs"),
    ] {
        let (status, body) = http_json_request(&addr, "GET", path, None).expect(context);
        assert_eq!(status, 200, "{context}");
        assert_documented(&body, context);
    }

    // On-disk cache entries are an on-disk format, documented both ways:
    // the header and metadata lines carry exactly the fields
    // §"Cache entries" lists, and every nested key is documented.
    let cache_dir = dir.join("cache");
    let entry_path = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("at least one cache entry");
    let text = std::fs::read_to_string(entry_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "an entry is four lines: {text}");
    let parsed: Vec<Json> = lines
        .iter()
        .map(|line| Json::parse(line).expect("entry line parses"))
        .collect();
    for line in &parsed {
        assert_documented(line, "cache entry");
    }
    let on_disk: BTreeSet<String> = parsed[..2]
        .iter()
        .flat_map(|line| line.as_obj().expect("object line").iter())
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(
        on_disk,
        documented_entry_fields(),
        "cache entry header/metadata fields vs docs/SERVE.md §\"Cache entries\""
    );
    // The digest covers the stats and dists lines, which are the bytes
    // the response served for that cell.
    let served = &text[lines[0].len() + lines[1].len() + 2..];
    let digest = format!("{:016x}", fnv1a64(served.as_bytes()));
    assert_eq!(
        parsed[0].get("digest").and_then(Json::as_str),
        Some(digest.as_str())
    );
    let key = parsed[0].get("cell").and_then(Json::as_str).expect("cell");
    let cell = response
        .get("cells")
        .and_then(Json::as_arr)
        .and_then(|cells| {
            cells
                .iter()
                .find(|c| c.get("cell").and_then(Json::as_str) == Some(key))
        })
        .expect("the entry's cell is in the response");
    assert_eq!(
        cell.get("stats").map(Json::to_string).as_deref(),
        Some(lines[2])
    );
    assert_eq!(
        cell.get("dists").map(Json::to_string).as_deref(),
        Some(lines[3])
    );

    // Journal records. The grid above ended, which emptied the daemon's
    // log, so write the one record kind through a second journal.
    let journal_path = dir.join("doc-journal.log");
    let (mut journal, _) = Journal::open(journal_path.clone()).expect("journal opens");
    journal.grid_begin("g", &request).unwrap();
    let records = std::fs::read_to_string(&journal_path).unwrap();
    assert_eq!(records.lines().count(), 1, "{records}");
    for line in records.lines() {
        assert_documented(&Json::parse(line).expect("record parses"), "journal record");
    }

    // The grid's span file, written before the response went out.
    let grid_id = response
        .get("grid_id")
        .and_then(Json::as_str)
        .expect("grid_id");
    let trace = std::fs::read_to_string(dir.join("traces").join(format!("grid-{grid_id}.json")))
        .expect("grid span file");
    assert_documented(
        &Json::parse(&trace).expect("span file parses"),
        "grid span file",
    );

    // Shutdown response, and the drain it documents.
    let (status, body) = http_json_request(&addr, "POST", SHUTDOWN_PATH, None).expect("shutdown");
    assert_eq!(status, 200);
    assert_documented(&body, "shutdown response");
    assert_eq!(body.get("draining").and_then(Json::as_bool), Some(true));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn documented_error_codes_behave_as_written() {
    let (server, addr, dir) = test_server("errors");

    // 404 not_found on an unknown path.
    let (status, body) = http_json_request(&addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");
    assert_documented(&body, "error body");

    // 400 bad_request on a structurally invalid grid.
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&Json::obj())).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");

    // 400 unsupported_suite: the daemon only rebuilds named suites.
    let request = grid_request("t", "custom", 500, 2_000, &[CoreConfig::fdp()]);
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "unsupported_suite");

    // 400 bad_request on a body nested past the parser's depth cap, sent
    // as raw bytes: 200,000 `[`, deep enough to overflow the stack of a
    // parser without the cap. The daemon stays up, and the doc states
    // the cap.
    let body = "[".repeat(200_000);
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(
        stream,
        "POST {GRID_PATH} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert!(reply.contains("\"bad_request\""), "{reply}");
    let (status, _) = http_json_request(&addr, "GET", HEALTHZ_PATH, None).unwrap();
    assert_eq!(status, 200);
    assert!(support::doc("SERVE.md").contains(&format!("deeper than {} levels", Json::MAX_DEPTH)));

    // 400 bad_request on configs the simulator cannot build: a BTB with
    // no ways, a TAGE fold wider than 31 bits and a data hot region as
    // large as the whole data set (8 MiB) once panicked inside the daemon
    // (no reply, and a drain that never finished), and 2^32 + 9 was
    // truncated to TAGE size 9 and answered 200.
    let configs = [
        ("btb", "assoc", 0u64),
        ("direction", "entries_log2", 40),
        ("direction", "entries_log2", 4_294_967_305),
        ("backend", "data_hot_bytes", 8 << 20),
    ]
    .map(|(group, key, value)| {
        let mut cfg = config_to_json(&CoreConfig::fdp());
        let mut inner = cfg.get(group).cloned().unwrap();
        inner.set(key, value);
        cfg.set(group, inner);
        let request = grid_request("t", "quick", 500, 2_000, &[]).with("configs", vec![cfg]);
        (format!("{key}: {value}"), request)
    });
    // And on a client name outside the documented rule: a 1 MiB name was
    // answered 200 and then carried by every scrape and Document 6.
    let clients = ["x".repeat(1 << 20), "a b".to_string()].map(|client| {
        let request = grid_request(&client, "quick", 500, 2_000, &[CoreConfig::fdp()]);
        (format!("a {}-byte client", client.len()), request)
    });
    for (what, request) in configs.into_iter().chain(clients) {
        let body = request.to_string();
        // Raw bytes with a read deadline: a daemon that panics on the
        // request never answers, and the test must fail, not hang.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        write!(
            stream,
            "POST {GRID_PATH} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400 "), "{what}: {reply}");
        assert!(reply.contains("\"bad_request\""), "{what}: {reply}");
    }
    assert!(support::doc("SERVE.md").contains("1–64 bytes of ASCII letters"));
    assert!(support::doc("SERVE.md").contains("outside the documented range"));

    // 413 too_large on a request head past the 64 KiB limit: a 1 MiB
    // header line. The daemon answers once the limit is read, not after
    // the whole line arrives; it then closes with the rest unread, so the
    // peer may see a reset after the reply.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let head = format!(
            "GET {HEALTHZ_PATH} HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(1 << 20)
        );
        writer.write_all(head.as_bytes()).ok();
    });
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(reply.contains("\"too_large\""), "{reply}");
    drop(stream);
    sender.join().unwrap();
    let (status, _) = http_json_request(&addr, "GET", HEALTHZ_PATH, None).unwrap();
    assert_eq!(status, 200);
    assert!(support::doc("SERVE.md").contains("64 KiB"));

    // Then the daemon drains on shutdown, within a deadline, and leaves
    // an empty journal.
    let (status, _) = http_json_request(&addr, "POST", SHUTDOWN_PATH, None).unwrap();
    assert_eq!(status, 200);
    let (done, drained) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        done.send(()).ok();
    });
    drained
        .recv_timeout(Duration::from_secs(60))
        .expect("the daemon drains after the rejected grids");
    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    assert!(journal.is_empty(), "{journal}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_bodies_get_413_as_documented() {
    let dir = state_dir("toolarge");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    config.max_body_bytes = 64;
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let request = grid_request("t", "quick", 500, 2_000, &[CoreConfig::fdp()]);
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 413);
    assert_eq!(error_code(&body), "too_large");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

fn error_code(body: &Json) -> &str {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error.code")
}

#[test]
fn documented_hash_algorithm_matches_the_codec() {
    // FNV-1a 64, re-implemented from the doc's stated constants.
    fn doc_fnv(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    for sample in [&b""[..], b"a", b"fdip", b"\x00\xff"] {
        assert_eq!(fnv1a64(sample), doc_fnv(sample));
    }

    // Config hash: FNV-1a over the canonical object's compact form.
    let cfg = CoreConfig::fdp();
    assert_eq!(
        config_hash(&cfg),
        doc_fnv(config_to_json(&cfg).to_string().as_bytes())
    );

    // Cell key: the documented canonical string, 16 lowercase hex.
    let w = &fdip_program::workload::quick_suite()[0];
    let (ch, wh, seed) = (config_hash(&cfg), workload_hash(w), w.params.seed);
    let canon =
        format!("fdip-cell-v1|cfg={ch:016x}|wl={wh:016x}|seed={seed}|warmup=500|measure=2000");
    assert_eq!(
        cell_key(ch, wh, seed, 500, 2_000),
        format!("{:016x}", doc_fnv(canon.as_bytes()))
    );

    // Workload hash: FNV-1a over the generator parameters' Debug form.
    assert_eq!(wh, doc_fnv(format!("{:?}", w.params).as_bytes()));
}

#[test]
fn documented_paths_and_codes_appear_in_the_doc() {
    // The reverse textual direction: the doc must name every endpoint
    // constant and every error code the daemon can actually produce.
    let doc = support::doc("SERVE.md");
    for path in [
        GRID_PATH,
        HEALTHZ_PATH,
        PROGRESS_PATH,
        TELEMETRY_PATH,
        METRICS_PATH,
        LOGS_PATH,
        SHUTDOWN_PATH,
    ] {
        assert!(doc.contains(path), "docs/SERVE.md does not mention {path}");
    }
    for code in [
        "bad_request",
        "unsupported_suite",
        "not_found",
        "timeout",
        "too_large",
        "busy",
        "internal",
        "draining",
        "interrupted",
    ] {
        assert!(
            doc.contains(&format!("`{code}`")),
            "docs/SERVE.md does not document error code {code}"
        );
    }
    // And the grid-id canonical prefix is pinned verbatim.
    assert!(doc.contains("fdip-grid-v1|suite="));
    assert!(doc.contains("fdip-cell-v1|cfg="));
}
