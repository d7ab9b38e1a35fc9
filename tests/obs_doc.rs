//! Bidirectional enforcement of the metric catalog in
//! `docs/OBSERVABILITY.md`:
//!
//! * **exposed → documented**: every family a live daemon's
//!   `/v1/metrics` scrape exposes appears in the doc's catalog tables,
//!   with the same type, and its samples only carry documented labels;
//! * **documented → real**: every documented `fdip_serve_` /
//!   `fdip_exec_` family shows up on the scrape.
//!
//! The catalog rows are parsed straight out of the markdown tables, so
//! renaming a metric without updating the doc (or vice versa) fails here.

mod support;

use std::collections::BTreeMap;
use std::path::PathBuf;

use fdip_harness::remote::{http_text_request, RemoteClient, METRICS_PATH};
use fdip_obs::expo;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::CoreConfig;

/// A catalog row: family name → (type cell, labels cell).
fn documented_families() -> BTreeMap<String, (String, String)> {
    let mut out = BTreeMap::new();
    for (names, cells) in support::table_rows(&support::doc("OBSERVABILITY.md")) {
        // `| `name` | kind | labels | meaning |`
        if let ([name], [kind, labels, ..]) = (&names[..], &cells[..]) {
            if name.starts_with("fdip_") {
                let prior = out.insert(name.clone(), (kind.to_string(), labels.to_string()));
                assert!(prior.is_none(), "{name} is catalogued twice");
            }
        }
    }
    assert!(
        out.len() >= 12,
        "catalog parse looks broken: only {} rows",
        out.len()
    );
    out
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdip-obs-doc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every family in `scrape` (matching `prefixes`) must be catalogued
/// with the same type and only documented labels — and every catalogued
/// name with those prefixes must be present in `scrape`.
fn assert_catalog_matches(
    scrape: &expo::Scrape,
    catalog: &BTreeMap<String, (String, String)>,
    prefixes: &[&str],
    context: &str,
) {
    for (name, family) in &scrape.families {
        if !prefixes.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let (kind, labels) = catalog.get(name).unwrap_or_else(|| {
            panic!("{context}: {name} is exposed but not catalogued in docs/OBSERVABILITY.md")
        });
        assert_eq!(
            &family.kind, kind,
            "{context}: {name} is documented as a {kind} but exposed as a {}",
            family.kind
        );
        for sample in &family.samples {
            for (key, _) in &sample.labels {
                // `le` is structural: every histogram's `_bucket` series
                // carries it (documented in the exposition prose, not
                // per-family).
                if kind == "histogram" && key == "le" {
                    continue;
                }
                assert!(
                    labels.contains(&format!("`{key}`")),
                    "{context}: {name} carries undocumented label `{key}` \
                     (labels cell says: {labels})"
                );
            }
        }
    }
    for name in catalog.keys() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            assert!(
                scrape.families.contains_key(name),
                "{context}: {name} is catalogued but a live daemon never exposes it"
            );
        }
    }
}

#[test]
fn the_daemon_catalog_matches_a_live_scrape_bidirectionally() {
    let catalog = documented_families();
    let dir = state_dir("daemon");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();

    // Traffic first: the per-client labeled families only materialize
    // once a grid has been served.
    let client = RemoteClient::new(&addr, "obs-doc");
    client
        .run_grid("quick", 500, 2_000, &[CoreConfig::fdp()], 3)
        .expect("grid served");

    let (status, text) = http_text_request(&addr, "GET", METRICS_PATH, None).expect("scrape");
    assert_eq!(status, 200);
    let scrape = expo::validate(&text).expect("scrape validates");
    assert_catalog_matches(&scrape, &catalog, &["fdip_serve_", "fdip_exec_"], "daemon");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
