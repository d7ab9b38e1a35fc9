//! Source rules that rustc and clippy cannot state, plus pins on the lint
//! configuration that enforces the rest (README §"Lints").
//!
//! * `Ordering::Relaxed` in the crates that coordinate across threads is
//!   confined to three files whose atomics are telemetry tallies; every
//!   hand-off elsewhere needs Acquire/Release.
//! * Every workspace member inherits `[workspace.lints]`, the hot-path
//!   modules deny the panic family, and exactly one file opts out of
//!   `unsafe_code`. Removing any of these would silently switch a check
//!   off, so this test fails instead.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The crates whose threads hand results to each other.
const SYNC_SRC: &[&str] = &["crates/exec/src", "crates/serve/src", "crates/obs/src"];

/// Files whose `Relaxed` atomics are telemetry tallies no reader orders
/// anything by; see the comments at each use.
const RELAXED_FILES: &[&str] = &[
    "crates/exec/src/lib.rs",
    "crates/obs/src/log.rs",
    "crates/obs/src/metrics.rs",
];

/// Modules on the simulator's per-cycle path.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/sim.rs",
    "crates/core/src/meta.rs",
    "crates/core/src/probe.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/table.rs",
];

const HOT_PATH_DENIED: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

fn read(rel: &str) -> String {
    std::fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `rel`, as `/`-separated paths relative to the
/// repository root.
fn rust_files(rel: &str, out: &mut Vec<String>) {
    let dir = Path::new(ROOT).join(rel);
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{rel}: {e}")) {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 name");
        let child = format!("{rel}/{name}");
        if path.is_dir() {
            if name != "target" {
                rust_files(&child, out);
            }
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
}

/// The workspace members named by the root manifest's `members` globs.
fn member_manifests() -> Vec<PathBuf> {
    let root = read("Cargo.toml");
    let line = root
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("workspace members");
    let mut manifests = vec![Path::new(ROOT).join("Cargo.toml")];
    for pattern in line.split('"').skip(1).step_by(2) {
        let dir = pattern
            .strip_suffix("/*")
            .expect("members are `dir/*` globs");
        for entry in std::fs::read_dir(Path::new(ROOT).join(dir)).expect("member dir") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    manifests
}

#[test]
fn relaxed_atomics_stay_in_the_telemetry_files() {
    let mut files = Vec::new();
    for dir in SYNC_SRC {
        rust_files(dir, &mut files);
    }
    let users: BTreeSet<&str> = files
        .iter()
        .filter(|f| read(f).contains("Relaxed"))
        .map(String::as_str)
        .collect();
    assert_eq!(
        users,
        RELAXED_FILES.iter().copied().collect(),
        "Ordering::Relaxed outside the telemetry tallies: a cross-thread hand-off needs \
         Acquire/Release"
    );
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifests = member_manifests();
    assert!(
        manifests.len() > 10,
        "implausibly few members: {manifests:?}"
    );
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn hot_path_modules_deny_the_panic_family() {
    for file in HOT_PATH_FILES {
        let text = read(file);
        let start = text
            .find("#![deny(")
            .unwrap_or_else(|| panic!("{file}: no #![deny("));
        let body = &text[start + "#![deny(".len()..];
        let body = &body[..body.find(")]").expect("closed attribute")];
        let denied: BTreeSet<&str> = body
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(
            denied,
            HOT_PATH_DENIED.iter().copied().collect(),
            "{file}: hot-path deny list"
        );
    }
}

#[test]
fn exactly_one_file_allows_unsafe_code() {
    // Assembled so that this file does not match its own needle.
    let needle = format!("allow({}", "unsafe_code");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        rust_files(dir, &mut files);
    }
    let allowing: Vec<&String> = files
        .iter()
        .filter(|f| {
            read(f)
                .split_whitespace()
                .collect::<String>()
                .contains(&needle)
        })
        .collect();
    assert_eq!(
        allowing,
        ["tests/alloc_budget.rs"],
        "files allowing unsafe_code"
    );
}
