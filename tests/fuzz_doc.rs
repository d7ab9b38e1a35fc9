//! Bidirectional enforcement of `docs/FUZZ.md` and the METRICS.md
//! fuzz documents, in the style of `tests/metrics_doc.rs` /
//! `tests/serve_doc.rs`:
//!
//! * **emitted → documented**: every key of a real fuzz report
//!   (Document 7) and a real case file (Document 8) — including the
//!   embedded portable program image — must be documented.
//! * **documented → real**: the profiles, generator knobs, invariant
//!   names, injection modes, config columns, and CLI flags the docs
//!   spell out must exist in the code exactly as written.

mod support;

use std::sync::Arc;

use fdip_fuzz::{
    fuzz_seed_range, generate, report_to_json, run_matrix, CaseFile, FuzzParams, FuzzProfile,
    Inject, MatrixOptions, ReportMeta, CHECK_NAMES,
};
use fdip_telemetry::{Json, SCHEMA_VERSION};

/// Every key `emitted` carries must be documented in docs/METRICS.md
/// or docs/FUZZ.md.
fn assert_documented(emitted: &Json, context: &str) {
    let keys = support::assert_documented(emitted, &["METRICS.md", "FUZZ.md"], &[], context);
    assert!(keys > 10, "{context}: implausibly few keys emitted");
}

fn quick_opts(inject: Inject) -> MatrixOptions {
    MatrixOptions {
        warmup: 300,
        measure: 1_000,
        jobs: 2,
        inject,
    }
}

#[test]
fn every_fuzz_report_field_is_documented() {
    // An injected run so the violations and cases arrays are populated
    // and every Document 7 key is actually emitted.
    let opts = quick_opts(Inject::StallLeak);
    let (_, out) = fuzz_seed_range(FuzzProfile::Tiny, 21, 1, &opts);
    assert!(!out.violations.is_empty(), "injection must fire");
    let meta = ReportMeta {
        seed: 21,
        count: 1,
        profile: "tiny".to_string(),
        cases: vec!["case_fuzz_tiny_00000015".to_string()],
    };
    let emitted = report_to_json(&meta, &opts, &out);
    assert_eq!(
        emitted.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_documented(&emitted, "fuzz report");
}

#[test]
fn every_case_file_field_is_documented() {
    // A mixed-profile program exercises every instruction form the
    // codec can emit: direct/indirect calls and jumps, conditional
    // branches with all behavior models, loads/stores, returns.
    let program = (0..50)
        .map(|s| generate(&FuzzProfile::Mixed.params(), s))
        .max_by_key(fdip_program::CfgProgram::instr_count)
        .unwrap()
        .emit("doc_case")
        .unwrap();
    let case = CaseFile {
        seed: 3,
        profile: "mixed".to_string(),
        inject: "stall-leak".to_string(),
        violations: vec![(
            "fdp".to_string(),
            "stall_partition".to_string(),
            "demo".to_string(),
        )],
        program,
    };
    let emitted = case.to_json();
    assert_eq!(
        emitted.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_documented(&emitted, "case file");
}

#[test]
fn documented_profiles_knobs_and_modes_exist() {
    let doc = support::doc("FUZZ.md");

    // Every real profile is documented, and FUZZ.md names no others.
    for profile in FuzzProfile::ALL {
        assert!(
            doc.contains(&format!("`{}`", profile.name())),
            "docs/FUZZ.md does not document profile {}",
            profile.name()
        );
    }

    // Every FuzzParams knob named in the doc is a real field — and
    // every real field is named. The Debug form lists the field names.
    let debug = format!("{:?}", FuzzParams::default());
    for knob in [
        "funcs",
        "blocks",
        "body",
        "loop_prob",
        "max_loop_depth",
        "trip",
        "call_prob",
        "cond_prob",
        "indirect_prob",
        "mem_frac",
    ] {
        assert!(
            doc.contains(&format!("`{knob}`")),
            "knob {knob} undocumented"
        );
        assert!(debug.contains(knob), "doc names unknown knob {knob}");
    }

    // Injection modes parse exactly as documented.
    assert_eq!(Inject::from_name("stall-leak"), Some(Inject::StallLeak));
    assert_eq!(Inject::from_name("ledger-drop"), Some(Inject::LedgerDrop));
    for mode in ["stall-leak", "ledger-drop", "none"] {
        assert!(
            doc.contains(&format!("`{mode}`")),
            "mode {mode} undocumented"
        );
    }
}

#[test]
fn documented_invariants_and_configs_match_the_harness() {
    let doc = support::doc("FUZZ.md");
    // Every check the harness performs is documented by name...
    for name in CHECK_NAMES {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/FUZZ.md does not document invariant {name}"
        );
    }
    // ...and every documented config column is a real matrix column.
    let configs: Vec<&str> = fdip_fuzz::config_matrix().iter().map(|(n, _)| *n).collect();
    for cfg in ["fdp", "fdp_no_pfc", "no_fdp", "perfect_btb", "fnlmma"] {
        assert!(configs.contains(&cfg), "doc names unknown config {cfg}");
        assert!(
            doc.contains(&format!("`{cfg}`")),
            "config {cfg} undocumented"
        );
    }
    // A real run must exercise every documented check at least once.
    let (_, out) = fuzz_seed_range(FuzzProfile::Tiny, 33, 1, &quick_opts(Inject::None));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    for (name, n) in out.checks {
        assert!(n > 0, "documented check {name} never asserted");
    }
}

#[test]
fn documented_corpus_regeneration_command_matches_reality() {
    // The doc pins the regeneration command; its seed/count must match
    // what the committed corpus actually contains.
    let doc = support::doc("FUZZ.md");
    assert!(
        doc.contains("fdip-fuzz corpus --seed 1 --count 24 --out tests/corpus"),
        "docs/FUZZ.md regeneration command drifted"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let cases = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "json")
        })
        .count();
    assert_eq!(cases, 24, "corpus size drifted from the documented command");
}

#[test]
fn documented_replay_honesty_holds() {
    // FUZZ.md: "replay re-runs saved cases (always honest — injection
    // is ignored)". Build a case under injection, replay it, and assert
    // the replay is clean.
    let program = generate(&FuzzProfile::Tiny.params(), 2)
        .emit("honest")
        .unwrap();
    let opts = quick_opts(Inject::LedgerDrop);
    let out = run_matrix(&[("honest".to_string(), Arc::new(program.clone()))], &opts);
    assert!(!out.violations.is_empty(), "injection must fire");
    let case = CaseFile {
        seed: 2,
        profile: "tiny".to_string(),
        inject: "ledger-drop".to_string(),
        violations: out
            .violations
            .iter()
            .map(|v| {
                (
                    v.config.clone(),
                    v.violation.invariant.to_string(),
                    v.violation.detail.clone(),
                )
            })
            .collect(),
        program,
    };
    let replay = case.replay(&opts);
    assert!(replay.violations.is_empty(), "{:?}", replay.violations);
}
