//! Result identity across commits: a pinned table of result digests.
//!
//! Every other byte-identity check in the repository compares a binary
//! with itself (worker counts, tracing on and off, served vs local). This
//! one compares the simulator with the commit that pinned [`GOLDEN`]: each
//! entry is the FNV-1a digest (`fdip_harness::remote::fnv1a64`) of one
//! cell's stats and dists JSON, so a change that moves any counter,
//! histogram bucket or IPC sample of any cell fails here.
//!
//! The cells cover the quick suite at 2K/10K under configs chosen for the
//! paths they reach (taken-only and all-branch BTB allocation in the
//! functional warm-up, GHR fixup restreams, PFC restreams on a small BTB,
//! a perfect BTB with an odd warm-up length, two dedicated prefetchers),
//! plus four committed fuzz-corpus programs under the fuzz config matrix.
//!
//! A change that alters the model on purpose regenerates the table (the
//! failure message prints the whole actual table, ready to paste) and
//! says so in its change notes. A performance change must leave it
//! untouched.

use std::path::PathBuf;
use std::sync::Arc;

use fdip_bpred::HistoryPolicy;
use fdip_fuzz::{config_matrix, CaseFile};
use fdip_harness::remote::fnv1a64;
use fdip_harness::Runner;
use fdip_prefetch::PrefetcherKind;
use fdip_sim::{CoreConfig, SimDists, SimStats};
use fdip_telemetry::ToJson;

/// Quick-suite run lengths.
const QUICK: (u64, u64) = (2_000, 10_000);
/// Corpus run lengths (the fuzz matrix's budget).
const CORPUS: (u64, u64) = (1_000, 3_000);
/// Committed corpus programs. The corpus is shrunk to a few instructions
/// per case, and most cases settle into a one-branch loop; these four
/// retire conditionals, and two of them mispredict or differ across the
/// matrix's configs.
const CORPUS_FILES: [&str; 4] = [
    "corpus_tiny_00000001.json",
    "corpus_small_0000000a.json",
    "corpus_small_0000000e.json",
    "corpus_large_00000010.json",
];

/// `(cell, digest)` pairs, in the order [`actual_table`] produces them.
const GOLDEN: &[(&str, u64)] = &[
    ("quick/fdp/server_a", 0xfacc7686fe283103),
    ("quick/fdp/client_a", 0xcc7edd6a03b7242b),
    ("quick/fdp/spec_a", 0xc96f84f2554143d0),
    ("quick/no_fdp/server_a", 0x054603e3f2466144),
    ("quick/no_fdp/client_a", 0x4c6d5c62c3cfbea2),
    ("quick/no_fdp/spec_a", 0x8a9aaecd57a1b465),
    ("quick/ghr1/server_a", 0x2a6c33906e6063d4),
    ("quick/ghr1/client_a", 0x1c42d93b63d56ebd),
    ("quick/ghr1/spec_a", 0x76c4a4f87b400655),
    ("quick/ghr2/server_a", 0xaeca5e8f3f79f51d),
    ("quick/ghr2/client_a", 0xe5a72e15fd5937da),
    ("quick/ghr2/spec_a", 0x76c4a4f87b400655),
    ("quick/btb1k/server_a", 0x30084ff94d1e6e12),
    ("quick/btb1k/client_a", 0xbc1297ca58a5a9d3),
    ("quick/btb1k/spec_a", 0xc6879e37863dfc03),
    ("quick/perfect_btb/server_a", 0xddf44e1e92c964e4),
    ("quick/perfect_btb/client_a", 0x6c75793fa8efce79),
    ("quick/perfect_btb/spec_a", 0x7d744f6e7889fbda),
    ("quick/fnlmma/server_a", 0x386c3fa666f5c139),
    ("quick/fnlmma/client_a", 0x697d36b7a5c06126),
    ("quick/fnlmma/spec_a", 0x112f6044e66d7288),
    ("quick/djolt/server_a", 0x8887ceb2e8ff53e7),
    ("quick/djolt/client_a", 0x8040d9b07b867dcd),
    ("quick/djolt/spec_a", 0x99d3581724a22003),
    ("corpus/fdp/corpus_tiny_00000001", 0x725ffe7b934a04fa),
    ("corpus/fdp/corpus_small_0000000a", 0x22651c3c1669d87c),
    ("corpus/fdp/corpus_small_0000000e", 0x3c7471eea3e1b318),
    ("corpus/fdp/corpus_large_00000010", 0x5d6b34c716390d13),
    ("corpus/fdp_no_pfc/corpus_tiny_00000001", 0x725ffe7b934a04fa),
    (
        "corpus/fdp_no_pfc/corpus_small_0000000a",
        0x22651c3c1669d87c,
    ),
    (
        "corpus/fdp_no_pfc/corpus_small_0000000e",
        0x3c7471eea3e1b318,
    ),
    (
        "corpus/fdp_no_pfc/corpus_large_00000010",
        0x5d6b34c716390d13,
    ),
    ("corpus/no_fdp/corpus_tiny_00000001", 0x725ffe7b934a04fa),
    ("corpus/no_fdp/corpus_small_0000000a", 0x22651c3c1669d87c),
    ("corpus/no_fdp/corpus_small_0000000e", 0x3c7471eea3e1b318),
    ("corpus/no_fdp/corpus_large_00000010", 0x90f01197d01080ff),
    (
        "corpus/perfect_btb/corpus_tiny_00000001",
        0x73778f146127e051,
    ),
    (
        "corpus/perfect_btb/corpus_small_0000000a",
        0xea715a77c2335cee,
    ),
    (
        "corpus/perfect_btb/corpus_small_0000000e",
        0x65681931c4f1100c,
    ),
    (
        "corpus/perfect_btb/corpus_large_00000010",
        0xda9ca17ebb7fdd5b,
    ),
    ("corpus/fnlmma/corpus_tiny_00000001", 0x725ffe7b934a04fa),
    ("corpus/fnlmma/corpus_small_0000000a", 0x22651c3c1669d87c),
    ("corpus/fnlmma/corpus_small_0000000e", 0x3c7471eea3e1b318),
    ("corpus/fnlmma/corpus_large_00000010", 0x5d6b34c716390d13),
];

fn quick_configs() -> Vec<(&'static str, CoreConfig)> {
    let perfect_btb = CoreConfig {
        perfect_btb: true,
        func_warmup: 1_234_567,
        ..CoreConfig::fdp()
    };
    vec![
        ("fdp", CoreConfig::fdp()),
        ("no_fdp", CoreConfig::no_fdp()),
        ("ghr1", CoreConfig::fdp().with_policy(HistoryPolicy::Ghr1)),
        ("ghr2", CoreConfig::fdp().with_policy(HistoryPolicy::Ghr2)),
        ("btb1k", CoreConfig::fdp().with_btb_entries(1024)),
        ("perfect_btb", perfect_btb),
        (
            "fnlmma",
            CoreConfig::fdp().with_prefetcher(PrefetcherKind::FnlMma),
        ),
        (
            "djolt",
            CoreConfig::fdp().with_prefetcher(PrefetcherKind::Djolt),
        ),
    ]
}

fn digest(stats: &SimStats, dists: &SimDists) -> u64 {
    let text = stats.to_json().to_string() + "\n" + &dists.to_json().to_string();
    fnv1a64(text.as_bytes())
}

/// Runs `cfgs` over `runner` and names each cell `<prefix>/<config>/<program>`.
fn cells(prefix: &str, runner: &Runner, cfgs: &[(&'static str, CoreConfig)]) -> Vec<(String, u64)> {
    let configs: Vec<CoreConfig> = cfgs.iter().map(|(_, c)| c.clone()).collect();
    let names = runner.names();
    let grid = runner.run_configs_detailed(&configs);
    let mut out = Vec::new();
    for ((cfg_name, _), per_cfg) in cfgs.iter().zip(grid) {
        for (program, (stats, dists)) in names.iter().zip(per_cfg) {
            out.push((
                format!("{prefix}/{cfg_name}/{program}"),
                digest(&stats, &dists),
            ));
        }
    }
    out
}

fn actual_table() -> Vec<(String, u64)> {
    let mut table = cells("quick", &Runner::quick(QUICK.0, QUICK.1), &quick_configs());
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let programs = CORPUS_FILES
        .iter()
        .map(|f| {
            let case = CaseFile::read(&dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"));
            let name = f.trim_end_matches(".json").to_string();
            (name, Arc::new(case.program))
        })
        .collect();
    let corpus = Runner::from_programs(programs, CORPUS.0, CORPUS.1);
    table.extend(cells("corpus", &corpus, &config_matrix()));
    table
}

#[test]
fn results_match_the_pinned_digests() {
    let actual = actual_table();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(cell, d)| (cell.to_string(), d))
        .collect();
    if actual != expected {
        let mut msg = String::from("result digests moved; the actual table is:\n");
        msg.push_str("const GOLDEN: &[(&str, u64)] = &[\n");
        for (cell, d) in &actual {
            msg.push_str(&format!("    (\"{cell}\", {d:#018x}),\n"));
        }
        msg.push_str("];\n");
        for ((cell, a), (_, e)) in actual.iter().zip(&expected) {
            if a != e {
                msg.push_str(&format!("first mismatch: {cell}\n"));
                break;
            }
        }
        panic!("{msg}");
    }
}
