//! Result identity of the benchmark's simulator shapes.
//!
//! `tests/result_identity.rs` pins one-shot 2K/10K runs. The shapes the
//! benchmark times live longer: one simulator serves many `run()` calls,
//! the measured window is 200K instructions, and the fuzz ops build a
//! fresh simulator for every short checked run. Each entry of [`GOLDEN`]
//! is the FNV-1a digest (`fdip_harness::remote::fnv1a64`) of one such
//! shape's results:
//!
//! * `single/<program>`: `single`'s pieces on the quick suite under
//!   `fdp`, one simulator built with the benchmark's seed, then
//!   `run(0, 20_000)` and 40 `run(·, 5_000)` calls, each piece's stats
//!   JSON;
//! * `window/<config>/<program>`: the default 50K/200K window under `fdp`
//!   and `no_fdp`, stats and dists;
//! * `fuzz/<program>`: `run_workload_checked` of the first programs of
//!   the benchmark's seed-0 `Mixed` corpus under every `config_matrix()`
//!   config at the matrix's 1K/3K budget, stats, dists and violations.
//!
//! A performance change must leave the table untouched; a deliberate
//! model change regenerates it from the failure message, as it does
//! `result_identity`'s.

use fdip_fuzz::{config_matrix, generate, FuzzProfile};
use fdip_harness::remote::fnv1a64;
use fdip_program::workload::quick_suite;
use fdip_sim::{run_workload_checked, run_workload_detailed, CoreConfig, Simulator};
use fdip_telemetry::ToJson;

/// The benchmark's simulator seed.
const SIM_SEED: u64 = 0xf0cced;
/// `single`'s warm-up piece, chunk size and chunk count.
const SINGLE: (u64, u64, u64) = (20_000, 5_000, 40);
/// `fdip-run`'s default window.
const WINDOW: (u64, u64) = (50_000, 200_000);
/// The fuzz matrix's budget.
const FUZZ: (u64, u64) = (1_000, 3_000);
/// Programs of the seed-0 corpus that are checked.
const FUZZ_PROGRAMS: u64 = 16;

/// `(shape, digest)` pairs, in the order [`actual_table`] produces them.
const GOLDEN: &[(&str, u64)] = &[
    ("single/server_a", 0x41f28b6ea2e43d99),
    ("single/client_a", 0xb33772d071827d7e),
    ("single/spec_a", 0x8bf329047441f6c3),
    ("window/fdp/server_a", 0x9965be59601006e5),
    ("window/fdp/client_a", 0x4a67110b7a5d14d3),
    ("window/fdp/spec_a", 0x5ba76605bade3bf9),
    ("window/no_fdp/server_a", 0x5f85c2b182aaaa34),
    ("window/no_fdp/client_a", 0x7604f64208d43a57),
    ("window/no_fdp/spec_a", 0x8ffcce18ff3b2ce6),
    ("fuzz/fuzz_mixed_00000000", 0x80cd37c40bd50020),
    ("fuzz/fuzz_mixed_00000001", 0xdf53d26992407743),
    ("fuzz/fuzz_mixed_00000002", 0x720cd026f811cb51),
    ("fuzz/fuzz_mixed_00000003", 0xf65575f98353e4b1),
    ("fuzz/fuzz_mixed_00000004", 0xe3450745ee7c974c),
    ("fuzz/fuzz_mixed_00000005", 0xc3530372da6eab7c),
    ("fuzz/fuzz_mixed_00000006", 0xc187288f1dfdc8b0),
    ("fuzz/fuzz_mixed_00000007", 0xdc9eff5eefbb1f98),
    ("fuzz/fuzz_mixed_00000008", 0x20c177f94281ccbd),
    ("fuzz/fuzz_mixed_00000009", 0xb97bca029b914e96),
    ("fuzz/fuzz_mixed_0000000a", 0x489ef882be440c2a),
    ("fuzz/fuzz_mixed_0000000b", 0xebd8d5ae5d62287e),
    ("fuzz/fuzz_mixed_0000000c", 0xfe603c4d4c428e59),
    ("fuzz/fuzz_mixed_0000000d", 0xb38a9584a272e075),
    ("fuzz/fuzz_mixed_0000000e", 0x575517378bc926e5),
    ("fuzz/fuzz_mixed_0000000f", 0xad5ea3c065d45c87),
];

fn single_pieces() -> Vec<(String, u64)> {
    let (warmup, chunk, chunks) = SINGLE;
    quick_suite()
        .iter()
        .map(|w| {
            let program = w.build();
            let mut sim = Simulator::new(CoreConfig::fdp(), &program, SIM_SEED);
            let mut text = sim.run(0, warmup).to_json().to_string();
            for k in 0..chunks {
                text.push('\n');
                text.push_str(&sim.run(warmup + k * chunk, chunk).to_json().to_string());
            }
            (format!("single/{}", w.name), fnv1a64(text.as_bytes()))
        })
        .collect()
}

fn default_window() -> Vec<(String, u64)> {
    let programs: Vec<_> = quick_suite()
        .iter()
        .map(|w| (w.name.clone(), w.build()))
        .collect();
    let mut out = Vec::new();
    for (cfg_name, cfg) in [("fdp", CoreConfig::fdp()), ("no_fdp", CoreConfig::no_fdp())] {
        for (name, program) in &programs {
            let (stats, dists) = run_workload_detailed(&cfg, program, WINDOW.0, WINDOW.1);
            let text = stats.to_json().to_string() + "\n" + &dists.to_json().to_string();
            out.push((
                format!("window/{cfg_name}/{name}"),
                fnv1a64(text.as_bytes()),
            ));
        }
    }
    out
}

/// Program `i` of the benchmark's seed-0 corpus, named as it names it.
fn fuzz_program(i: u64) -> (String, fdip_program::Program) {
    let profile = FuzzProfile::Mixed;
    let name = format!("fuzz_{}_{i:08x}", profile.name());
    let program = generate(&profile.params(), i)
        .emit(&name)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (name, program)
}

fn fuzz_checked() -> Vec<(String, u64)> {
    let configs = config_matrix();
    (0..FUZZ_PROGRAMS)
        .map(|i| {
            let (name, program) = fuzz_program(i);
            let mut text = String::new();
            for (cfg_name, cfg) in &configs {
                let run = run_workload_checked(cfg, &program, FUZZ.0, FUZZ.1);
                text.push_str(cfg_name);
                text.push('\n');
                text.push_str(&run.stats.to_json().to_string());
                text.push('\n');
                text.push_str(&run.dists.to_json().to_string());
                for v in &run.violations {
                    text.push_str(&format!("\n{v}"));
                }
                text.push('\n');
            }
            (format!("fuzz/{name}"), fnv1a64(text.as_bytes()))
        })
        .collect()
}

fn actual_table() -> Vec<(String, u64)> {
    let mut table = single_pieces();
    table.extend(default_window());
    table.extend(fuzz_checked());
    table
}

#[test]
fn benchmark_shapes_match_the_pinned_digests() {
    let actual = actual_table();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(shape, d)| (shape.to_string(), d))
        .collect();
    if actual != expected {
        let mut msg = String::from("loop digests moved; the actual table is:\n");
        msg.push_str("const GOLDEN: &[(&str, u64)] = &[\n");
        for (shape, d) in &actual {
            msg.push_str(&format!("    (\"{shape}\", {d:#018x}),\n"));
        }
        msg.push_str("];\n");
        if let Some(((shape, _), _)) = actual.iter().zip(&expected).find(|(a, e)| a != e) {
            msg.push_str(&format!("first mismatch: {shape}\n"));
        }
        panic!("{msg}");
    }
}
