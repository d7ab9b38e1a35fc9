//! A frontend extension beyond the paper's baseline: the loop predictor
//! (§II-A), exercised on a targeted microbenchmark-style workload.
//!
//! ```text
//! cargo run --release --example frontend_extensions
//! ```

use fdip_repro::program::{ProgramBuilder, ProgramParams};
use fdip_repro::sim::{run_workload, CoreConfig};

fn main() {
    // --- Loop predictor: long fixed-trip loops whose exits sit beyond
    // TAGE's 260-bit history window.
    let loopy = ProgramBuilder::new(ProgramParams {
        seed: 77,
        num_funcs: 64,
        loop_fraction: 0.45,
        loop_trip: (300, 900),
        cond_fraction: 0.55,
        strongly_biased_fraction: 0.3,
        ..ProgramParams::default()
    })
    .build("long_loops");

    let base = run_workload(&CoreConfig::fdp(), &loopy, 20_000, 200_000);
    let with_lp = run_workload(
        &CoreConfig {
            loop_predictor: true,
            ..CoreConfig::fdp()
        },
        &loopy,
        20_000,
        200_000,
    );
    println!("-- loop predictor on {} --", loopy.name());
    println!(
        "TAGE only      : IPC {:.3}, {} mispredictions",
        base.ipc(),
        base.mispredicts
    );
    println!(
        "TAGE + loop    : IPC {:.3}, {} mispredictions ({:+.0}%)",
        with_lp.ipc(),
        with_lp.mispredicts,
        100.0 * (with_lp.mispredicts as f64 / base.mispredicts.max(1) as f64 - 1.0)
    );
}
