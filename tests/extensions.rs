//! Integration tests for the extension features beyond the paper's
//! baseline design: the loop predictor (§II-A) and the RDIP prefetcher
//! (§VII-A).

use fdip_prefetch::PrefetcherKind;
use fdip_program::{ProgramBuilder, ProgramParams};
use fdip_sim::{run_workload, CoreConfig};

fn loopy_program() -> fdip_program::Program {
    ProgramBuilder::new(ProgramParams {
        seed: 77,
        num_funcs: 64,
        loop_fraction: 0.45,
        // Trip counts beyond TAGE's 260-bit history window: global
        // history cannot time these exits, a loop predictor can.
        loop_trip: (300, 900),
        cond_fraction: 0.55,
        strongly_biased_fraction: 0.3,
        ..ProgramParams::default()
    })
    .build("loopy")
}

#[test]
fn loop_predictor_reduces_mispredictions_on_loop_heavy_code() {
    // Long fixed-trip loops exceed what a 260-bit history can separate;
    // the loop predictor catches their exits exactly.
    let p = loopy_program();
    let base = run_workload(&CoreConfig::fdp(), &p, 20_000, 150_000);
    let with_lp = run_workload(
        &CoreConfig {
            loop_predictor: true,
            ..CoreConfig::fdp()
        },
        &p,
        20_000,
        150_000,
    );
    assert!(
        with_lp.mispredicts < base.mispredicts,
        "loop predictor must reduce mispredictions: {} vs {}",
        with_lp.mispredicts,
        base.mispredicts
    );
    assert!(
        with_lp.ipc() >= base.ipc() * 0.99,
        "loop predictor should not cost IPC: {:.3} vs {:.3}",
        with_lp.ipc(),
        base.ipc()
    );
}

#[test]
fn loop_predictor_is_neutral_on_loop_poor_code() {
    let p = ProgramBuilder::new(ProgramParams {
        seed: 78,
        num_funcs: 64,
        loop_fraction: 0.0,
        ..ProgramParams::default()
    })
    .build("no-loops");
    let base = run_workload(&CoreConfig::fdp(), &p, 10_000, 80_000);
    let with_lp = run_workload(
        &CoreConfig {
            loop_predictor: true,
            ..CoreConfig::fdp()
        },
        &p,
        10_000,
        80_000,
    );
    let delta = (with_lp.ipc() / base.ipc() - 1.0).abs();
    assert!(
        delta < 0.02,
        "loop predictor should be near-neutral: {delta:.4}"
    );
}

#[test]
fn rdip_runs_end_to_end_and_does_no_harm() {
    let p = ProgramBuilder::new(ProgramParams {
        seed: 79,
        num_funcs: 400,
        call_fraction: 0.3,
        ..ProgramParams::default()
    })
    .build("cally");
    let base = run_workload(&CoreConfig::no_fdp(), &p, 20_000, 120_000);
    let rdip = run_workload(
        &CoreConfig::no_fdp().with_prefetcher(PrefetcherKind::Rdip),
        &p,
        20_000,
        120_000,
    );
    assert!(
        rdip.ipc() >= base.ipc() * 0.98,
        "RDIP should not regress IPC: {:.3} vs {:.3}",
        rdip.ipc(),
        base.ipc()
    );
    assert!(rdip.prefetch_candidates > 0, "RDIP must emit prefetches");
}

#[test]
fn extension_features_compose() {
    // Loop predictor + prefetcher + small BTB all together: still
    // deterministic and still beats the no-FDP baseline.
    let p = loopy_program();
    let cfg = CoreConfig {
        loop_predictor: true,
        ..CoreConfig::fdp()
            .with_btb_entries(2048)
            .with_prefetcher(PrefetcherKind::NextLine)
    };
    let a = run_workload(&cfg, &p, 10_000, 80_000);
    let b = run_workload(&cfg, &p, 10_000, 80_000);
    assert_eq!(a, b, "composition must stay deterministic");
    let base = run_workload(&CoreConfig::no_fdp(), &p, 10_000, 80_000);
    assert!(a.ipc() > base.ipc());
}
