//! Traced-run probes that time one layer at a time from outside, through
//! its public functions, on a workload's own (config, program) pairs.
//! Every workload runs all of them, so every per-layer time is measured
//! on every workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fdip_exec::Pool;
use fdip_harness::{geomean, Runner, WorkloadResult};
use fdip_mem::Hierarchy;
use fdip_program::Program;
use fdip_sim::predictors::Predictors;
use fdip_sim::{
    run_workload_job, CoreConfig, SimDists, SimStats, Simulator, StallReason, StaticMeta,
    STALL_REASON_NAMES,
};
use fdip_telemetry::{Json, ToJson};

use crate::metrics::Values;
use crate::run::SIM_SEED;
use crate::stats;

/// The FDP speedup the paper reports (Fig. 6a, no dedicated prefetcher).
pub const PAPER_FDP_GAIN_PCT: f64 = 41.0;

pub type Pair = (CoreConfig, Arc<Program>);

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Every `(config, program)` pair of `cfgs` × `programs`, config-major.
pub fn pairs(cfgs: &[CoreConfig], programs: &[Arc<Program>]) -> Vec<Pair> {
    cfgs.iter()
        .flat_map(|c| programs.iter().map(move |p| (c.clone(), Arc::clone(p))))
        .collect()
}

/// `core.*`: splits simulator set-up into its parts and times the cycle
/// loop, one pair at a time on this thread. Returns each pair's results.
pub fn core(
    pairs: &[Pair],
    warmup: u64,
    measure: u64,
    v: &mut Values,
) -> Vec<(SimStats, SimDists)> {
    let (mut new_ms, mut func_ms, mut pred_us, mut prewarm_us, mut meta_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut new_s, mut run_s, mut instrs, mut cycles) = (0.0, 0.0, 0u64, 0u64);
    let mut results = Vec::with_capacity(pairs.len());
    for (cfg, program) in pairs {
        let t = Instant::now();
        black_box(Predictors::new(cfg));
        pred_us.push(us(t));

        let t = Instant::now();
        let image = program.image();
        let first = image.base().line_number();
        let last = (image.base() + image.footprint_bytes()).line_number();
        let mut mem = Hierarchy::new(cfg.mem);
        mem.prewarm_llc_instr(first..=last);
        black_box(mem);
        prewarm_us.push(us(t));

        let t = Instant::now();
        black_box(StaticMeta::new(program));
        meta_us.push(us(t));

        let no_warmup = CoreConfig {
            func_warmup: 0,
            ..cfg.clone()
        };
        let t = Instant::now();
        black_box(Simulator::new(no_warmup, program, SIM_SEED));
        let cold_ms = us(t) / 1e3;

        let t = Instant::now();
        let mut sim = Simulator::new(cfg.clone(), program, SIM_SEED);
        let ms = us(t) / 1e3;
        new_ms.push(ms);
        func_ms.push(ms - cold_ms);
        new_s += ms / 1e3;

        let t = Instant::now();
        let result = sim.run_detailed(warmup, measure);
        run_s += t.elapsed().as_secs_f64();
        let total = sim.collect();
        instrs += total.retired;
        cycles += total.cycles;
        results.push(result);
    }
    v.set("core.new_ms", stats::mean(&new_ms));
    v.set("core.func_warmup_ms", stats::mean(&func_ms));
    v.set("core.predictors_us", stats::mean(&pred_us));
    v.set("mem.prewarm_us", stats::mean(&prewarm_us));
    v.set("core.meta_us", stats::mean(&meta_us));
    v.set("core.new_total_s", new_s);
    v.set("core.run_total_s", run_s);
    v.set("core.setup_share", new_s / (new_s + run_s));
    v.set("core.sims", pairs.len() as f64);
    v.set("core.instrs", instrs as f64);
    v.set("core.cycles", cycles as f64);
    v.set("core.run_ns_per_instr", run_s * 1e9 / instrs.max(1) as f64);
    v.set("core.run_ns_per_cycle", run_s * 1e9 / cycles.max(1) as f64);
    results
}

/// `telemetry.*`: the results-JSON codec per cell, as `results.json`
/// and the daemon's cache entries serialize them.
pub fn codec(results: &[(SimStats, SimDists)], v: &mut Values) {
    const REPS: usize = 20;
    let docs: Vec<WorkloadResult> = results
        .iter()
        .map(|(stats, dists)| WorkloadResult {
            name: "cell".to_string(),
            family: "bench".to_string(),
            stats: *stats,
            dists: dists.clone(),
        })
        .collect();
    let cells = (docs.len() * REPS).max(1) as f64;
    let t = Instant::now();
    let mut texts = Vec::with_capacity(docs.len());
    for _ in 0..REPS {
        texts = docs.iter().map(|d| d.to_json().to_string()).collect();
    }
    v.set("telemetry.encode_us_per_cell", us(t) / cells);
    let t = Instant::now();
    for _ in 0..REPS {
        for text in &texts {
            black_box(Json::parse(text).expect("the codec reads what it wrote"));
        }
    }
    v.set("telemetry.parse_us_per_cell", us(t) / cells);
}

/// `exec.*`: the pairs resubmitted as simulation jobs through
/// `Pool::run_batch` on a fresh pool of `jobs` workers, each job wrapped
/// to time its queue wait and its run.
pub fn exec(pairs: &[Pair], warmup: u64, measure: u64, jobs: usize, v: &mut Values) {
    let pool = Pool::new(jobs);
    let t0 = Instant::now();
    let wrapped: Vec<_> = pairs
        .iter()
        .map(|(cfg, program)| {
            let (cfg, program) = (cfg.clone(), Arc::clone(program));
            let submitted = Instant::now();
            move || {
                let wait_ms = submitted.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                black_box(run_workload_job(cfg, program, warmup, measure));
                (wait_ms, t.elapsed().as_secs_f64() * 1e3)
            }
        })
        .collect();
    let times = pool.run_batch(wrapped);
    let wall_s = t0.elapsed().as_secs_f64();

    let waits: Vec<f64> = times.iter().map(|t| t.0).collect();
    let runs: Vec<f64> = times.iter().map(|t| t.1).collect();
    let busy_s = runs.iter().sum::<f64>() / 1e3 / pool.threads() as f64;
    let s = pool.stats();
    v.set("exec.busy_fraction", busy_s / wall_s);
    v.set("exec.steals", s.steals as f64);
    let depth = s.queue_depth.percentile(50.0).unwrap_or(0);
    v.set("exec.queue_depth_p50", depth as f64);
    v.set("exec.queue_wait_ms_p50", stats::median(&waits));
    v.set("exec.job_ms_p50", stats::median(&runs));
    v.set("exec.job_ms_max", stats::percentile(&runs, 100.0));
    v.set("exec.tail_s", (wall_s - busy_s).max(0.0));
}

/// `model.*`: the modelled machine's FDP cells, aggregated the paper's
/// way (geomean IPC, arithmetic means elsewhere).
pub fn model(no_fdp: &[SimStats], fdp: &[SimStats], v: &mut Values) {
    let gain = Runner::speedup_pct(no_fdp, fdp);
    let ipcs = |s: &[SimStats]| geomean(&s.iter().map(SimStats::ipc).collect::<Vec<_>>());
    v.set("model.ipc_fdp", ipcs(fdp));
    v.set("model.ipc_nofdp", ipcs(no_fdp));
    v.set("model.fdp_gain_pct", gain);
    v.set("model.fdp_gain_gap_pp", (gain - PAPER_FDP_GAIN_PCT).abs());
    v.set("model.branch_mpki", Runner::mean_mpki(fdp));
    v.set(
        "model.btb_hit_rate",
        Runner::mean_of(fdp, SimStats::btb_hit_rate),
    );
    v.set(
        "model.fdp_accuracy",
        Runner::mean_of(fdp, SimStats::fdp_accuracy),
    );
    v.set(
        "model.fdp_timeliness",
        Runner::mean_of(fdp, SimStats::fdp_timeliness),
    );
    for (reason, name) in StallReason::ALL.into_iter().zip(STALL_REASON_NAMES) {
        let pki = Runner::mean_of(fdp, |s| {
            1e3 * s.stall.get(reason) as f64 / s.retired.max(1) as f64
        });
        v.set(&format!("model.stall_pki.{name}"), pki);
    }
}
