//! `single`: one simulation at a time on one thread, `CoreConfig::fdp()`,
//! `SETS` seeded quick suites. Each program's simulation is timed in
//! pieces, each piece one op: `Simulator::new` (with its 2M-instruction
//! functional warm-up), `Simulator::run` of the 20K warm-up, and the 200K
//! measured instructions as `CHUNKS` `Simulator::run` calls of `CHUNK`
//! instructions, about 2 ms of the cycle loop each. A round runs the
//! three programs of the next suite, so every piece repeats once every
//! `SETS` rounds, and the simulation is deterministic, so each repeat of a
//! piece does the same work. No pool, no I/O.
//!
//! The traced run also regenerates Fig. 6a through `experiments::by_id`
//! on suite 0 at `fdip-run`'s default window (50K/200K), checks that the
//! figure reports the FDP gain its own cells give, and reports the
//! modelled machine from those cells.

use std::sync::Arc;

use fdip_exec::Pool;
use fdip_harness::remote::fnv1a64;
use fdip_harness::{experiments, Runner};
use fdip_program::Program;
use fdip_sim::{check_stall_partition, CoreConfig, SimStats, Simulator};
use fdip_telemetry::ToJson;

use crate::metrics::Values;
use crate::probes::{self, Pair};
use crate::run::{build_all, program_sets, Ctx, Workload, SIM_SEED};
use crate::stats;

const SETS: u64 = 4;
const WARMUP: u64 = 20_000;
const CHUNK: u64 = 5_000;
const CHUNKS: u64 = 40;
/// The measured window, as `Simulator::run` calls of `CHUNK` each.
const MEASURE: u64 = CHUNK * CHUNKS;
/// Timed pieces of one program's simulation: construction, warm-up and
/// the chunks.
const PIECES: usize = 2 + CHUNKS as usize;
/// `fdip-run`'s default window, at which EXPERIMENTS.md reports.
const FIG_WARMUP: u64 = 50_000;
const FIG_MEASURE: u64 = 200_000;
/// Retired counts may overshoot a target by one cycle's commit width.
const RETIRE_SLACK: u64 = 64;

pub struct Single {
    seed: u64,
    jobs: usize,
    sets: Vec<Vec<Arc<Program>>>,
    next: usize,
    /// Stats digest of each piece's first run.
    digests: Vec<Option<u64>>,
    /// Minstr/s of each round (one suite) in the current phase.
    round_minstr_per_s: Vec<f64>,
    instrs: u64,
    run_s: f64,
}

impl Single {
    pub fn setup(seed: u64, jobs: usize) -> Single {
        let sets: Vec<Vec<_>> = program_sets(seed, SETS)
            .iter()
            .map(|set| set.iter().map(|w| Arc::new(w.build())).collect())
            .collect();
        Single {
            seed,
            jobs,
            next: 0,
            digests: vec![None; sets.iter().flatten().count() * PIECES],
            sets,
            round_minstr_per_s: Vec::new(),
            instrs: 0,
            run_s: 0.0,
        }
    }
}

/// One piece's results against its first run's.
fn check(stats: &SimStats, want: u64, digest: &mut Option<u64>) -> Result<(), String> {
    if let Some(v) = check_stall_partition("single", stats) {
        return Err(v.detail);
    }
    if stats.retired.abs_diff(want) > RETIRE_SLACK {
        return Err(format!("retired {} of {want}", stats.retired));
    }
    let d = fnv1a64(stats.to_json().to_string().as_bytes());
    match digest.get_or_insert(d) {
        first if *first == d => Ok(()),
        first => Err(format!("stats digest {d:016x} != first run's {first:016x}")),
    }
}

impl Workload for Single {
    fn round(&mut self, ctx: &mut Ctx) {
        let set = self.next % self.sets.len();
        self.next += 1;
        let (mut retired, mut run_s) = (0, 0.0);
        for (k, program) in self.sets[set].iter().enumerate() {
            let first = (set * self.sets[set].len() + k) * PIECES;
            let mut sim = ctx.op(Some(first), |spans| {
                spans.time("core.new", || {
                    Simulator::new(CoreConfig::fdp(), program, SIM_SEED)
                })
            });
            let warm = ctx.op(Some(first + 1), |spans| {
                spans.time("core.run", || sim.run(0, WARMUP))
            });
            let digest = &mut self.digests[first + 1];
            ctx.check(|| check(&warm, WARMUP, digest));
            for chunk in 0..CHUNKS {
                let input = first + 2 + chunk as usize;
                let stats = ctx.op(Some(input), |spans| {
                    spans.time("core.run", || sim.run(WARMUP + chunk * CHUNK, CHUNK))
                });
                run_s += ctx.last_ms() / 1e3;
                retired += stats.retired;
                let digest = &mut self.digests[input];
                ctx.check(|| check(&stats, CHUNK, digest));
            }
        }
        self.instrs += retired;
        self.run_s += run_s;
        self.round_minstr_per_s.push(retired as f64 / run_s / 1e6);
    }

    fn reset_phase(&mut self) {
        self.round_minstr_per_s.clear();
        self.instrs = 0;
        self.run_s = 0.0;
    }

    fn headline(&self, v: &mut Values) {
        v.set("sim_minstr_per_s", self.instrs as f64 / self.run_s / 1e6);
        if let Some([q1, _, q3]) = stats::quartiles(&self.round_minstr_per_s) {
            v.set("sim_minstr_per_s_q1", q1);
            v.set("sim_minstr_per_s_q3", q3);
        }
    }

    fn rebuild_programs(&self) -> usize {
        build_all(&program_sets(self.seed, SETS).concat())
    }

    fn probe_pairs(&self) -> (Vec<Pair>, u64, u64) {
        let programs: Vec<_> = self.sets.iter().flatten().cloned().collect();
        let pairs = probes::pairs(&[CoreConfig::fdp()], &programs);
        (pairs, WARMUP, MEASURE)
    }

    /// Fig. 6a on suite 0: the figure must report the FDP gain that its
    /// no-FDP and FDP cells give, and every cell must partition its
    /// cycles into stall buckets.
    fn probe(&mut self, v: &mut Values) -> Result<(), String> {
        let suite = program_sets(self.seed, SETS).swap_remove(0);
        let runner =
            Runner::new(suite, FIG_WARMUP, FIG_MEASURE).with_pool(Arc::new(Pool::new(self.jobs)));
        let fig6a = experiments::by_id("fig6a").ok_or("fig6a is not registered")?;
        let reported = (fig6a.run)(&runner).get("none_fdp_pct");
        let mut grid = runner
            .run_configs(&[CoreConfig::no_fdp(), CoreConfig::fdp()])
            .into_iter();
        let (no_fdp, fdp) = grid.next().zip(grid.next()).ok_or("no Fig. 6a cells")?;
        for stats in no_fdp.iter().chain(&fdp) {
            if let Some(violation) = check_stall_partition("fig6a", stats) {
                return Err(violation.detail);
            }
        }
        let gain = Runner::speedup_pct(&no_fdp, &fdp);
        if reported != Some(gain) {
            return Err(format!(
                "fig6a reports FDP {reported:?}%, its cells give {gain}%"
            ));
        }
        probes::model(&no_fdp, &fdp, v);
        Ok(())
    }
}
