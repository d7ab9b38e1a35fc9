//! `fuzz`: short cold-start simulations of generated programs, as the
//! fuzz matrix's checked pass runs them. Set-up generates and emits a
//! `PROGRAMS`-program `Mixed` corpus, named and seeded as
//! `fuzz_seed_range(Mixed, seed * PROGRAMS, PROGRAMS)` makes it, so
//! distinct seeds share no program. One op is `run_workload_checked` of
//! one (program, matrix config) pair at the matrix's budget (1K warm-up,
//! 3K measured, 2K functional warm-up) on this thread; a round is one
//! program under the five configs of `config_matrix()`, walking the corpus
//! in order, so a run repeats every pair. Building the simulator is most
//! of an op, so per-simulation fixed costs weigh far more here than in
//! `single`. After the timed phase, `run_matrix` checks the first
//! programs with all its passes on `--jobs` workers.

use std::sync::Arc;
use std::time::Instant;

use fdip_exec::Pool;
use fdip_fuzz::{config_matrix, generate, run_matrix, FuzzProfile, MatrixOptions};
use fdip_harness::remote::fnv1a64;
use fdip_harness::{Runner, WorkloadResult};
use fdip_program::Program;
use fdip_sim::{run_workload_checked, CoreConfig};
use fdip_telemetry::ToJson;

use crate::metrics::Values;
use crate::probes::{self, Pair};
use crate::run::{Ctx, Tally, Workload};

const PROFILE: FuzzProfile = FuzzProfile::Mixed;
const PROGRAMS: u64 = 96;
/// Programs `run_matrix` checks after the timed phase, and the traced
/// run's probes re-run.
const PROBE_PROGRAMS: usize = 8;

/// Program `i` of seed `seed`'s corpus.
fn emit(seed: u64, i: u64) -> (String, Arc<Program>) {
    let seed = seed.wrapping_mul(PROGRAMS).wrapping_add(i);
    let name = format!("fuzz_{}_{seed:08x}", PROFILE.name());
    let program = generate(&PROFILE.params(), seed)
        .emit(&name)
        .expect("the generator emits valid programs");
    (name, Arc::new(program))
}

pub struct Fuzz {
    seed: u64,
    jobs: usize,
    corpus: Vec<(String, Arc<Program>)>,
    configs: Vec<(&'static str, CoreConfig)>,
    opts: MatrixOptions,
    next: usize,
    /// Results digest of each input's first run.
    digests: Vec<Option<u64>>,
    sims: u64,
    sim_s: f64,
}

impl Fuzz {
    pub fn setup(seed: u64, jobs: usize) -> Fuzz {
        let corpus: Vec<_> = (0..PROGRAMS).map(|i| emit(seed, i)).collect();
        let configs = config_matrix();
        Fuzz {
            seed,
            jobs,
            digests: vec![None; corpus.len() * configs.len()],
            corpus,
            configs,
            opts: MatrixOptions {
                jobs,
                ..MatrixOptions::default()
            },
            next: 0,
            sims: 0,
            sim_s: 0.0,
        }
    }

    fn probe_batch(&self) -> &[(String, Arc<Program>)] {
        &self.corpus[..PROBE_PROGRAMS]
    }
}

impl Workload for Fuzz {
    fn round(&mut self, ctx: &mut Ctx) {
        let p = self.next % self.corpus.len();
        self.next += 1;
        let (name, program) = &self.corpus[p];
        let (warmup, measure) = (self.opts.warmup, self.opts.measure);
        for (c, (cfg_name, cfg)) in self.configs.iter().enumerate() {
            let input = p * self.configs.len() + c;
            let run = ctx.op(Some(input), |spans| {
                spans.time("core.checked_run", || {
                    run_workload_checked(cfg, program, warmup, measure)
                })
            });
            self.sims += 1;
            self.sim_s += ctx.last_ms() / 1e3;
            let digest = &mut self.digests[input];
            ctx.check(|| {
                if let Some(v) = run.violations.first() {
                    return Err(format!(
                        "{} on {name}/{cfg_name}: {}",
                        v.invariant, v.detail
                    ));
                }
                let d = fnv1a64(run.stats.to_json().to_string().as_bytes());
                match digest.get_or_insert(d) {
                    first if *first == d => Ok(()),
                    first => Err(format!(
                        "{name}/{cfg_name}: stats digest {d:016x} != first run's {first:016x}"
                    )),
                }
            });
        }
    }

    fn reset_phase(&mut self) {
        self.sims = 0;
        self.sim_s = 0.0;
    }

    fn headline(&self, v: &mut Values) {
        v.set("fuzz_sims_per_s", self.sims as f64 / self.sim_s);
    }

    /// The whole differential matrix, every pass on `--jobs` workers,
    /// over the first programs.
    fn verify(&mut self, tally: &mut Tally) {
        let outcome = run_matrix(self.probe_batch(), &self.opts);
        let want_sims = (4 * self.configs.len() * PROBE_PROGRAMS) as u64;
        tally.record(match outcome.violations.first() {
            Some(v) => Err(format!(
                "{} on {}/{}: {}",
                v.violation.invariant, v.program, v.config, v.violation.detail
            )),
            None if outcome.sims != want_sims => Err(format!(
                "run_matrix ran {} sims, want {want_sims}",
                outcome.sims
            )),
            None => Ok(()),
        });
    }

    fn rebuild_programs(&self) -> usize {
        for i in 0..PROGRAMS {
            std::hint::black_box(emit(self.seed, i));
        }
        PROGRAMS as usize
    }

    /// The config matrix over the first programs, at the matrix's budget.
    fn probe_pairs(&self) -> (Vec<Pair>, u64, u64) {
        let cfgs: Vec<_> = self.configs.iter().map(|(_, c)| c.clone()).collect();
        let programs: Vec<_> = self
            .probe_batch()
            .iter()
            .map(|(_, p)| Arc::clone(p))
            .collect();
        (
            probes::pairs(&cfgs, &programs),
            self.opts.warmup,
            self.opts.measure,
        )
    }

    /// Times `run_matrix`'s passes apart on the first programs: the
    /// checked pass against the three serialized identity grids.
    fn probe(&mut self, v: &mut Values) -> Result<(), String> {
        let (pairs, warmup, measure) = self.probe_pairs();
        let pool = Arc::new(Pool::new(self.jobs));
        let checked: Vec<_> = pairs
            .into_iter()
            .map(|(cfg, program)| {
                move || std::hint::black_box(run_workload_checked(&cfg, &program, warmup, measure))
            })
            .collect();
        let t = Instant::now();
        pool.run_batch(checked);
        let checked_s = t.elapsed().as_secs_f64();

        let batch = self.probe_batch();
        let configs: Vec<_> = self.configs.iter().map(|(_, c)| c.clone()).collect();
        let t = Instant::now();
        for _ in 0..3 {
            let runner =
                Runner::from_programs(batch.to_vec(), warmup, measure).with_pool(Arc::clone(&pool));
            for per_cfg in runner.run_configs_detailed(&configs) {
                for ((stats, dists), (name, _)) in per_cfg.into_iter().zip(batch) {
                    let cell = WorkloadResult {
                        name: name.clone(),
                        family: "generated".to_string(),
                        stats,
                        dists,
                    };
                    std::hint::black_box(cell.to_json().to_string());
                }
            }
        }
        let identity_s = t.elapsed().as_secs_f64();
        v.set(
            "fuzz.checked_pass_share",
            checked_s / (checked_s + identity_s),
        );
        Ok(())
    }
}
