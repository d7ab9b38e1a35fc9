//! One benchmark run: untimed set-ups, a warm-up round, the timed phase
//! with timed set-ups spread over it (or, traced, an untraced half, a
//! traced half and the layer probes), correctness checks, and the metric
//! values.
//!
//! Every timed op runs one of the workload's inputs, and each input runs
//! many times over the phase. `best_pass_ms` is the sum over inputs of
//! each input's fastest op: what one pass over the inputs costs when
//! nothing else on the host gets in the way. On a host whose other
//! tenants slow memory-bound code by up to 1.8x for seconds at a time,
//! the fastest of an input's repeats is what the code costs; short ops
//! and many repeats make it likely that each input meets a quiet moment,
//! and many inputs keep the seed's draw of inputs from moving the sum.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fdip_program::workload::{self, Workload as ProgramWorkload};
use fdip_telemetry::Json;

use crate::metrics::{self, Values, SPAN_NAMES};
use crate::probes::{self, Pair};
use crate::spans::{self, Spans};
use crate::stats;
use crate::{fuzz, serve, single};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["single", "serve", "fuzz"];

/// Seed every harness entry point simulates with (`run_workload_job`).
pub const SIM_SEED: u64 = 0xf0cced;

/// Set-up first runs untimed for at least `SETUP_WARM_S` (at least
/// once): the last of these is the workload the run measures, and
/// together they tell what one set-up costs. An untraced run then sets
/// up again, timed, at even intervals over its timed phase: enough times
/// to fill `SETUP_SHARE` of it, at least `SETUP_MIN_REPS` and at most
/// `SETUP_MAX_REPS` times. `setup_s` is their median. Set-up is
/// memory-bound, like the simulator, and the host's other tenants slow
/// it by up to twice for seconds at a time: set-ups timed back to back
/// all land in one such spell, while spread over the run their median
/// follows the run as a whole.
const SETUP_WARM_S: f64 = 0.3;
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;

/// What `run` was asked to do.
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub jobs: usize,
    /// Where traces and the daemon's temporary state go.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    /// Failed operations over attempted ones (`0.0` before any attempt).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a round needs: the span recorder, the ops of the current phase,
/// and the correctness tally.
pub struct Ctx {
    pub spans: Spans,
    /// Every timed op of the phase: the input it ran (`None` for one
    /// that never repeats) and its latency in ms.
    pub ops: Vec<(Option<usize>, f64)>,
    pub tally: Tally,
}

impl Ctx {
    /// Runs one timed operation on `input`: its latency joins the
    /// phase's samples and, traced, it gets a `bench.op` span.
    pub fn op<T>(&mut self, input: Option<usize>, f: impl FnOnce(&mut Spans) -> T) -> T {
        let span = self.spans.begin("bench.op");
        let t = Instant::now();
        let out = f(&mut self.spans);
        self.ops.push((input, t.elapsed().as_secs_f64() * 1e3));
        self.spans.end(span);
        self.spans.next_op();
        out
    }

    /// Latency of the latest op, in ms.
    pub fn last_ms(&self) -> f64 {
        self.ops.last().map_or(0.0, |&(_, ms)| ms)
    }

    /// Runs an untimed correctness check inside a `bench.check` span.
    pub fn check(&mut self, f: impl FnOnce() -> Result<(), String>) {
        let span = self.spans.begin("bench.check");
        let outcome = f();
        self.spans.end(span);
        self.tally.record(outcome);
    }
}

/// A benchmark workload after set-up.
pub trait Workload {
    /// One round of timed operations.
    fn round(&mut self, ctx: &mut Ctx);
    /// Clears the workload's own per-phase statistics.
    fn reset_phase(&mut self) {}
    /// The phase's `metrics::headline` figures.
    fn headline(&self, _v: &mut Values) {}
    /// Untimed checks after the timed loop, beside the per-op ones.
    fn verify(&mut self, _tally: &mut Tally) {}
    /// Makes the workload's programs again from its seed, as set-up
    /// does; returns how many it made.
    fn rebuild_programs(&self) -> usize;
    /// The `(config, program)` pairs and the warm-up and measured
    /// instruction counts the common layer probes re-run.
    fn probe_pairs(&self) -> (Vec<Pair>, u64, u64);
    /// Probes of layers only this workload reaches.
    fn probe(&mut self, _v: &mut Values) -> Result<(), String> {
        Ok(())
    }
}

/// The quick suite with every family seed shifted by `seed`, so seed 0
/// is exactly `quick_suite()`.
pub fn seeded_suite(seed: u64) -> Vec<ProgramWorkload> {
    workload::quick_suite()
        .into_iter()
        .map(|mut w| {
            w.params.seed = w.params.seed.wrapping_add(seed);
            w
        })
        .collect()
}

/// `sets` seeded quick suites, set `k` shifted by `seed * sets + k`, so
/// distinct seeds never share a program and set 0 of seed 0 is exactly
/// `quick_suite()`. One suite is three programs, too few for a run's
/// timings to stop depending on which three the seed drew.
pub fn program_sets(seed: u64, sets: u64) -> Vec<Vec<ProgramWorkload>> {
    (0..sets)
        .map(|k| seeded_suite(seed.wrapping_mul(sets).wrapping_add(k)))
        .collect()
}

/// Builds every workload's program and drops it; returns how many.
pub fn build_all(workloads: &[ProgramWorkload]) -> usize {
    for w in workloads {
        std::hint::black_box(w.build());
    }
    workloads.len()
}

fn setup(opts: &RunOpts, rep: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload.as_str() {
        "single" => Box::new(single::Single::setup(opts.seed, opts.jobs)),
        "serve" => Box::new(serve::Serve::setup(opts, rep)?),
        "fuzz" => Box::new(fuzz::Fuzz::setup(opts.seed, opts.jobs)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The outcome of a run.
pub struct RunOutput {
    pub values: Values,
    pub tally: Tally,
    pub ops: Vec<(Option<usize>, f64)>,
    pub setup_s: Vec<f64>,
    pub rounds: u64,
    pub trace_file: Option<PathBuf>,
}

/// The timed set-ups of a phase, each one due at an even share of it.
struct Setups<'a> {
    opts: &'a RunOpts,
    want: usize,
    /// Set-ups run so far, timed or not (it names `serve`'s state dirs).
    reps: usize,
    times: Vec<f64>,
}

impl Setups<'_> {
    /// Runs every timed set-up due once `frac` of the phase has passed:
    /// the `j`-th is due at `j / want`.
    fn catch_up(&mut self, frac: f64) -> Result<(), String> {
        while self.times.len() < self.want && self.times.len() as f64 <= frac * self.want as f64 {
            let t = Instant::now();
            let wl = setup(self.opts, self.reps)?;
            self.times.push(t.elapsed().as_secs_f64());
            drop(wl);
            self.reps += 1;
        }
        Ok(())
    }
}

/// Rounds until `seconds` have passed (at least one), with `setups`
/// between them; returns the rounds run and the phase's wall time.
fn phase(
    wl: &mut dyn Workload,
    ctx: &mut Ctx,
    seconds: f64,
    mut setups: Option<&mut Setups>,
) -> Result<(u64, f64), String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        if let Some(s) = setups.as_deref_mut() {
            s.catch_up(start.elapsed().as_secs_f64() / seconds)?;
        }
        let span = ctx.spans.begin("bench.round");
        if catch_unwind(AssertUnwindSafe(|| wl.round(ctx))).is_err() {
            ctx.tally.record(Err("a round panicked".to_string()));
        }
        ctx.spans.end(span);
        rounds += 1;
    }
    if let Some(s) = setups {
        s.catch_up(1.0)?;
    }
    Ok((rounds, start.elapsed().as_secs_f64()))
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let mut wl: Option<Box<dyn Workload>> = None;
    let (mut reps, warm) = (0, Instant::now());
    while reps == 0 || warm.elapsed().as_secs_f64() < SETUP_WARM_S {
        drop(wl.take());
        wl = Some(setup(opts, reps)?);
        reps += 1;
    }
    let setup_cost = warm.elapsed().as_secs_f64() / reps as f64;
    let mut wl = wl.ok_or("no set-up ran")?;
    let rss_after_setup = crate::host::rss_mb("VmRSS");

    // One untimed round: lazy allocation and first-touch costs stay out
    // of the samples, and the round's results become the references the
    // timed rounds are checked against.
    let mut ctx = Ctx {
        spans: Spans::new(false),
        ops: Vec::new(),
        tally: Tally::default(),
    };
    phase(wl.as_mut(), &mut ctx, 0.0, None)?;
    ctx.ops.clear();
    wl.reset_phase();

    if !opts.trace {
        let want = (SETUP_SHARE * opts.seconds / setup_cost).round() as usize;
        let mut setups = Setups {
            opts,
            want: want.clamp(SETUP_MIN_REPS, SETUP_MAX_REPS),
            reps,
            times: Vec::new(),
        };
        let (rounds, _) = phase(wl.as_mut(), &mut ctx, opts.seconds, Some(&mut setups))?;
        let setup_s = setups.times;
        wl.verify(&mut ctx.tally);
        let heads = metrics::headline(&opts.workload);
        let mut v = Values::zeroed(metrics::end_to_end().iter().chain(&heads));
        v.set("setup_s", stats::median(&setup_s));
        v.set(
            "best_pass_ms",
            stats::best_by_input(&ctx.ops).0.iter().sum(),
        );
        wl.headline(&mut v);
        return Ok(RunOutput {
            values: v,
            tally: ctx.tally,
            ops: ctx.ops,
            setup_s,
            rounds,
            trace_file: None,
        });
    }

    let mut v = Values::zeroed(&metrics::per_layer());
    v.set("host.rss_after_setup_mb", rss_after_setup);
    let half = opts.seconds / 2.0;
    let (untraced_rounds, _) = phase(wl.as_mut(), &mut ctx, half, None)?;
    let untraced_ops = std::mem::take(&mut ctx.ops);

    ctx.spans = Spans::new(true);
    let (traced_rounds, traced_wall) = phase(wl.as_mut(), &mut ctx, half, None)?;
    let traced_ops = std::mem::take(&mut ctx.ops);
    if let Some(slowdown) = stats::best_pass_slowdown(&untraced_ops, &traced_ops) {
        v.set("trace_overhead_frac", slowdown);
    }
    let by_name = spans::self_time_by_name(ctx.spans.spans());
    let wall_ns = traced_wall * 1e9;
    for name in SPAN_NAMES {
        let ns = by_name.get(name).copied().unwrap_or(0);
        v.set(&format!("{name}.self_share"), ns as f64 / wall_ns);
    }
    v.set(
        "trace.self_coverage",
        by_name.values().sum::<u64>() as f64 / wall_ns,
    );

    let trace_file = opts
        .out_dir
        .join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    let text = ctx.spans.to_chrome_trace(&opts.workload).to_string();
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&trace_file, &text))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()));
    ctx.tally.record(written.and_then(|()| {
        let back = std::fs::read_to_string(&trace_file).map_err(|e| e.to_string())?;
        Json::parse(&back)
            .map(drop)
            .map_err(|e| format!("trace does not parse: {e}"))
    }));
    if ctx.spans.dropped() > 0 {
        ctx.tally.record(Err(format!(
            "{} spans dropped at capacity",
            ctx.spans.dropped()
        )));
    }

    wl.verify(&mut ctx.tally);
    ctx.tally
        .record(probe_layers(wl.as_mut(), opts.jobs, &mut v));
    v.set("host.peak_rss_mb", crate::host::rss_mb("VmHWM"));
    Ok(RunOutput {
        values: v,
        tally: ctx.tally,
        ops: traced_ops,
        setup_s: Vec::new(),
        rounds: untraced_rounds + traced_rounds,
        trace_file: Some(trace_file),
    })
}

/// The probes every workload runs on its own inputs, then its own.
fn probe_layers(wl: &mut dyn Workload, jobs: usize, v: &mut Values) -> Result<(), String> {
    let t = Instant::now();
    let built = wl.rebuild_programs();
    v.set(
        "program.build_ms",
        t.elapsed().as_secs_f64() * 1e3 / built.max(1) as f64,
    );
    let (pairs, warmup, measure) = wl.probe_pairs();
    let results = probes::core(&pairs, warmup, measure, v);
    probes::codec(&results, v);
    probes::exec(&pairs, warmup, measure, jobs, v);
    wl.probe(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_exactly_the_quick_suite() {
        let quick = workload::quick_suite();
        let seeded = seeded_suite(0);
        assert_eq!(format!("{seeded:?}"), format!("{quick:?}"));
        let bases: Vec<u64> = quick.iter().map(|w| w.params.seed).collect();
        assert_eq!(bases, [101, 201, 301]);
        let shifted: Vec<u64> = seeded_suite(7).iter().map(|w| w.params.seed).collect();
        assert_eq!(shifted, [108, 208, 308]);

        let sets = program_sets(0, 4);
        assert_eq!(format!("{:?}", sets[0]), format!("{quick:?}"));
        let seeds = |s: u64| -> Vec<u64> {
            program_sets(s, 4)
                .iter()
                .flatten()
                .map(|w| w.params.seed)
                .collect()
        };
        assert_eq!(seeds(2)[..3], [109, 209, 309]);
        assert!(seeds(1).iter().all(|s| !seeds(2).contains(s)));
    }

    #[test]
    fn fail_frac_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(Ok(()));
        t.record(Err("digest differs".into()));
        t.record(Ok(()));
        t.record(Err("non-200".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.errors, ["digest differs", "non-200"]);
    }
}
