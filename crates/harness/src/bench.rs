//! Simulator-throughput benchmark: how fast does the simulator itself
//! run, in simulated instructions (and cycles) per wall-clock second?
//!
//! The paper-scale experiments are bounded by simulation throughput —
//! every config × workload sweep point costs one full run — so this
//! module times the two phases of a run separately:
//!
//! * **setup**: `Simulator::new`, dominated by the functional BTB
//!   warm-up and the LLC pre-warm;
//! * **run**: the cycle loop proper, reported as
//!   `instrs_per_sec` / `cycles_per_sec`.
//!
//! Each workload is benchmarked `iters` times and the fastest iteration
//! is kept (standard best-of-N to suppress scheduler noise). Results are
//! emitted as the versioned `BENCH_core.json` document described in
//! `docs/METRICS.md`, optionally embedding a previously recorded run as
//! the comparison baseline so the performance trajectory is
//! machine-checkable PR over PR.

#![expect(
    clippy::disallowed_types,
    reason = "throughput timing telemetry; stripped before determinism diffs"
)]

use std::time::Instant;

use fdip_program::workload::{self, Workload};
use fdip_sim::{CoreConfig, Simulator};
use fdip_telemetry::{Json, RunManifest, ToJson, SCHEMA_VERSION};

/// Best-of-N timing for one workload.
#[derive(Clone, Debug)]
pub struct BenchWorkload {
    /// Workload name (e.g. `server_a`).
    pub name: String,
    /// Workload family (`server`/`client`/`spec`).
    pub family: String,
    /// Seconds spent in `Simulator::new` (functional warm-up, prewarm).
    pub setup_seconds: f64,
    /// Seconds spent in the timed cycle loop.
    pub run_seconds: f64,
    /// Instructions retired by the timed loop.
    pub instrs: u64,
    /// Cycles simulated by the timed loop.
    pub cycles: u64,
}

impl BenchWorkload {
    /// Simulated instructions retired per wall-clock second.
    pub fn instrs_per_sec(&self) -> f64 {
        per_second(self.instrs, self.run_seconds)
    }

    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        per_second(self.cycles, self.run_seconds)
    }
}

impl ToJson for BenchWorkload {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("family", self.family.as_str())
            .with("setup_seconds", self.setup_seconds)
            .with("run_seconds", self.run_seconds)
            .with("instrs", self.instrs)
            .with("cycles", self.cycles)
            .with("instrs_per_sec", self.instrs_per_sec())
            .with("cycles_per_sec", self.cycles_per_sec())
    }
}

/// The aggregate throughput of a previously recorded bench run, embedded
/// for before/after comparison.
#[derive(Clone, Debug)]
pub struct BenchBaseline {
    /// Aggregate `instrs_per_sec` of the baseline run.
    pub instrs_per_sec: f64,
    /// Aggregate `cycles_per_sec` of the baseline run.
    pub cycles_per_sec: f64,
    /// `git_revision` recorded by the baseline run.
    pub git_revision: String,
}

impl BenchBaseline {
    /// Extracts the baseline block from a previously written bench
    /// document (the `bench.aggregate` numbers plus the manifest
    /// revision). Returns `None` when the document lacks them.
    pub fn from_doc(doc: &Json) -> Option<BenchBaseline> {
        let agg = doc.get("bench")?.get("aggregate")?;
        Some(BenchBaseline {
            instrs_per_sec: agg.get("instrs_per_sec")?.as_f64()?,
            cycles_per_sec: agg.get("cycles_per_sec")?.as_f64()?,
            git_revision: doc
                .get("manifest")
                .and_then(|m| m.get("git_revision"))
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        })
    }
}

impl ToJson for BenchBaseline {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("instrs_per_sec", self.instrs_per_sec)
            .with("cycles_per_sec", self.cycles_per_sec)
            .with("git_revision", self.git_revision.as_str())
    }
}

/// A complete benchmark run over a workload suite.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Provenance of this run.
    pub manifest: RunManifest,
    /// Iterations per workload (best-of-N).
    pub iters: u32,
    /// Per-workload best-iteration timings, in suite order.
    pub workloads: Vec<BenchWorkload>,
    /// A previously recorded run to compare against, if any.
    pub baseline: Option<BenchBaseline>,
}

impl BenchResult {
    /// Aggregate instructions per second: total instructions divided by
    /// total run seconds (so slow workloads weigh in proportionally).
    pub fn instrs_per_sec(&self) -> f64 {
        let instrs: u64 = self.workloads.iter().map(|w| w.instrs).sum();
        per_second(instrs, self.run_seconds())
    }

    /// Aggregate cycles per second.
    pub fn cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.workloads.iter().map(|w| w.cycles).sum();
        per_second(cycles, self.run_seconds())
    }

    /// Total best-iteration cycle-loop seconds across the suite.
    pub fn run_seconds(&self) -> f64 {
        self.workloads.iter().map(|w| w.run_seconds).sum()
    }

    /// Total best-iteration setup seconds across the suite.
    pub fn setup_seconds(&self) -> f64 {
        self.workloads.iter().map(|w| w.setup_seconds).sum()
    }

    /// This run's aggregate `instrs_per_sec` over the baseline's
    /// (`0.0` without a baseline).
    pub fn speedup_vs_baseline(&self) -> f64 {
        match &self.baseline {
            Some(b) if b.instrs_per_sec > 0.0 => self.instrs_per_sec() / b.instrs_per_sec,
            _ => 0.0,
        }
    }

    /// The `bench` block of the document.
    fn bench_json(&self) -> Json {
        let mut bench = Json::obj()
            .with("iters", self.iters)
            .with(
                "workloads",
                Json::Arr(self.workloads.iter().map(ToJson::to_json).collect()),
            )
            .with(
                "aggregate",
                Json::obj()
                    .with("instrs_per_sec", self.instrs_per_sec())
                    .with("cycles_per_sec", self.cycles_per_sec())
                    .with("setup_seconds", self.setup_seconds())
                    .with("run_seconds", self.run_seconds()),
            );
        if let Some(b) = &self.baseline {
            bench.set("baseline", b.to_json());
            bench.set("speedup_vs_baseline", self.speedup_vs_baseline());
        }
        bench
    }

    /// Writes the pretty-printed JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or written.
    pub fn write_json_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

impl ToJson for BenchResult {
    /// Serializes as `{schema_version, manifest, bench}` (Document 3 of
    /// `docs/METRICS.md`).
    fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("manifest", self.manifest.to_json())
            .with("bench", self.bench_json())
    }
}

fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Times one `(config, program)` pair once: returns
/// `(setup_seconds, run_seconds, instrs, cycles)`.
fn time_once(
    cfg: &CoreConfig,
    program: &fdip_program::Program,
    total: u64,
) -> (f64, f64, u64, u64) {
    let t0 = Instant::now();
    // The fixed seed every harness entry point uses, so benchmarked runs
    // simulate exactly the workload the correctness suite checks.
    let mut sim = Simulator::new(cfg.clone(), program, 0xf0cced);
    let setup = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    sim.run(0, total);
    let run = t1.elapsed().as_secs_f64();
    let end = sim.collect();
    (setup, run, end.retired, end.cycles)
}

/// Benchmarks `cfg` over `workloads`: best-of-`iters` per workload.
pub fn run_bench(
    cfg: &CoreConfig,
    workloads: &[Workload],
    suite_name: &str,
    total_instrs: u64,
    iters: u32,
) -> BenchResult {
    let iters = iters.max(1);
    let mut manifest = RunManifest::new("fdip-bench", suite_name, 0, total_instrs, workloads.len());
    let t0 = Instant::now();
    let results = workloads
        .iter()
        .map(|w| {
            let program = w.build();
            let best = (0..iters)
                .map(|_| time_once(cfg, &program, total_instrs))
                .min_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)))
                .expect("at least one iteration");
            BenchWorkload {
                name: w.name.clone(),
                family: w.family.to_string(),
                setup_seconds: best.0,
                run_seconds: best.1,
                instrs: best.2,
                cycles: best.3,
            }
        })
        .collect();
    manifest.wall_seconds = t0.elapsed().as_secs_f64();
    BenchResult {
        manifest,
        iters,
        workloads: results,
        baseline: None,
    }
}

/// Benchmarks the quick suite at a small scale (tests and smoke runs).
pub fn quick_bench(total_instrs: u64, iters: u32) -> BenchResult {
    run_bench(
        &CoreConfig::fdp(),
        &workload::quick_suite(),
        "quick",
        total_instrs,
        iters,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(with_baseline: bool) -> BenchResult {
        BenchResult {
            manifest: RunManifest::new("fdip-bench", "quick", 0, 1000, 1),
            iters: 2,
            workloads: vec![BenchWorkload {
                name: "server_a".to_string(),
                family: "server".to_string(),
                setup_seconds: 0.5,
                run_seconds: 2.0,
                instrs: 1000,
                cycles: 500,
            }],
            baseline: with_baseline.then(|| BenchBaseline {
                instrs_per_sec: 250.0,
                cycles_per_sec: 125.0,
                git_revision: "abc123".to_string(),
            }),
        }
    }

    #[test]
    fn throughput_is_count_over_seconds() {
        let r = sample_result(false);
        assert_eq!(r.workloads[0].instrs_per_sec(), 500.0);
        assert_eq!(r.workloads[0].cycles_per_sec(), 250.0);
        assert_eq!(r.instrs_per_sec(), 500.0);
        assert_eq!(r.setup_seconds(), 0.5);
        // No baseline -> no speedup claim.
        assert_eq!(r.speedup_vs_baseline(), 0.0);
        assert!(r.to_json().get("bench").unwrap().get("baseline").is_none());
    }

    #[test]
    fn baseline_round_trips_through_the_document() {
        let r = sample_result(true);
        assert_eq!(r.speedup_vs_baseline(), 2.0);
        let doc = r.to_json();
        let bench = doc.get("bench").unwrap();
        assert_eq!(
            bench
                .get("speedup_vs_baseline")
                .and_then(Json::as_f64)
                .unwrap(),
            2.0
        );
        // A written document can seed the next run's baseline.
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let b = BenchBaseline::from_doc(&parsed).expect("baseline extractable");
        assert_eq!(b.instrs_per_sec, 500.0);
    }

    #[test]
    fn zero_seconds_does_not_divide_by_zero() {
        let mut r = sample_result(false);
        r.workloads[0].run_seconds = 0.0;
        assert_eq!(r.instrs_per_sec(), 0.0);
        assert_eq!(r.workloads[0].cycles_per_sec(), 0.0);
    }

    #[test]
    fn tiny_bench_produces_plausible_numbers() {
        let r = quick_bench(2_000, 1);
        assert_eq!(r.workloads.len(), 3);
        for w in &r.workloads {
            assert!(w.instrs >= 2_000, "{}", w.instrs);
            assert!(w.cycles > 0);
            assert!(w.instrs_per_sec() > 0.0);
        }
        assert!(r.instrs_per_sec() > 0.0);
        assert_eq!(
            r.to_json()
                .get("bench")
                .and_then(|b| b.get("workloads"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
