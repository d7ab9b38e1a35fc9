//! Workload-suite runner: builds the synthetic programs once, then runs
//! `CoreConfig`s over every workload on the shared bounded job pool
//! (`fdip-exec`) and aggregates the way the paper does (geometric-mean
//! IPC speedups, arithmetic-mean MPKI).
//!
//! Every simulation goes through [`Runner::run_configs_detailed`]: the
//! whole config × workload grid is flattened into **one** batch so
//! distinct configs overlap on the pool, and results are collected into
//! indexed slots — suite order, never completion order — which keeps
//! sweeps deterministic for any `FDIP_JOBS` setting.

#![expect(
    clippy::disallowed_types,
    reason = "wall_seconds manifest telemetry; stripped before determinism diffs"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::remote::{config_from_json, config_to_json, RemoteClient};
use crate::suite::{SuiteResult, WorkloadResult};
use fdip_exec::Pool;
use fdip_program::workload::{self, Workload};
use fdip_program::Program;
use fdip_sim::{run_workload_job, CoreConfig, SimDists, SimStats};
use fdip_telemetry::{RunManifest, ToJson};

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One suite entry: a built program plus the labels it reports under.
struct SuiteEntry {
    name: String,
    family: String,
    program: Arc<Program>,
}

/// The evaluation driver: a built workload suite plus run lengths.
pub struct Runner {
    workloads: Vec<SuiteEntry>,
    warmup: u64,
    measure: u64,
    suite_name: String,
    /// Private pool override; `None` uses the process-wide
    /// [`fdip_exec::global`] pool (sized by `FDIP_JOBS`/`--jobs`).
    pool: Option<Arc<Pool>>,
    /// Optional `fdip-serve` daemon; grids for the named `quick`/`full`
    /// suites are routed there instead of the local pool.
    remote: Option<RemoteClient>,
    /// Set after the first failed remote grid: later grids go straight
    /// to local execution instead of re-trying a dead daemon.
    remote_failed: AtomicBool,
}

impl Runner {
    /// Builds a runner over the given workloads.
    pub fn new(workloads: Vec<Workload>, warmup: u64, measure: u64) -> Self {
        let built = workloads
            .into_iter()
            .map(|w| SuiteEntry {
                name: w.name.clone(),
                family: w.family.to_string(),
                program: Arc::new(w.build()),
            })
            .collect();
        Runner::from_entries(built, warmup, measure)
    }

    /// Builds a runner over already-built programs (the fuzz harness'
    /// entry point: its programs come from a generator, not the named
    /// workload families). Results report under family `generated`.
    pub fn from_programs(programs: Vec<(String, Arc<Program>)>, warmup: u64, measure: u64) -> Self {
        let entries = programs
            .into_iter()
            .map(|(name, program)| SuiteEntry {
                name,
                family: "generated".to_string(),
                program,
            })
            .collect();
        Runner::from_entries(entries, warmup, measure).with_suite_name("generated")
    }

    fn from_entries(workloads: Vec<SuiteEntry>, warmup: u64, measure: u64) -> Self {
        Runner {
            workloads,
            warmup,
            measure,
            suite_name: "custom".to_string(),
            pool: None,
            remote: None,
            remote_failed: AtomicBool::new(false),
        }
    }

    /// Names the suite (used in emitted run manifests).
    #[must_use]
    pub fn with_suite_name(mut self, name: &str) -> Self {
        self.suite_name = name.to_string();
        self
    }

    /// Routes this runner's simulations through a private pool instead of
    /// the global one (tests pin the worker count this way).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool executing this runner's simulation jobs.
    pub fn pool(&self) -> &Pool {
        self.pool.as_deref().unwrap_or_else(|| fdip_exec::global())
    }

    /// Routes grids for the named `quick`/`full` suites to the
    /// `fdip-serve` daemon at `addr`, identifying as `client` in its
    /// per-client telemetry. Custom suites (which the daemon cannot
    /// rebuild by name) and any daemon failure fall back to local
    /// execution; results are byte-identical either way, because the
    /// daemon runs the same deterministic simulation and its wire codec
    /// round-trips every counter and float exactly.
    #[must_use]
    pub fn with_server(mut self, addr: &str, client: &str) -> Self {
        self.remote = Some(RemoteClient::new(addr, client));
        self
    }

    /// The remote grid path: `Some(grid)` if the whole sweep was served,
    /// `None` if the caller must run locally.
    fn try_remote(&self, cfgs: &[CoreConfig]) -> Option<Vec<Vec<(SimStats, SimDists)>>> {
        let remote = self.remote.as_ref()?;
        if !matches!(self.suite_name.as_str(), "quick" | "full") {
            return None;
        }
        if self.remote_failed.load(Ordering::Acquire) {
            return None;
        }
        match remote.run_grid(
            &self.suite_name,
            self.warmup,
            self.measure,
            cfgs,
            self.len(),
        ) {
            Ok(grid) => Some(grid),
            Err(e) => {
                if !self.remote_failed.swap(true, Ordering::AcqRel) {
                    fdip_obs::log::warn(
                        "harness",
                        "fdip-serve unavailable; falling back to local execution",
                        &[
                            ("addr", remote.addr().into()),
                            ("error", e.to_string().as_str().into()),
                        ],
                    );
                }
                None
            }
        }
    }

    /// Builds the default runner from the environment:
    /// `FDIP_SUITE` (`full`/`quick`), `FDIP_WARMUP`, `FDIP_INSTRS`.
    pub fn from_env() -> Self {
        let (suite, suite_name) = match std::env::var("FDIP_SUITE").as_deref() {
            Ok("quick") => (workload::quick_suite(), "quick"),
            _ => (workload::suite(), "full"),
        };
        let warmup = std::env::var("FDIP_WARMUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000);
        let measure = std::env::var("FDIP_INSTRS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200_000);
        Runner::new(suite, warmup, measure).with_suite_name(suite_name)
    }

    /// A small fixed-size runner for tests and benches.
    pub fn quick(warmup: u64, measure: u64) -> Self {
        Runner::new(workload::quick_suite(), warmup, measure).with_suite_name("quick")
    }

    /// Warm-up instructions per workload.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Measured instructions per workload.
    pub fn measure(&self) -> u64 {
        self.measure
    }

    /// The suite name (`quick`/`full`/`custom`).
    pub fn suite_name(&self) -> &str {
        &self.suite_name
    }

    /// Workload names, in run order.
    pub fn names(&self) -> Vec<&str> {
        self.workloads.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Returns `true` if the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Runs `cfg` over every workload on the pool and returns
    /// per-workload statistics in suite order.
    pub fn run_config(&self, cfg: &CoreConfig) -> Vec<SimStats> {
        self.run_config_detailed(cfg)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Like [`Runner::run_config`], but also returns each workload's
    /// distribution telemetry.
    pub fn run_config_detailed(&self, cfg: &CoreConfig) -> Vec<(SimStats, SimDists)> {
        self.run_configs_detailed(std::slice::from_ref(cfg))
            .pop()
            .unwrap_or_default()
    }

    /// Runs a whole config sweep: every `(config, workload)` pair becomes
    /// one pool job, submitted as a single batch so the grid saturates
    /// the pool. Returns one suite-ordered stats vector per config, in
    /// `cfgs` order.
    pub fn run_configs(&self, cfgs: &[CoreConfig]) -> Vec<Vec<SimStats>> {
        self.run_configs_detailed(cfgs)
            .into_iter()
            .map(|per_cfg| per_cfg.into_iter().map(|(s, _)| s).collect())
            .collect()
    }

    /// Like [`Runner::run_configs`], but with distribution telemetry.
    pub fn run_configs_detailed(&self, cfgs: &[CoreConfig]) -> Vec<Vec<(SimStats, SimDists)>> {
        if cfgs.is_empty() {
            return Vec::new();
        }
        // A config the daemon would refuse is one no sweep should build.
        debug_assert!(
            cfgs.iter()
                .all(|c| config_from_json(&config_to_json(c)).is_some()),
            "a sweep config falls outside the wire codec's ranges"
        );
        if let Some(grid) = self.try_remote(cfgs) {
            return grid;
        }
        let (warmup, measure) = (self.warmup, self.measure);
        let mut jobs = Vec::with_capacity(cfgs.len() * self.workloads.len());
        for cfg in cfgs {
            for entry in &self.workloads {
                let cfg = cfg.clone();
                let program = Arc::clone(&entry.program);
                jobs.push(move || run_workload_job(cfg, program, warmup, measure));
            }
        }
        let mut flat = self.pool().run_batch(jobs).into_iter();
        cfgs.iter()
            .map(|_| (&mut flat).take(self.workloads.len()).collect())
            .collect()
    }

    /// Runs `cfg` over the whole suite and packages the results (with a
    /// stamped [`RunManifest`], including pool telemetry) for JSON
    /// emission.
    pub fn run_suite(&self, cfg: &CoreConfig, tool: &str) -> SuiteResult {
        let t0 = std::time::Instant::now();
        let results = self.run_config_detailed(cfg);
        let workloads = self
            .workloads
            .iter()
            .zip(results)
            .map(|(entry, (stats, dists))| WorkloadResult {
                name: entry.name.clone(),
                family: entry.family.clone(),
                stats,
                dists,
            })
            .collect();
        let mut manifest = RunManifest::new(
            tool,
            &self.suite_name,
            self.warmup,
            self.measure,
            self.workloads.len(),
        );
        manifest.wall_seconds = t0.elapsed().as_secs_f64();
        manifest.pool = Some(self.pool().stats().to_json());
        SuiteResult {
            manifest,
            workloads,
        }
    }

    /// Geometric-mean IPC speedup of `other` over `base`, in percent
    /// (the paper's headline aggregation).
    pub fn speedup_pct(base: &[SimStats], other: &[SimStats]) -> f64 {
        assert_eq!(base.len(), other.len());
        let ratios: Vec<f64> = base
            .iter()
            .zip(other)
            .map(|(b, o)| o.ipc() / b.ipc())
            .collect();
        100.0 * (geomean(&ratios) - 1.0)
    }

    /// Arithmetic-mean branch MPKI (the paper's MPKI aggregation).
    pub fn mean_mpki(stats: &[SimStats]) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(SimStats::branch_mpki).sum::<f64>() / stats.len() as f64
    }

    /// Arithmetic mean of an arbitrary per-workload metric.
    pub fn mean_of(stats: &[SimStats], f: impl Fn(&SimStats) -> f64) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(f).sum::<f64>() / stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_slice_is_zero() {
        // An empty suite aggregates to 0, not NaN.
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_single_element_is_identity() {
        assert!((geomean(&[3.7]) - 3.7).abs() < 1e-9);
    }

    #[test]
    fn geomean_clamps_nonpositive_inputs() {
        // Zero/negative IPCs (a broken run) must not produce NaN.
        assert!(geomean(&[0.0, 4.0]).is_finite());
    }

    #[test]
    fn quick_runner_runs_three_workloads() {
        let r = Runner::quick(2_000, 8_000);
        assert_eq!(r.len(), 3);
        let stats = r.run_config(&CoreConfig::fdp());
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert!(s.retired >= 8_000 - 8);
        }
    }

    #[test]
    fn from_programs_matches_workload_runner() {
        // A runner built from pre-built programs must simulate exactly
        // what the workload-built runner simulates.
        let by_workload = Runner::quick(1_000, 5_000);
        let programs = workload::quick_suite()
            .into_iter()
            .map(|w| (w.name.clone(), Arc::new(w.build())))
            .collect();
        let by_program = Runner::from_programs(programs, 1_000, 5_000);
        assert_eq!(by_program.names(), by_workload.names());
        assert_eq!(by_program.suite_name(), "generated");
        assert_eq!(
            by_program.run_config(&CoreConfig::fdp()),
            by_workload.run_config(&CoreConfig::fdp())
        );
        let suite = by_program.run_suite(&CoreConfig::fdp(), "test-run");
        for w in &suite.workloads {
            assert_eq!(w.family, "generated");
        }
    }

    #[test]
    fn speedup_of_identical_runs_is_zero() {
        let r = Runner::quick(1_000, 5_000);
        let a = r.run_config(&CoreConfig::fdp());
        let b = r.run_config(&CoreConfig::fdp());
        let s = Runner::speedup_pct(&a, &b);
        assert!(s.abs() < 1e-9, "{s}");
    }

    #[test]
    fn config_sweep_matches_individual_runs() {
        let r = Runner::quick(1_000, 5_000);
        let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
        let grid = r.run_configs(&cfgs);
        assert_eq!(grid.len(), 2);
        // The flattened batch must land each (config, workload) result in
        // its own slot, identical to running the configs one at a time.
        assert_eq!(grid[0], r.run_config(&CoreConfig::no_fdp()));
        assert_eq!(grid[1], r.run_config(&CoreConfig::fdp()));
    }

    #[test]
    fn empty_sweep_returns_no_grids() {
        let r = Runner::quick(1_000, 5_000);
        assert!(r.run_configs(&[]).is_empty());
    }

    #[test]
    fn runner_stays_within_its_pool_bound() {
        // Regression for the old one-thread-per-workload Runner::run: the
        // pool, not the workload count, bounds live simulation workers.
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(500, 3_000).with_pool(Arc::clone(&pool));
        let stats = r.run_config(&CoreConfig::fdp());
        assert_eq!(stats.len(), 3);
        let ps = pool.stats();
        assert_eq!(ps.jobs_completed, 3);
        assert!(
            ps.peak_busy <= 2,
            "peak busy workers {} exceeds the pool bound 2",
            ps.peak_busy
        );
    }

    #[test]
    fn run_suite_packages_manifest_and_workloads() {
        let r = Runner::quick(1_000, 5_000);
        let suite = r.run_suite(&CoreConfig::fdp(), "test-run");
        assert_eq!(suite.manifest.suite, "quick");
        assert_eq!(suite.manifest.workload_count, 3);
        assert_eq!(suite.workloads.len(), 3);
        assert!(suite.manifest.wall_seconds > 0.0);
        assert!(suite.geomean_ipc() > 0.1);
        for w in &suite.workloads {
            assert_eq!(w.dists.ftq_occupancy.count(), w.stats.cycles);
            assert!(w.dists.prefetch_lead_time.count() > 0);
        }
        // Pool telemetry rides along in the manifest.
        let pool = suite.manifest.pool.as_ref().expect("pool block");
        assert!(pool.get("workers").is_some());
        assert!(pool.get("jobs_completed").is_some());
    }

    #[test]
    fn mean_mpki_aggregates() {
        let r = Runner::quick(1_000, 5_000);
        let stats = r.run_config(&CoreConfig::fdp());
        let m = Runner::mean_mpki(&stats);
        assert!((0.0..200.0).contains(&m));
    }
}
