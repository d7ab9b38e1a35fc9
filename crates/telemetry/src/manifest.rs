//! Run provenance for a results file.

#![expect(
    clippy::disallowed_types,
    reason = "generated_unix provenance stamp; stripped before determinism diffs"
)]

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::ToJson;

/// Provenance attached to every emitted `results.json`.
///
/// Records what produced the file (tool and suite), how long the runs were
/// (warmup and measured instruction counts), which source revision was
/// built, and when/how long the run took — enough to tell two results
/// files apart without re-running anything.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Name of the binary or test that produced the results.
    pub tool: String,
    /// Workload suite identifier (e.g. `"quick"`, `"full"`).
    pub suite: String,
    /// Instructions retired per workload before measurement begins.
    pub warmup_instrs: u64,
    /// Instructions retired per workload in the measured region.
    pub measure_instrs: u64,
    /// Number of workloads in the suite.
    pub workload_count: usize,
    /// `git describe --always --dirty` output, or `"unknown"`.
    pub git_revision: String,
    /// Unix timestamp (seconds) when the manifest was created.
    pub generated_unix: u64,
    /// Wall-clock seconds the run took (filled in at emission time).
    pub wall_seconds: f64,
    /// Job-pool telemetry for the run, already serialized (set by the
    /// harness from `fdip_exec::PoolStats`; this crate stays ignorant of
    /// the executor). Omitted from the JSON when `None`.
    pub pool: Option<Json>,
}

impl RunManifest {
    /// Creates a manifest stamped with the current time and git revision.
    ///
    /// `wall_seconds` starts at zero; callers set it just before emission.
    pub fn new(
        tool: &str,
        suite: &str,
        warmup_instrs: u64,
        measure_instrs: u64,
        workload_count: usize,
    ) -> RunManifest {
        RunManifest {
            tool: tool.to_string(),
            suite: suite.to_string(),
            warmup_instrs,
            measure_instrs,
            workload_count,
            git_revision: git_describe(),
            generated_unix: unix_now(),
            wall_seconds: 0.0,
            pool: None,
        }
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("tool", self.tool.as_str())
            .with("suite", self.suite.as_str())
            .with("warmup_instrs", self.warmup_instrs)
            .with("measure_instrs", self.measure_instrs)
            .with("workload_count", self.workload_count)
            .with("git_revision", self.git_revision.as_str())
            .with("generated_unix", self.generated_unix)
            .with("wall_seconds", self.wall_seconds);
        if let Some(pool) = &self.pool {
            j.set("pool", pool.clone());
        }
        j
    }
}

/// Best-effort `git describe --always --dirty`; `"unknown"` outside a repo.
fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_serializes_every_field() {
        let mut m = RunManifest::new("fdip-run", "quick", 50_000, 200_000, 6);
        m.wall_seconds = 1.5;
        let j = m.to_json();
        for key in [
            "tool",
            "suite",
            "warmup_instrs",
            "measure_instrs",
            "workload_count",
            "git_revision",
            "generated_unix",
            "wall_seconds",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("suite").and_then(Json::as_str), Some("quick"));
        assert_eq!(j.get("warmup_instrs").and_then(Json::as_u64), Some(50_000));
        let round = Json::parse(&j.to_string()).unwrap();
        assert_eq!(round.get("wall_seconds").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn pool_block_is_emitted_only_when_present() {
        let mut m = RunManifest::new("fdip-run", "quick", 1_000, 4_000, 3);
        assert!(m.to_json().get("pool").is_none());
        m.pool = Some(Json::obj().with("workers", 4u64));
        let j = m.to_json();
        assert_eq!(
            j.get("pool")
                .and_then(|p| p.get("workers"))
                .and_then(Json::as_u64),
            Some(4)
        );
    }
}
