//! The metric registry: every metric the benchmark can print, with its
//! unit and direction. `run` emits exactly these names (end-to-end ones
//! untraced, per-layer ones traced) and `check` holds `BENCHMARK.json` to
//! the same lists in both directions.

use std::collections::BTreeMap;

use fdip_sim::STALL_REASON_NAMES;
use fdip_telemetry::Json;

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One registered metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn spec(name: &str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name: name.to_string(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed by every untraced run of every
/// workload. `best_pass_ms` is the sum over the run's inputs of each
/// input's fastest op (see `run`): one pass over a `single` run's
/// simulations, one warm grid request on `serve`, one checked simulation
/// of every (program, config) pair on `fuzz`.
///
/// Median and tail latency are not among them: on a shared host they
/// measure the other tenants (see `README.md`). They are in each run's
/// headline figures, memory among the per-layer metrics.
pub fn end_to_end() -> Vec<Spec> {
    use Better::*;
    vec![
        spec("setup_s", "s", Lower),
        spec("best_pass_ms", "ms", Lower),
    ]
}

/// Each workload's own headline figures, printed beside the end-to-end
/// metrics by its untraced runs. `BENCHMARK.json` declares no bound for
/// them: they exist on one workload only.
pub fn headline(workload: &str) -> Vec<Spec> {
    use Better::*;
    match workload {
        "single" => vec![
            spec("sim_minstr_per_s", "Minstr/s", Higher),
            spec("sim_minstr_per_s_q1", "Minstr/s", Higher),
            spec("sim_minstr_per_s_q3", "Minstr/s", Higher),
        ],
        "serve" => vec![
            spec("grid_cold_p50_ms", "ms", Lower),
            spec("grid_warm_p50_ms", "ms", Lower),
            spec("grid_warm_tail_ms", "ms", Lower),
        ],
        "fuzz" => vec![spec("fuzz_sims_per_s", "sims/s", Higher)],
        _ => Vec::new(),
    }
}

/// Spans the benchmark records around calls into each layer; their
/// folded self time is reported as `<span>.self_share` of the traced
/// phase's wall time.
pub const SPAN_NAMES: [&str; 9] = [
    "bench.round",
    "bench.op",
    "bench.check",
    "core.new",
    "core.run",
    "harness.grid_encode",
    "serve.http",
    "harness.cells_decode",
    "core.checked_run",
];

/// The per-layer metrics, printed by every traced run of every workload.
/// Every time is measured on every workload, by probes that re-run the
/// workload's own configs and programs. A layer only some workloads
/// reach reports a share or a count, which reads `0` elsewhere.
pub fn per_layer() -> Vec<Spec> {
    use Better::*;
    let mut v = vec![
        spec("trace_overhead_frac", "ratio", Lower),
        spec("trace.self_coverage", "ratio", Higher),
        spec("host.rss_after_setup_mb", "MiB", Lower),
        spec("host.peak_rss_mb", "MiB", Lower),
    ];
    v.extend(
        SPAN_NAMES
            .iter()
            .map(|s| spec(&format!("{s}.self_share"), "ratio", Lower)),
    );
    v.extend([
        spec("program.build_ms", "ms", Lower),
        spec("core.new_ms", "ms", Lower),
        spec("core.func_warmup_ms", "ms", Lower),
        spec("core.predictors_us", "us", Lower),
        spec("mem.prewarm_us", "us", Lower),
        spec("core.meta_us", "us", Lower),
        spec("core.run_ns_per_instr", "ns", Lower),
        spec("core.run_ns_per_cycle", "ns", Lower),
        spec("core.setup_share", "ratio", Lower),
        spec("core.new_total_s", "s", Lower),
        spec("core.run_total_s", "s", Lower),
        spec("core.sims", "count", Higher),
        spec("core.cycles", "count", Lower),
        spec("core.instrs", "count", Higher),
        spec("telemetry.encode_us_per_cell", "us", Lower),
        spec("telemetry.parse_us_per_cell", "us", Lower),
        spec("exec.busy_fraction", "ratio", Higher),
        spec("exec.steals", "count", Lower),
        spec("exec.queue_depth_p50", "count", Lower),
        spec("exec.queue_wait_ms_p50", "ms", Lower),
        spec("exec.job_ms_p50", "ms", Lower),
        spec("exec.job_ms_max", "ms", Lower),
        spec("exec.tail_s", "s", Lower),
        spec("serve.classify_share", "ratio", Lower),
        spec("serve.simulate_share", "ratio", Lower),
        spec("serve.assemble_share", "ratio", Lower),
        spec("serve.cache_hits", "count", Higher),
        spec("serve.cache_misses", "count", Lower),
        spec("serve.cells_simulated", "count", Lower),
        spec("serve.cells_coalesced", "count", Lower),
        spec("fuzz.checked_pass_share", "ratio", Lower),
        spec("model.ipc_fdp", "IPC", Higher),
        spec("model.ipc_nofdp", "IPC", Higher),
        spec("model.fdp_gain_pct", "%", Higher),
        spec("model.fdp_gain_gap_pp", "pp", Lower),
        spec("model.branch_mpki", "MPKI", Lower),
        spec("model.btb_hit_rate", "ratio", Higher),
        spec("model.fdp_accuracy", "ratio", Higher),
        spec("model.fdp_timeliness", "ratio", Higher),
    ]);
    v.extend(
        STALL_REASON_NAMES
            .iter()
            .map(|b| spec(&format!("model.stall_pki.{b}"), "cycles/KI", Lower)),
    );
    v
}

/// `true` if `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values of one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Every metric of `specs`, zeroed.
    pub fn zeroed<'a>(specs: impl IntoIterator<Item = &'a Spec>) -> Values {
        Values(specs.into_iter().map(|s| (s.name.clone(), 0.0)).collect())
    }

    /// Sets a registered metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside this run's list: emission must never
    /// drift from the registry `check` compares against.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not registered for this run"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}}` in registry order.
    pub fn to_json(&self, specs: &[Spec]) -> Json {
        let mut out = Json::obj();
        for s in specs {
            out.set(
                &s.name,
                Json::obj()
                    .with("value", self.get(&s.name))
                    .with("unit", s.unit),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_legal_unique_and_within_limits() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let heads: Vec<Spec> = crate::run::WORKLOADS
            .iter()
            .flat_map(|w| headline(w))
            .collect();
        let mut names: Vec<&str> = e2e
            .iter()
            .chain(&layer)
            .chain(&heads)
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
        let setup = e2e.iter().find(|s| s.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(valid_name("model.stall_pki.icache_miss"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
