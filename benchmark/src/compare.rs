//! `check`: holds `BENCHMARK.json` to the metric registry in both
//! directions. `compare`: judges a change's runs against its parent's.

use std::collections::BTreeMap;

use fdip_telemetry::Json;

use crate::metrics::{self, valid_name, Better, Spec};
use crate::run::WORKLOADS;
use crate::stats;

/// The default `--seconds`, which `BENCHMARK.json` must declare as
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 35;

/// Largest regression bound a metric may declare.
const MAX_BOUND: f64 = 0.25;

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .map(|f| f.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks one declared metric list against the registry both ways.
fn check_metrics(
    section: &str,
    declared: &[Json],
    registry: &[Spec],
    with_bound: bool,
    limit: usize,
    problems: &mut Vec<String>,
) {
    if declared.is_empty() || declared.len() > limit {
        problems.push(format!(
            "{section}: {} metrics, allowed 1 to {limit}",
            declared.len()
        ));
    }
    let want_keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut seen = Vec::new();
    for m in declared {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        if keys(m) != want_keys {
            problems.push(format!(
                "{section} {name:?}: keys must be exactly {want_keys:?}"
            ));
        }
        if !valid_name(name) {
            problems.push(format!("{section}: illegal metric name {name:?}"));
        }
        if seen.contains(&name) {
            problems.push(format!("{section}: {name} declared twice"));
        }
        seen.push(name);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        if !valid_unit(unit) {
            problems.push(format!("{section} {name}: illegal unit {unit:?}"));
        }
        let better = m
            .get("better")
            .and_then(Json::as_str)
            .and_then(Better::parse);
        match registry.iter().find(|s| s.name == name) {
            None => problems.push(format!(
                "{section}: {name} is declared but the benchmark never emits it"
            )),
            Some(s) if s.unit != unit || Some(s.better) != better => problems.push(format!(
                "{section} {name}: declared {unit}/{better:?}, emitted {}/{}",
                s.unit,
                s.better.as_str()
            )),
            Some(_) => {}
        }
        if with_bound {
            match m.get("bound").and_then(Json::as_f64) {
                Some(b) if b > 0.0 && b <= MAX_BOUND => {}
                other => problems.push(format!(
                    "{section} {name}: bound {other:?} outside (0, {MAX_BOUND}]"
                )),
            }
        }
    }
    for s in registry {
        if !seen.contains(&s.name.as_str()) {
            problems.push(format!(
                "{section}: the benchmark emits {} but BENCHMARK.json does not declare it",
                s.name
            ));
        }
    }
}

/// Every way `spec` drifts from what the benchmark emits; empty when
/// the two agree.
pub fn check(spec: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys(spec) != top {
        problems.push(format!("top-level keys must be exactly {top:?}"));
    }
    if spec.get("run_seconds").and_then(Json::as_u64) != Some(RUN_SECONDS) {
        problems.push(format!("run_seconds must be {RUN_SECONDS}"));
    }
    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap_or(""))
        .collect();
    if names != WORKLOADS {
        problems.push(format!(
            "workloads {names:?} != the benchmark's {WORKLOADS:?}"
        ));
    }
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if keys(w) != ["name", "why"] || why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {:?}: needs exactly a name and a one-line why of at most 200 characters",
                w.get("name")
            ));
        }
    }
    let section = |k: &str| spec.get(k).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    check_metrics(
        "end_to_end",
        &section("end_to_end"),
        &metrics::end_to_end(),
        true,
        16,
        &mut problems,
    );
    check_metrics(
        "per_layer",
        &section("per_layer"),
        &metrics::per_layer(),
        false,
        128,
        &mut problems,
    );
    problems
}

/// The regression bounds `spec` declares, by metric.
pub fn bounds(spec: &Json) -> BTreeMap<String, f64> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, PartialEq)]
pub struct Judgement {
    pub pairs: usize,
    pub wins: usize,
    pub losses: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_iqr: f64,
    pub verdict: &'static str,
}

/// Applies the gain and regression rules to paired runs (pair `i` is the
/// `i`-th run of each side):
///
/// - `win`: at least ten pairs, the change wins at least nine tenths of
///   them (ties count for neither side), and the medians differ in its
///   favour by more than the parent's interquartile range;
/// - `unresolved`: the parent's own spread (IQR over median) exceeds the
///   bound, unless every change run beats every parent run;
/// - `regression`: the change's median is worse than the parent's by
///   more than the bound;
/// - `no-regression` otherwise (`no-claim` without a bound).
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Judgement {
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| beats(parent[i], change[i])).count();
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let iqr = stats::quartiles(parent).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    } / pm.abs().max(f64::MIN_POSITIVE);
    let verdict = if pairs >= 10 && wins * 10 >= pairs * 9 && beats(cm, pm) && (cm - pm).abs() > iqr
    {
        "win"
    } else if let Some(bound) = bound {
        if stats::spread(parent) > bound && !all_better {
            "unresolved"
        } else if worse_by > bound {
            "regression"
        } else {
            "no-regression"
        }
    } else {
        "no-claim"
    };
    Judgement {
        pairs,
        wins,
        losses,
        parent_median: pm,
        change_median: cm,
        parent_iqr: iqr,
        verdict,
    }
}

/// One run document written by `run --json`.
pub struct RunDoc {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunDoc {
    pub fn parse(doc: &Json) -> Option<RunDoc> {
        let manifest = doc.get("manifest")?;
        let headline = doc.get("headline").and_then(Json::as_obj).unwrap_or(&[]);
        let metrics = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .chain(headline)
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        Some(RunDoc {
            workload: manifest.get("workload")?.as_str()?.to_string(),
            trace: manifest.get("trace")?.as_bool()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// Failed over attempted operations, summed over `docs`.
fn fail_frac<'a>(docs: impl Iterator<Item = &'a RunDoc>) -> f64 {
    let (attempted, failed) = docs.fold((0, 0), |(a, f), d| (a + d.attempted, f + d.failed));
    failed as f64 / attempted.max(1) as f64
}

/// Formats one row per (workload, metric) both sides measured. Where
/// the change's runs of a workload fail a larger share of their
/// operations than the parent's, every row of that workload reads
/// `failed`: a gain does not count when more operations fail.
pub fn compare<'a>(
    parent: &'a [RunDoc],
    change: &'a [RunDoc],
    bounds: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut rows = vec![format!(
        "{:<8} {:<30} {:>14} {:>14} {:>12} {:>9}  verdict",
        "workload", "metric", "parent p50", "change p50", "parent IQR", "won-lost"
    )];
    for trace in [false, true] {
        for w in WORKLOADS {
            let specs = if trace {
                metrics::per_layer()
            } else {
                [metrics::end_to_end(), metrics::headline(w)].concat()
            };
            let runs = |docs: &'a [RunDoc]| {
                docs.iter()
                    .filter(move |d| d.workload == w && d.trace == trace)
            };
            let side = |docs: &'a [RunDoc], name: &str| -> Vec<f64> {
                runs(docs)
                    .filter_map(|d| d.metrics.get(name).copied())
                    .collect()
            };
            let more_fail = fail_frac(runs(change)) > fail_frac(runs(parent));
            for s in &specs {
                let (p, c) = (side(parent, &s.name), side(change, &s.name));
                if p.is_empty() || c.is_empty() {
                    continue;
                }
                let mut j = judge(&p, &c, s.better, bounds.get(&s.name).copied());
                if more_fail {
                    j.verdict = "failed";
                }
                rows.push(format!(
                    "{w:<8} {:<30} {:>14.6} {:>14.6} {:>12.6} {:>9}  {}",
                    s.name,
                    j.parent_median,
                    j.change_median,
                    j.parent_iqr,
                    format!("{}-{}/{}", j.wins, j.losses, j.pairs),
                    j.verdict
                ));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_parent_iqr_is_a_win() {
        let parent = ten(100.0, 1.0); // IQR 5.5
        let mut change = ten(90.0, 1.0);
        change[0] = 101.0; // loses pair 0 only
        let j = judge(&parent, &change, Better::Lower, Some(0.1));
        assert_eq!((j.wins, j.losses, j.pairs), (9, 1, 10));
        assert_eq!(j.verdict, "win");
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = ten(100.0, 1.0);
        let mut change = ten(90.0, 1.0);
        change[0] = parent[0];
        change[1] = parent[1];
        let j = judge(&parent, &change, Better::Lower, Some(0.1));
        assert_eq!((j.wins, j.losses), (8, 0));
        // Eight wins in ten pairs is short of nine tenths.
        assert_eq!(j.verdict, "no-regression");
    }

    #[test]
    fn a_win_needs_ten_pairs_and_a_gap_beyond_the_iqr() {
        let j = judge(&[10.0; 5], &[9.0; 5], Better::Lower, Some(0.2));
        assert_eq!(j.wins, 5);
        assert_ne!(j.verdict, "win");
        // All ten pairs won, but by less than the parent's IQR.
        let parent = ten(100.0, 2.0); // IQR 11
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let j = judge(&parent, &change, Better::Lower, Some(0.2));
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, "no-regression");
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let parent = ten(100.0, 1.0);
        let change = ten(120.0, 1.0);
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.1)).verdict,
            "win"
        );
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)).verdict,
            "regression"
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_is_better() {
        let parent = ten(50.0, 10.0); // spread far above 0.1
        let change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)).verdict,
            "unresolved"
        );
        let faster = vec![1.0; 10];
        assert_eq!(
            judge(&parent, &faster, Better::Lower, Some(0.1)).verdict,
            "win"
        );
        assert_eq!(
            judge(&parent, &change, Better::Lower, None).verdict,
            "no-claim"
        );
    }

    #[test]
    fn a_change_that_fails_more_operations_never_wins() {
        let doc = |op_ms: f64, failed: u64| RunDoc {
            workload: "single".to_string(),
            trace: false,
            attempted: 100,
            failed,
            metrics: [("best_pass_ms".to_string(), op_ms)].into(),
        };
        let parent: Vec<RunDoc> = ten(100.0, 1.0).into_iter().map(|v| doc(v, 0)).collect();
        let faster = || ten(50.0, 1.0).into_iter();
        let bounds = [("best_pass_ms".to_string(), 0.1)].into();
        let verdict = |change: &[RunDoc]| {
            let rows = compare(&parent, change, &bounds);
            let row = rows.iter().find(|r| r.contains("best_pass_ms")).unwrap();
            row.rsplit(' ').next().unwrap().to_string()
        };
        let clean: Vec<RunDoc> = faster().map(|v| doc(v, 0)).collect();
        assert_eq!(verdict(&clean), "win");
        let mut one_fails = clean;
        one_fails[3].failed = 1;
        assert_eq!(verdict(&one_fails), "failed");
    }

    #[test]
    fn check_accepts_the_committed_spec_and_flags_drift() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(check(&spec), Vec::<String>::new());

        let mut drifted = spec.clone();
        let mut e2e = drifted
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        e2e.pop();
        e2e.push(
            Json::obj()
                .with("name", "bogus metric")
                .with("unit", "ms")
                .with("better", "lower")
                .with("bound", 0.5),
        );
        drifted.set("end_to_end", Json::Arr(e2e));
        let problems = check(&drifted).join("\n");
        assert!(problems.contains("illegal metric name"), "{problems}");
        assert!(problems.contains("never emits"), "{problems}");
        assert!(problems.contains("does not declare"), "{problems}");
        assert!(problems.contains("outside (0, 0.25]"), "{problems}");
    }
}
