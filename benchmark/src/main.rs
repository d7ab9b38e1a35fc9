//! The FDIP reproduction's benchmark: the paths a user waits on (the
//! single-thread cycle loop, the sweep daemon, a fuzz campaign), measured
//! end to end untraced and split by layer traced.
//!
//! ```text
//! fdip-benchmark run --workload <single|serve|fuzz> --seed <u64>
//!                    [--seconds S] [--trace 0|1] [--jobs N] [--json OUT]
//!                    [--out-dir DIR]
//! fdip-benchmark check [--spec BENCHMARK.json]
//! fdip-benchmark compare [--spec BENCHMARK.json] <parent.json>... -- <change.json>...
//! ```
//!
//! `run` prints every metric as `name value unit`, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 if any
//! correctness check failed. See `README.md` beside this file.

mod compare;
mod fuzz;
mod host;
mod metrics;
mod probes;
mod run;
mod serve;
mod single;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use fdip_telemetry::Json;

use run::{RunOpts, RunOutput, WORKLOADS};

const USAGE: &str = "usage:
  fdip-benchmark run --workload <single|serve|fuzz> --seed <u64>
                     [--seconds S] [--trace 0|1] [--jobs N] [--json OUT] [--out-dir DIR]
  fdip-benchmark check [--spec BENCHMARK.json]
  fdip-benchmark compare [--spec BENCHMARK.json] <parent.json>... -- <change.json>...";

fn usage(msg: &str) -> ExitCode {
    eprintln!("fdip-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage("expected a subcommand"),
    }
}

/// `--flag value` pairs and positional arguments.
type Flags = (Vec<(String, String)>, Vec<String>);

/// Splits `--flag value` pairs off `args`; the rest are positional.
fn flags(args: &[String]) -> Result<Flags, String> {
    let (mut pairs, mut rest) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && a != "--" {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            pairs.push((a.clone(), v.clone()));
        } else {
            rest.push(a.clone());
        }
    }
    Ok((pairs, rest))
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

fn run_opts(args: &[String]) -> Result<(RunOpts, Option<PathBuf>), String> {
    let (pairs, rest) = flags(args)?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let (mut workload, mut seed, mut trace) = (String::new(), None, false);
    let (mut seconds, mut jobs) = (compare::RUN_SECONDS as f64, host::nproc());
    let (mut json, mut out_dir) = (None, PathBuf::from("bench-out"));
    for (flag, v) in &pairs {
        match flag.as_str() {
            "--workload" => workload = v.clone(),
            "--seed" => seed = Some(parse(flag, v)?),
            "--seconds" => seconds = parse(flag, v)?,
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--jobs" => jobs = parse::<usize>(flag, v)?.max(1),
            "--json" => json = Some(PathBuf::from(v)),
            "--out-dir" => out_dir = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let opts = RunOpts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        jobs,
        out_dir,
    };
    Ok((opts, json))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (opts, json_path) = match run_opts(args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let out = match run::run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fdip-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (specs, heads) = if opts.trace {
        (metrics::per_layer(), Vec::new())
    } else {
        (metrics::end_to_end(), metrics::headline(&opts.workload))
    };
    let samples = samples_json(&out);
    let mut tally = out.tally;
    if !opts.trace {
        for s in &specs {
            let v = out.values.get(&s.name);
            if !(v.is_finite() && v > 0.0) {
                tally.record(Err(format!("end-to-end metric {} read {v}", s.name)));
            }
        }
    }
    let correct = tally.failed == 0;

    let (rev, dirty) = host::git_state();
    let manifest = Json::obj()
        .with("tool", "fdip-benchmark")
        .with("workload", opts.workload.as_str())
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("jobs", opts.jobs)
        .with("nproc", host::nproc())
        .with("git_revision", rev.map_or(Json::Null, Json::from))
        .with("dirty", dirty.map_or(Json::Null, Json::from));
    for (k, v) in manifest.as_obj().unwrap_or(&[]) {
        println!("# {k} {}", v.to_string());
    }
    println!("# samples {}", samples.to_string());
    for e in &tally.errors {
        println!("# error {e}");
    }
    for s in specs.iter().chain(&heads) {
        println!("{} {} {}", s.name, out.values.get(&s.name), s.unit);
    }
    let metrics_json = out.values.to_json(&specs);

    if let Some(path) = json_path {
        let doc = Json::obj()
            .with("manifest", manifest)
            .with("correct", correct)
            .with("attempted", tally.attempted)
            .with("failed", tally.failed)
            .with("fail_frac", tally.fail_frac())
            .with(
                "errors",
                Json::Arr(
                    tally
                        .errors
                        .iter()
                        .map(|e| Json::from(e.as_str()))
                        .collect(),
                ),
            )
            .with("samples", samples)
            .with("metrics", metrics_json.clone())
            .with("headline", out.values.to_json(&heads));
        if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
            eprintln!("fdip-benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let last = Json::obj()
        .with("correct", correct)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics_json);
    println!("{}", last.to_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sample counts behind the run's figures: ops timed, the inputs
/// `best_pass_ms` sums over with each one's fastest op, and the fewest
/// repeats of any of them.
fn samples_json(out: &RunOutput) -> Json {
    let (best, repeats) = stats::best_by_input(&out.ops);
    let op = Json::obj()
        .with("count", out.ops.len())
        .with("inputs", best.len())
        .with("min_repeats", repeats)
        .with(
            "best_ms",
            Json::Arr(best.into_iter().map(Json::from).collect()),
        );
    let mut doc = Json::obj()
        .with("op", op)
        .with("rounds", out.rounds)
        .with("setup_reps", out.setup_s.len())
        .with(
            "setup_s",
            Json::Arr(out.setup_s.iter().map(|&s| Json::from(s)).collect()),
        );
    if let Some(path) = &out.trace_file {
        doc.set("trace_file", path.display().to_string());
    }
    doc
}

fn load_spec(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let spec_path = match flags(args) {
        Ok((pairs, rest)) if rest.is_empty() => pairs
            .iter()
            .find(|(f, _)| f == "--spec")
            .map_or("BENCHMARK.json".to_string(), |(_, v)| v.clone()),
        _ => return usage("check takes only --spec"),
    };
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fdip-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = compare::check(&spec);
    for p in &problems {
        println!("drift: {p}");
    }
    if problems.is_empty() {
        println!(
            "check: {spec_path} matches the {} end-to-end and {} per-layer metrics emitted",
            metrics::end_to_end().len(),
            metrics::per_layer().len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let (pairs, rest) = match flags(args) {
        Ok(x) => x,
        Err(e) => return usage(&e),
    };
    let spec_path = pairs
        .iter()
        .find(|(f, _)| f == "--spec")
        .map_or("BENCHMARK.json", |(_, v)| v.as_str());
    let Some(split) = rest.iter().position(|a| a == "--") else {
        return usage("compare needs `--` between parent and change runs");
    };
    let load = |files: &[String]| -> Result<Vec<compare::RunDoc>, String> {
        files
            .iter()
            .map(|f| {
                let doc = load_spec(f)?;
                compare::RunDoc::parse(&doc)
                    .ok_or_else(|| format!("{f}: not a run --json document"))
            })
            .collect()
    };
    let result = load_spec(spec_path).and_then(|spec| {
        let parent = load(&rest[..split])?;
        let change = load(&rest[split + 1..])?;
        Ok(compare::compare(&parent, &change, &compare::bounds(&spec)))
    });
    match result {
        Ok(rows) => {
            for r in rows {
                println!("{r}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fdip-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
