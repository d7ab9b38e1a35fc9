//! Single-configuration runner: simulate one workload (or a whole suite)
//! under one frontend configuration, print the full statistics block, and
//! optionally emit machine-readable `results.json`. The tool a downstream
//! user reaches for before scripting sweeps.
//!
//! ```text
//! fdip-run --workload server_a --btb 4096 --no-pfc --instrs 500000
//! fdip-run --list-workloads
//! fdip-run --workload spec_a --policy ghr3 --prefetcher eip27 --ftq 12
//! fdip-run --json results.json              # quick suite -> results.json
//! fdip-run --suite full --json results.json
//! ```
//!
//! `--json <path>` (or the `FDIP_JSON` env var) writes the versioned
//! results schema documented in `docs/METRICS.md`.

#![expect(
    clippy::disallowed_types,
    reason = "progress and wall-clock reporting only; never enters results"
)]

use fdip_bpred::{GshareConfig, HistoryPolicy, TageConfig};
use fdip_harness::{Runner, SuiteResult, WorkloadResult};
use fdip_prefetch::PrefetcherKind;
use fdip_program::workload;
use fdip_sim::{
    run_workload_detailed, run_workload_traced, CoreConfig, DirectionConfig, SimStats, StallReason,
    STALL_REASON_NAMES,
};
use fdip_telemetry::RunManifest;
use std::path::Path;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: fdip-run [options]
  --workload <name>      workload from the suite (default server_a)
  --list-workloads       print suite names, families, and default
                         warm-up/measured instruction counts, then exit
  --trace <path>         write a Chrome trace_event JSON of the run
                         (single --workload runs only; open in Perfetto)
  --trace-limit <n>      event ring-buffer capacity for --trace
                         (default 100000; oldest events drop first)
  --suite <quick|full>   run a whole suite instead of one workload
  --json <path>          write results.json (schema: docs/METRICS.md);
                         with no --workload/--suite, runs the quick suite.
                         FDIP_JSON=<path> is the env equivalent
  --jobs <n>             worker-pool size for suite runs (default
                         FDIP_JOBS or available cores)
  --instrs <n>           measured instructions (default FDIP_INSTRS or 200000)
  --warmup <n>           timed warm-up instructions (default FDIP_WARMUP or 50000)
  --ftq <entries>        FTQ depth (default 24; 2 = no FDP)
  --btb <entries>        BTB entries (default 8192)
  --btb-latency <cyc>    BTB latency (default 2)
  --pred-bw <n>          prediction bandwidth (default 12)
  --policy <p>           thr|ideal|ghr0|ghr1|ghr2|ghr3 (default thr)
  --direction <d>        tage9|tage18|tage36|gshare|perfect (default tage18)
  --prefetcher <p>       none|nl1|fnlmma|djolt|eip27|eip128|sn4l|sn4lbtb|rdip|perfect
  --no-pfc               disable post-fetch correction
  --loop-predictor       enable the loop predictor
  --perfect-btb          idealised BTB
  --no-fdp               shorthand for --ftq 2 --no-pfc"
    );
    std::process::exit(2);
}

fn parse_policy(s: &str) -> HistoryPolicy {
    match s {
        "thr" => HistoryPolicy::Thr,
        "ideal" => HistoryPolicy::Ideal,
        "ghr0" => HistoryPolicy::Ghr0,
        "ghr1" => HistoryPolicy::Ghr1,
        "ghr2" => HistoryPolicy::Ghr2,
        "ghr3" => HistoryPolicy::Ghr3,
        _ => usage(),
    }
}

fn parse_prefetcher(s: &str) -> PrefetcherKind {
    match s {
        "none" => PrefetcherKind::None,
        "nl1" => PrefetcherKind::NextLine,
        "fnlmma" => PrefetcherKind::FnlMma,
        "djolt" => PrefetcherKind::Djolt,
        "eip27" => PrefetcherKind::Eip27,
        "eip128" => PrefetcherKind::Eip128,
        "sn4l" => PrefetcherKind::SnfourlDis,
        "sn4lbtb" => PrefetcherKind::SnfourlDisBtb,
        "rdip" => PrefetcherKind::Rdip,
        "perfect" => PrefetcherKind::Perfect,
        _ => usage(),
    }
}

fn parse_direction(s: &str) -> DirectionConfig {
    match s {
        "tage9" => DirectionConfig::Tage(TageConfig::kb9()),
        "tage18" => DirectionConfig::Tage(TageConfig::kb18()),
        "tage36" => DirectionConfig::Tage(TageConfig::kb36()),
        "gshare" => DirectionConfig::Gshare(GshareConfig::default()),
        "perfect" => DirectionConfig::Perfect,
        _ => usage(),
    }
}

/// Writes the suite result, reporting failure on stderr with exit 1.
fn emit_json(suite: &SuiteResult, path: &str) {
    if let Err(e) = suite.write_json_file(Path::new(path)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    // CLI runs mirror structured log records (e.g. the remote-fallback
    // warning) to stderr; in-process library users keep it quiet.
    fdip_obs::log::logger().set_stderr(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut suite_arg: Option<String> = None;
    let mut json_path = std::env::var("FDIP_JSON").ok().filter(|p| !p.is_empty());
    let env_u64 = |var: &str, default: u64| {
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let mut instrs = env_u64("FDIP_INSTRS", 200_000);
    let mut warmup = env_u64("FDIP_WARMUP", 50_000);
    let mut cfg = CoreConfig::fdp();
    let mut trace_path: Option<String> = None;
    let mut trace_limit: usize = 100_000;
    let mut list_workloads = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => name = Some(val()),
            "--suite" => suite_arg = Some(val()),
            "--json" => json_path = Some(val()),
            "--jobs" => {
                let n = val().parse().unwrap_or_else(|_| usage());
                fdip_exec::set_global_jobs(n);
            }
            "--list-workloads" => list_workloads = true,
            "--trace" => trace_path = Some(val()),
            "--trace-limit" => trace_limit = val().parse().unwrap_or_else(|_| usage()),
            "--instrs" => instrs = val().parse().unwrap_or_else(|_| usage()),
            "--warmup" => warmup = val().parse().unwrap_or_else(|_| usage()),
            "--ftq" => cfg.ftq_entries = val().parse().unwrap_or_else(|_| usage()),
            "--btb" => cfg = cfg.with_btb_entries(val().parse().unwrap_or_else(|_| usage())),
            "--btb-latency" => cfg.btb_latency = val().parse().unwrap_or_else(|_| usage()),
            "--pred-bw" => cfg.pred_bw = val().parse().unwrap_or_else(|_| usage()),
            "--policy" => cfg.policy = parse_policy(&val()),
            "--direction" => cfg.direction = parse_direction(&val()),
            "--prefetcher" => cfg.prefetcher = parse_prefetcher(&val()),
            "--no-pfc" => cfg.pfc = false,
            "--loop-predictor" => cfg.loop_predictor = true,
            "--perfect-btb" => cfg.perfect_btb = true,
            "--no-fdp" => {
                cfg.ftq_entries = 2;
                cfg.pfc = false;
            }
            _ => usage(),
        }
    }

    if list_workloads {
        // Deferred past argument parsing so the listed warm-up/measured
        // instruction counts reflect --instrs/--warmup/env overrides.
        println!(
            "{:<12} {:<8} {:>10} {:>10}",
            "workload", "family", "warmup", "instrs"
        );
        for w in workload::suite() {
            println!(
                "{:<12} {:<8} {:>10} {:>10}",
                w.name, w.family, warmup, instrs
            );
        }
        return;
    }

    // A whole-suite run: explicit --suite, or --json without a specific
    // workload (the CI-friendly "produce results.json" invocation).
    let suite_name = match suite_arg.as_deref() {
        Some("quick") => Some("quick"),
        Some("full") => Some("full"),
        Some(_) => usage(),
        None if json_path.is_some() && name.is_none() => Some("quick"),
        None => None,
    };
    if let Some(sname) = suite_name {
        if trace_path.is_some() {
            eprintln!("error: --trace needs a single --workload run, not a suite");
            std::process::exit(2);
        }
        let workloads = if sname == "full" {
            workload::suite()
        } else {
            workload::quick_suite()
        };
        let runner = Runner::new(workloads, warmup, instrs).with_suite_name(sname);
        eprintln!(
            "suite {}: {} workloads [{}]",
            sname,
            runner.len(),
            runner.names().join(", ")
        );
        let suite = runner.run_suite(&cfg, "fdip-run");
        println!(
            "{:<12} {:>8} {:>12} {:>10} {:>14}",
            "workload", "IPC", "branch MPKI", "L1I MPKI", "starvation/KI"
        );
        for w in &suite.workloads {
            println!(
                "{:<12} {:>8.4} {:>12.2} {:>10.2} {:>14.1}",
                w.name,
                w.stats.ipc(),
                w.stats.branch_mpki(),
                w.stats.l1i_mpki(),
                w.stats.starvation_pki()
            );
        }
        println!("geomean IPC  {:>8.4}", suite.geomean_ipc());
        if let Some(path) = &json_path {
            emit_json(&suite, path);
        }
        return;
    }

    let name = name.unwrap_or_else(|| "server_a".to_string());
    let wl = workload::suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}' (try --list-workloads)");
            std::process::exit(2);
        });
    let program = wl.build();
    eprintln!(
        "workload {}: {} KB code, {} static branches",
        program.name(),
        program.image().footprint_bytes() / 1024,
        program.static_branch_count()
    );

    let t0 = Instant::now();
    let (s, dists) = match &trace_path {
        Some(path) => {
            let (s, dists, tracer) =
                run_workload_traced(&cfg, &program, warmup, instrs, trace_limit);
            let trace = tracer.to_chrome_trace(&STALL_REASON_NAMES);
            if let Err(e) = std::fs::write(path, trace.to_string()) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote {path} ({} events, {} dropped)",
                tracer.len(),
                tracer.dropped()
            );
            (s, dists)
        }
        None => run_workload_detailed(&cfg, &program, warmup, instrs),
    };
    if let Some(path) = &json_path {
        let mut manifest =
            RunManifest::new("fdip-run", &format!("workload:{name}"), warmup, instrs, 1);
        manifest.wall_seconds = t0.elapsed().as_secs_f64();
        let suite = SuiteResult {
            manifest,
            workloads: vec![WorkloadResult {
                name: name.clone(),
                family: wl.family.to_string(),
                stats: s,
                dists,
            }],
        };
        emit_json(&suite, path);
    }
    print_stats(&s);
}

fn print_stats(s: &SimStats) {
    println!("cycles               {:>12}", s.cycles);
    println!("instructions         {:>12}", s.retired);
    println!("IPC                  {:>12.4}", s.ipc());
    println!("branches             {:>12}", s.retired_branches);
    println!("branch MPKI          {:>12.2}", s.branch_mpki());
    println!(
        "  cond-dir / undetected / indirect / return  {} / {} / {} / {}",
        s.misp_cond_dir, s.misp_undetected, s.misp_indirect, s.misp_return
    );
    println!("L1I MPKI             {:>12.2}", s.l1i_mpki());
    println!("I$ tag accesses/KI   {:>12.1}", s.icache_tag_pki());
    println!("starvation cyc/KI    {:>12.1}", s.starvation_pki());
    println!("avg FTQ occupancy    {:>12.1}", s.avg_ftq_occupancy());
    println!(
        "PFC restreams        {:>12}  (case1 {}, case2 {}, harmful {})",
        s.pfc_restreams, s.pfc_case1, s.pfc_case2, s.pfc_harmful
    );
    println!("history fixups       {:>12}", s.fixup_flushes);
    println!(
        "miss exposure        covered {} / partial {} / full {} (exposed {:.0}%)",
        s.miss_covered,
        s.miss_partial,
        s.miss_full,
        100.0 * s.exposed_fraction()
    );
    println!(
        "prefetch             {} candidates, {} fills, {} useful, {} dropped",
        s.prefetch_candidates,
        s.l1i.prefetch_fills,
        s.l1i.useful_prefetches,
        s.l1i.prefetch_dropped
    );
    let pct = |r: StallReason| {
        if s.cycles == 0 {
            0.0
        } else {
            100.0 * s.stall.get(r) as f64 / s.cycles as f64
        }
    };
    println!(
        "cycle accounting     commit {:.1}% / backend {:.1}% / fetch-bw {:.1}% / i$-miss {:.1}%",
        pct(StallReason::Committing),
        pct(StallReason::Backend),
        pct(StallReason::FetchBw),
        pct(StallReason::IcacheMiss)
    );
    println!(
        "                     ftq-empty {:.1}% / pred-lat {:.1}% / redirect {:.1}% / pfc {:.1}%",
        pct(StallReason::FtqEmpty),
        pct(StallReason::PredLatency),
        pct(StallReason::Redirect),
        pct(StallReason::PfcRestream)
    );
    println!(
        "frontend-bound       {:>11.1}%",
        100.0 * s.frontend_bound_fraction()
    );
    let o = &s.l1i.outcomes_pf;
    println!(
        "pf outcomes          timely {} / late {} / evicted {} / replaced {} / dropped {} (acc {:.2}, cov {:.2})",
        o.timely, o.late, o.useless_evicted, o.useless_replaced, o.dropped,
        s.pf_accuracy(), s.pf_coverage()
    );
    let o = &s.l1i.outcomes_fdp;
    println!(
        "fdp outcomes         timely {} / late {} / evicted {} / replaced {} (acc {:.2})",
        o.timely,
        o.late,
        o.useless_evicted,
        o.useless_replaced,
        s.fdp_accuracy()
    );
    println!("BTB hit rate         {:>12.3}", s.btb_hit_rate());
    println!("DRAM accesses        {:>12}", s.traffic.dram_accesses);
}
