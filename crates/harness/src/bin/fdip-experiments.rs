//! Command-line driver: regenerate the paper's tables and figures.
//!
//! ```text
//! fdip-experiments all            # every experiment, paper order
//! fdip-experiments fig7 fig8     # a subset
//! fdip-experiments --list        # show ids
//! fdip-experiments --json results.json all
//! fdip-experiments --jobs 4 all  # bound the worker pool
//! fdip-experiments --server 127.0.0.1:7070 all  # route grids to fdip-serve
//! ```
//!
//! Scale via `FDIP_INSTRS`, `FDIP_WARMUP`, `FDIP_SUITE=quick|full`;
//! parallelism via `--jobs <n>` (or `FDIP_JOBS=<n>`, default: available
//! cores). Every selected experiment flattens its config × workload grid
//! into jobs on one shared worker pool, so distinct experiments overlap;
//! reports are still printed in selection order and are byte-identical
//! for any worker count. `--json <path>` (or `FDIP_JSON=<path>`)
//! additionally writes every report — metrics and tables — as one
//! versioned JSON document (schema: `docs/METRICS.md`) whose manifest
//! carries the pool telemetry block.

#![expect(
    clippy::disallowed_types,
    reason = "progress and wall-clock reporting only; never enters results"
)]

use fdip_harness::experiments;
use fdip_harness::{experiments_json, Report, Runner};
use fdip_telemetry::{RunManifest, ToJson};
use std::io::Write;
use std::time::Instant;

fn main() {
    // CLI runs mirror structured log records (e.g. the remote-fallback
    // warning) to stderr; in-process library users keep it quiet.
    fdip_obs::log::logger().set_stderr(true);
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = std::env::var("FDIP_JSON").ok().filter(|p| !p.is_empty());
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if i + 1 >= args.len() {
            eprintln!("--json needs a path");
            std::process::exit(2);
        }
        json_path = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut server = std::env::var("FDIP_SERVER").ok().filter(|a| !a.is_empty());
    if let Some(i) = args.iter().position(|a| a == "--server") {
        if i + 1 >= args.len() {
            eprintln!("--server needs an address (host:port)");
            std::process::exit(2);
        }
        server = Some(args.remove(i + 1));
        args.remove(i);
    }
    // --jobs must be handled before anything touches the global pool.
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        if i + 1 >= args.len() {
            eprintln!("--jobs needs a count");
            std::process::exit(2);
        }
        let n: usize = args.remove(i + 1).parse().unwrap_or_else(|_| {
            eprintln!("--jobs needs a positive integer");
            std::process::exit(2);
        });
        args.remove(i);
        fdip_exec::set_global_jobs(n);
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: fdip-experiments [--list] [--json <path>] [--jobs <n>] \
             [--server <host:port>] <all | fig1 tab3 tab4 fig6a fig6b fig7..fig14>"
        );
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for e in experiments::all() {
            println!("{:7} {}", e.id, e.title);
        }
        return;
    }

    let selected: Vec<_> = if args.iter().any(|a| a == "all") {
        experiments::all()
    } else {
        args.iter()
            .map(|id| {
                experiments::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{id}' (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let t0 = Instant::now();
    let mut runner = Runner::from_env();
    if let Some(addr) = &server {
        runner = runner.with_server(addr, "fdip-experiments");
        println!("server: {addr} (grids served remotely, local fallback)");
    }
    println!(
        "suite: {} workloads [{}], pool: {} workers\n",
        runner.len(),
        runner.names().join(", "),
        runner.pool().threads(),
    );

    // Run every selected experiment concurrently: each gets a submitter
    // thread that flattens its grid into jobs on the shared pool, so
    // configs from distinct experiments overlap on the same workers.
    // Results land in indexed slots and are printed in selection order.
    let mut slots: Vec<Option<(Report, f64)>> = Vec::new();
    slots.resize_with(selected.len(), || None);
    std::thread::scope(|scope| {
        for (slot, e) in slots.iter_mut().zip(&selected) {
            let runner = &runner;
            scope.spawn(move || {
                let t = Instant::now();
                let report = (e.run)(runner);
                *slot = Some((report, t.elapsed().as_secs_f64()));
            });
        }
    });

    let mut reports = Vec::new();
    for (e, slot) in selected.iter().zip(slots) {
        let (report, secs) = slot.expect("experiment thread completed");
        println!("### {} — {}", e.id, e.title);
        println!("{report}");
        println!("({} took {secs:.1}s)\n", e.id);
        reports.push(report);
    }
    println!("total {:.1}s", t0.elapsed().as_secs_f64());

    if let Some(path) = json_path {
        let mut manifest = RunManifest::new(
            "fdip-experiments",
            runner.suite_name(),
            runner.warmup(),
            runner.measure(),
            runner.len(),
        );
        manifest.wall_seconds = t0.elapsed().as_secs_f64();
        manifest.pool = Some(runner.pool().stats().to_json());
        let doc = experiments_json(&manifest, &reports);
        let write = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(doc.to_string_pretty().as_bytes()));
        if let Err(e) = write {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
