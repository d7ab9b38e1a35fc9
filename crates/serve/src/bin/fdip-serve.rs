//! `fdip-serve` — run the sweep daemon, or poke one with `ctl`.
//!
//! ```text
//! fdip-serve [--addr 127.0.0.1:0] [--state-dir DIR] [--jobs N]
//!            [--max-grids N] [--grid-timeout-ms T] [--port-file PATH]
//!            [--trace-dir DIR] [--log SPEC] [--log-file PATH]
//! fdip-serve ctl <host:port> healthz|progress|telemetry|shutdown
//! fdip-serve ctl <host:port> metrics [--interval-ms N]
//! fdip-serve ctl <host:port> tail [--since N] [--level L] [--target T]
//!                                 [--limit N] [--follow]
//! ```
//!
//! The daemon prints its actual bound address on startup (and writes it
//! to `--port-file` when given, so scripts binding port 0 can find it)
//! and runs until a client posts `/v1/shutdown` — which `ctl shutdown`
//! does. `ctl` prints the endpoint's response and exits nonzero on any
//! non-200 status, so it doubles as a health probe.
//!
//! `ctl metrics` scrapes `/v1/metrics`, checks the scrape against the
//! in-repo exposition validator, and prints it; with `--interval-ms` it
//! scrapes twice and prints per-counter deltas instead. `ctl tail`
//! pages `/v1/logs`; `--follow` keeps polling with the returned cursor.
//! Log verbosity is set by `FDIP_LOG` (e.g. `serve=debug`) or `--log`,
//! which takes precedence; `--log-file` adds a rotating file sink and
//! `--trace-dir` dumps each grid's Chrome trace.

use std::path::PathBuf;
use std::time::Duration;

use fdip_harness::remote::{
    http_json_request, http_text_request, HEALTHZ_PATH, LOGS_PATH, METRICS_PATH, PROGRESS_PATH,
    SHUTDOWN_PATH, TELEMETRY_PATH,
};
use fdip_obs::expo;
use fdip_serve::{Server, ServerConfig};
use fdip_telemetry::Json;

fn usage() -> ! {
    eprintln!(
        "usage: fdip-serve [--addr <host:port>] [--state-dir <dir>] [--jobs <n>]\n\
         \x20                 [--max-grids <n>] [--grid-timeout-ms <ms>] [--port-file <path>]\n\
         \x20                 [--trace-dir <dir>] [--log <spec>] [--log-file <path>]\n\
         \x20      fdip-serve ctl <host:port> healthz|progress|telemetry|shutdown\n\
         \x20      fdip-serve ctl <host:port> metrics [--interval-ms <ms>]\n\
         \x20      fdip-serve ctl <host:port> tail [--since <seq>] [--level <level>]\n\
         \x20                                      [--target <target>] [--limit <n>] [--follow]"
    );
    std::process::exit(2);
}

/// Scrapes `/v1/metrics`, validating with the in-repo parser; returns
/// the text with what the validator parsed from it.
fn scrape(addr: &str) -> (String, expo::Scrape) {
    let (status, text) = http_text_request(addr, "GET", METRICS_PATH, None).unwrap_or_else(|e| {
        eprintln!("fdip-serve ctl: {addr}: {e}");
        std::process::exit(1);
    });
    if status != 200 {
        eprintln!("fdip-serve ctl: {addr}: {METRICS_PATH} returned {status}");
        std::process::exit(1);
    }
    match expo::validate(&text) {
        Ok(s) => (text, s),
        Err(e) => {
            eprintln!("fdip-serve ctl: {addr}: invalid exposition: {e}");
            std::process::exit(1);
        }
    }
}

/// `ctl metrics`: one validated scrape printed as-is, or — with
/// `--interval-ms` — two scrapes printed as per-family counter deltas.
fn ctl_metrics(addr: &str, rest: &[String]) -> ! {
    let mut interval_ms: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--interval-ms" => {
                interval_ms = it.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let (text, first) = scrape(addr);
    let Some(interval) = interval_ms else {
        print!("{text}");
        std::process::exit(0);
    };
    std::thread::sleep(Duration::from_millis(interval));
    let (_, second) = scrape(addr);
    println!("# counter deltas over {interval} ms");
    for (name, family) in &second.families {
        if family.kind != "counter" {
            continue;
        }
        let now = second.counter_total(name).unwrap_or(0);
        let before = first.counter_total(name).unwrap_or(0);
        if now < before {
            eprintln!("fdip-serve ctl: counter {name} went backwards ({before} -> {now})");
            std::process::exit(1);
        }
        println!("{name} +{}", now - before);
    }
    for (name, family) in &second.families {
        if family.kind != "histogram" {
            continue;
        }
        let now = second.histogram_count(name).unwrap_or(0);
        let before = first.histogram_count(name).unwrap_or(0);
        println!("{name}_count +{}", now.saturating_sub(before));
    }
    std::process::exit(0);
}

/// One `/v1/logs` page; prints records and returns the next cursor.
fn tail_page(
    addr: &str,
    since: u64,
    level: &Option<String>,
    target: &Option<String>,
    limit: u64,
) -> u64 {
    let mut path = format!("{LOGS_PATH}?since={since}&limit={limit}");
    if let Some(l) = level {
        path.push_str(&format!("&level={l}"));
    }
    if let Some(t) = target {
        path.push_str(&format!("&target={t}"));
    }
    let (status, body) = http_json_request(addr, "GET", &path, None).unwrap_or_else(|e| {
        eprintln!("fdip-serve ctl: {addr}: {e}");
        std::process::exit(1);
    });
    if status != 200 {
        eprintln!("fdip-serve ctl: {addr}: {}", body.to_string());
        std::process::exit(1);
    }
    for rec in body.get("logs").and_then(Json::as_arr).unwrap_or(&[]) {
        let s = |k: &str| rec.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let fields = rec
            .get("fields")
            .map(Json::to_string)
            .unwrap_or_else(|| "{}".to_string());
        println!(
            "{:>13} {:5} {:8} {} {}",
            rec.get("ts_ms").and_then(Json::as_u64).unwrap_or(0),
            s("level"),
            s("target"),
            s("msg"),
            fields
        );
    }
    body.get("next_since")
        .and_then(Json::as_u64)
        .unwrap_or(since)
}

/// `ctl tail`: page (or follow) the daemon's in-memory log ring.
fn ctl_tail(addr: &str, rest: &[String]) -> ! {
    let mut since = 0u64;
    let mut level: Option<String> = None;
    let mut target: Option<String> = None;
    let mut limit = 256u64;
    let mut follow = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--since" => since = value().parse().unwrap_or_else(|_| usage()),
            "--level" => level = Some(value()),
            "--target" => target = Some(value()),
            "--limit" => limit = value().parse().unwrap_or_else(|_| usage()),
            "--follow" => follow = true,
            _ => usage(),
        }
    }
    loop {
        since = tail_page(addr, since, &level, &target, limit);
        if !follow {
            std::process::exit(0);
        }
        std::thread::sleep(Duration::from_millis(1000));
    }
}

fn ctl(args: &[String]) -> ! {
    let (addr, verb, rest) = match args {
        [addr, verb, rest @ ..] => (addr.as_str(), verb.as_str(), rest),
        _ => usage(),
    };
    let (method, path) = match verb {
        "healthz" => ("GET", HEALTHZ_PATH),
        "progress" => ("GET", PROGRESS_PATH),
        "telemetry" => ("GET", TELEMETRY_PATH),
        "shutdown" => ("POST", SHUTDOWN_PATH),
        "metrics" => ctl_metrics(addr, rest),
        "tail" => ctl_tail(addr, rest),
        _ => usage(),
    };
    if !rest.is_empty() {
        usage();
    }
    match http_json_request(addr, method, path, None) {
        Ok((status, body)) => {
            println!("{}", body.to_string_pretty());
            std::process::exit(if status == 200 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("fdip-serve ctl: {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "ctl") {
        ctl(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }

    // The daemon mirrors structured log records to stderr; verbosity
    // comes from FDIP_LOG unless --log overrides it below.
    let logger = fdip_obs::log::logger();
    logger.set_stderr(true);

    let mut config = ServerConfig::new(PathBuf::from("fdip-serve-state"));
    let mut port_file: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--state-dir" => config.state_dir = PathBuf::from(value("--state-dir")),
            "--jobs" => match value("--jobs").parse() {
                Ok(n) => config.jobs = Some(n),
                Err(_) => {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--max-grids" => match value("--max-grids").parse() {
                Ok(n) => config.max_inflight_grids = n,
                Err(_) => {
                    eprintln!("--max-grids needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--grid-timeout-ms" => match value("--grid-timeout-ms").parse() {
                Ok(n) => config.grid_timeout_ms = n,
                Err(_) => {
                    eprintln!("--grid-timeout-ms needs a millisecond count");
                    std::process::exit(2);
                }
            },
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--trace-dir" => config.trace_dir = Some(PathBuf::from(value("--trace-dir"))),
            "--log" => logger.set_filter_spec(&value("--log")),
            "--log-file" => {
                let path = PathBuf::from(value("--log-file"));
                if let Err(e) = logger.set_file(path.clone(), 8 << 20) {
                    eprintln!("fdip-serve: cannot open log file {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            _ => usage(),
        }
    }

    let state_dir = config.state_dir.clone();
    let server = Server::spawn(config).unwrap_or_else(|e| {
        eprintln!("fdip-serve: cannot start: {e}");
        std::process::exit(1);
    });
    let addr = server.addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("fdip-serve: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    // One human-readable line for the operator; the structured record
    // behind it was emitted by Server::spawn ("daemon started").
    println!(
        "fdip-serve listening on {addr} (state: {})",
        state_dir.display()
    );
    server.join();
    println!("fdip-serve drained, exiting");
}
