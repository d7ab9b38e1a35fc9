//! Validate a Chrome trace_event file (`docs/METRICS.md` Document 4)
//! with the in-repo JSON parser: the document must parse, carry a
//! non-empty `traceEvents` array holding at least one slice, put every
//! event under pid 0, and its event timestamps must be non-decreasing
//! (the writer sorts by `ts` so Perfetto and `chrome://tracing` never
//! see out-of-order events). `scripts/verify.sh` runs this on every
//! trace file it writes.
//!
//! ```text
//! cargo run --example check_trace -- trace.json
//! ```

use fdip_telemetry::Json;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: check_trace <trace.json>");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc =
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("no traceEvents array"));

    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut timed = 0u64;
    let mut slices = 0u64;
    for e in events {
        let phase = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("event without ph"));
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("event without name"));
        if e.get("pid").and_then(Json::as_u64) != Some(0) {
            fail(&format!("{name} event not under pid 0"));
        }
        if phase == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(&format!("{name} event without numeric ts")));
        if ts < last_ts {
            fail(&format!("ts went backwards at {name}: {ts} < {last_ts}"));
        }
        last_ts = ts;
        timed += 1;
        if phase == "X" {
            slices += 1;
            if e.get("dur").and_then(Json::as_f64).is_none() {
                fail(&format!("{name} slice without numeric dur"));
            }
        }
        *counts.entry(name.to_string()).or_default() += 1;
    }
    if timed == 0 {
        fail("trace holds no timestamped events");
    }
    if slices == 0 {
        fail("trace holds no slices");
    }
    for (name, n) in &counts {
        println!("{name:<24} {n}");
    }
    println!("ok: {timed} events, monotonic ts");
}
