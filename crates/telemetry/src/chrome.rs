//! Chrome `trace_event` documents: the one writer behind both trace
//! files (`fdip-run --trace` and `fdip-serve --trace-dir`,
//! `docs/METRICS.md` Document 4).

use crate::Json;

/// One timed event of a Chrome trace: a complete slice (`ph:"X"`) when
/// `dur` is set, a thread-scoped instant (`ph:"i"`) otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Track: an index into the track names given to [`chrome_trace`].
    pub tid: u64,
    /// Timestamp in µs of trace time.
    pub ts: u64,
    /// Slice duration in µs; `None` for an instant.
    pub dur: Option<u64>,
    /// Per-event payload; `None` omits the `args` key.
    pub args: Option<Json>,
}

/// Builds a Chrome `trace_event` document (loadable in Perfetto): a
/// `thread_name` record per entry of `tracks`, whose index is its `tid`,
/// then `events` stably sorted by `ts`, all under pid 0, then `metadata`.
pub fn chrome_trace(
    tracks: &[&str],
    events: &[ChromeEvent],
    tool: &str,
    clock: &str,
    dropped_events: u64,
    ring_capacity: u64,
) -> Json {
    let mut out: Vec<Json> = (0u64..)
        .zip(tracks)
        .map(|(tid, name)| {
            Json::obj()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 0u64)
                .with("tid", tid)
                .with("args", Json::obj().with("name", *name))
        })
        .collect();
    let mut sorted: Vec<&ChromeEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts);
    for e in sorted {
        let mut j = Json::obj().with("name", e.name.as_str());
        match e.dur {
            Some(dur) => j.set("ph", "X").set("ts", e.ts).set("dur", dur),
            None => j.set("ph", "i").set("ts", e.ts),
        };
        j.set("pid", 0u64).set("tid", e.tid);
        if e.dur.is_none() {
            j.set("s", "t");
        }
        if let Some(args) = &e.args {
            j.set("args", args.clone());
        }
        out.push(j);
    }
    Json::obj()
        .with("traceEvents", Json::Arr(out))
        .with("displayTimeUnit", "ms")
        .with(
            "metadata",
            Json::obj()
                .with("tool", tool)
                .with("clock", clock)
                .with("dropped_events", dropped_events)
                .with("ring_capacity", ring_capacity),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u64, ts: u64, dur: Option<u64>) -> ChromeEvent {
        ChromeEvent {
            name: name.to_string(),
            tid,
            ts,
            dur,
            args: None,
        }
    }

    #[test]
    fn names_tracks_then_sorts_events_stably_under_pid_zero() {
        let events = [
            event("late", 1, 9, Some(2)),
            event("first", 0, 3, None),
            event("second", 1, 3, Some(1)),
        ];
        let doc = chrome_trace(&["a", "b"], &events, "t", "c", 4, 8);
        let out = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |i: usize, k: &str| out[i].get(k).cloned();
        let names: Vec<_> = (0..5).map(|i| field(i, "name").unwrap()).collect();
        assert_eq!(
            names,
            ["thread_name", "thread_name", "first", "second", "late"].map(Json::from)
        );
        assert_eq!(field(1, "args"), Some(Json::obj().with("name", "b")));
        assert!(out.iter().all(|e| e.get("pid") == Some(&Json::Int(0))));
        assert_eq!(field(2, "ph"), Some(Json::from("i")));
        assert_eq!(field(2, "s"), Some(Json::from("t")));
        assert_eq!(field(3, "ph"), Some(Json::from("X")));
        assert_eq!((field(3, "dur"), field(3, "s")), (Some(Json::Int(1)), None));
        assert_eq!(field(4, "args"), None);
        let meta = doc.get("metadata").unwrap();
        assert_eq!(meta.get("dropped_events"), Some(&Json::Int(4)));
    }
}
