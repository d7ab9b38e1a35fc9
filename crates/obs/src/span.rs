//! Wall-clock lifecycle spans for the daemon, exported as Chrome
//! `trace_event` JSON.
//!
//! `fdip-trace` records *cycle-domain* events inside a simulation; this
//! module records the *wall-clock* life of a grid inside `fdip-serve`:
//! submit → classify → simulate → assemble → respond, with coalesce
//! and resume edges as instants. Both export through one writer,
//! [`fdip_telemetry::chrome_trace`], which sorts events by `ts` (a
//! slice is recorded when it ends), so a dump is a Document 4 trace
//! file (`docs/METRICS.md`) that opens in Perfetto/`chrome://tracing`.
//!
//! A [`SpanRecorder`] is created per grid, carries its own epoch
//! ([`crate::clock::Timer`]), and keeps at most [`SPAN_CAPACITY`]
//! events (earliest win — the interesting part of a runaway grid is
//! how it started). [`SpanRecorder::write`] dumps atomically via
//! tmp + rename, mirroring every other artifact writer in the repo.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use fdip_telemetry::{chrome_trace, ChromeEvent, Json};

use crate::clock::Timer;

/// Maximum events kept per recorder; later events are counted in
/// `metadata.dropped_events` instead of stored.
pub const SPAN_CAPACITY: usize = 16 * 1024;

/// Logical track (Chrome `tid`) an event belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Track {
    /// Grid-level lifecycle (submit, classify, assemble, respond).
    Grid = 0,
    /// Per-cell work (simulate slices, cache commits).
    Cells = 1,
}

/// Track names, indexed by [`Track`].
const TRACK_NAMES: [&str; 2] = ["grid lifecycle", "cells"];

struct Inner {
    events: Vec<ChromeEvent>,
    dropped: u64,
}

/// Records the wall-clock spans of one grid's lifecycle.
pub struct SpanRecorder {
    t0: Timer,
    inner: Mutex<Inner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A recorder whose epoch (`ts = 0`) is now.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            t0: Timer::start(),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Microseconds since the recorder's epoch — capture before a
    /// unit of work, pass to [`SpanRecorder::slice`] after it.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed_micros()
    }

    fn push(&self, track: Track, name: &str, ts: u64, dur: Option<u64>, args: Json) {
        let ev = ChromeEvent {
            name: name.to_string(),
            tid: track as u64,
            ts,
            dur,
            args: Some(args),
        };
        let mut inner = self.inner.lock().expect("span lock");
        if inner.events.len() >= SPAN_CAPACITY {
            inner.dropped += 1;
        } else {
            inner.events.push(ev);
        }
    }

    /// Records an instant (a point in time) on `track`, stamped now.
    pub fn instant(&self, track: Track, name: &str, args: Json) {
        self.push(track, name, self.now_us(), None, args);
    }

    /// Records a complete span on `track` from `start_us`
    /// (a prior [`SpanRecorder::now_us`]) until now.
    pub fn slice(&self, track: Track, name: &str, start_us: u64, args: Json) {
        let dur = self.now_us().saturating_sub(start_us);
        self.push(track, name, start_us, Some(dur), args);
    }

    /// Events recorded so far (for tests and capacity checks).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span lock").events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events rejected by the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("span lock").dropped
    }

    /// The Chrome `trace_event` document of both tracks, through
    /// [`chrome_trace`]: events in `ts` order, under pid 0.
    pub fn to_chrome_trace(&self) -> Json {
        let inner = self.inner.lock().expect("span lock");
        chrome_trace(
            &TRACK_NAMES,
            &inner.events,
            "fdip-serve",
            "wall-clock microseconds since grid submission",
            inner.dropped,
            SPAN_CAPACITY as u64,
        )
    }

    /// Writes the trace to `<dir>/grid-<grid_id>.json` atomically
    /// (tmp + rename), creating `dir` if needed.
    pub fn write(&self, dir: &Path, grid_id: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        // Grid ids are hex content hashes, but sanitize anyway so a
        // hostile id cannot escape the trace directory.
        let safe: String = grid_id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("grid-{safe}.json"));
        let tmp = dir.join(format!(".grid-{safe}.json.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_chrome_trace().to_string_pretty().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_carries_both_tracks_and_events_in_order() {
        let rec = SpanRecorder::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.instant(Track::Grid, "submit", Json::obj().with("cells", 4u64));
        // Recorded after `submit`, but it started first.
        rec.slice(Track::Cells, "simulate", 0, Json::obj().with("cell", 0u64));
        let doc = rec.to_chrome_trace();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 4); // 2 metas + 2 events
        let field = |i: usize, k: &str| events[i].get(k).and_then(Json::as_str);
        assert_eq!((field(0, "ph"), field(1, "ph")), (Some("M"), Some("M")));
        assert_eq!(field(2, "name"), Some("simulate"));
        assert_eq!(field(2, "ph"), Some("X"));
        assert_eq!(events[2].get("ts").and_then(Json::as_u64), Some(0));
        assert!(events[2].get("dur").is_some());
        assert_eq!(field(3, "name"), Some("submit"));
        assert_eq!(field(3, "ph"), Some("i"));
        assert_eq!(field(3, "s"), Some("t"));
        assert!(events[3].get("ts").and_then(Json::as_u64) >= Some(1_000));
        for e in events {
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(0));
        }
        let meta = doc.get("metadata").expect("metadata");
        assert_eq!(meta.get("tool").and_then(Json::as_str), Some("fdip-serve"));
        assert_eq!(meta.get("dropped_events").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn capacity_keeps_earliest_and_counts_drops() {
        let rec = SpanRecorder::new();
        for i in 0..(SPAN_CAPACITY + 10) {
            rec.instant(Track::Grid, "e", Json::obj().with("i", i as u64));
        }
        assert_eq!(rec.len(), SPAN_CAPACITY);
        assert_eq!(rec.dropped(), 10);
        let doc = rec.to_chrome_trace();
        let meta = doc.get("metadata").unwrap();
        assert_eq!(meta.get("dropped_events").and_then(Json::as_u64), Some(10));
    }

    #[test]
    fn write_dumps_atomically_and_sanitizes_ids() {
        let dir = std::env::temp_dir().join(format!("fdip-obs-span-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rec = SpanRecorder::new();
        rec.instant(Track::Grid, "submit", Json::obj());
        rec.write(&dir, "ab12/../evil").expect("write");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["grid-ab12----evil.json".to_string()]);
        let text = std::fs::read_to_string(dir.join(&entries[0])).unwrap();
        let parsed = Json::parse(&text).expect("valid json");
        assert!(parsed.get("traceEvents").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
