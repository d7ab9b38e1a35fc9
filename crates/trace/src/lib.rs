#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fdip-trace` — a fixed-capacity ring-buffer event sink for the
//! simulator, exportable as Chrome `trace_event` JSON.
//!
//! The tracer exists so a single simulated run can be inspected
//! cycle-by-cycle (in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev))
//! without touching the aggregate-counter path. Two design rules govern
//! everything here:
//!
//! 1. **Zero cost when disabled.** Every emit funnels through
//!    [`Tracer::record`], whose first statement is an inlined
//!    `if !self.enabled {{ return; }}` — a disabled tracer costs one
//!    predictable branch per emit site and allocates nothing
//!    ([`Tracer::disabled`] holds an empty `Vec`).
//! 2. **Bounded memory.** Events land in a ring of fixed capacity;
//!    once full, the *oldest* events are overwritten and counted in
//!    [`Tracer::dropped`], so tracing a long run keeps the tail.
//!
//! Events are plain `(cycle, kind, a, b)` quadruples — 32 bytes, no
//! heap — with the interpretation of `a`/`b` fixed per [`TraceEventKind`].
//! [`Tracer::to_chrome_trace`] turns the buffer into a Chrome
//! `trace_event` document through the workspace's one writer,
//! [`fdip_telemetry::chrome_trace`]: `StallTransition` pairs become
//! duration (`"X"`) slices on one track, everything else becomes instant
//! (`"i"`) events on a second track, with one simulated cycle mapped to
//! one microsecond of trace time.

use fdip_telemetry::{chrome_trace, ChromeEvent, Json};

/// What happened. The meaning of the generic payload words `a` and `b`
/// is listed per variant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A block entry entered the FTQ. `a` = start address, `b` = I-cache
    /// line number.
    FtqEnqueue = 0,
    /// The dedicated prefetcher issued a candidate line to the L1I.
    /// `a` = line number, `b` unused.
    PrefetchIssue = 1,
    /// A prefetch initiated a fill (passed the tag/MSHR checks).
    /// `a` = line number, `b` unused.
    PrefetchFill = 2,
    /// A demand fetch hit a line brought in by a prefetch. `a` = line
    /// number, `b` = bit 0: 1 = dedicated prefetcher, 0 = FDP fill;
    /// bit 1: the fill was still in flight (a *late* prefetch).
    PrefetchUse = 3,
    /// Post-fetch correction re-steered the prediction pipeline.
    /// `a` = branch PC, `b` = 1 if re-steered taken, 0 for a
    /// sequential history-fixup restream.
    Restream = 4,
    /// An execute-time misprediction flushed the pipeline. `a` = branch
    /// PC, `b` = correct next PC.
    Flush = 5,
    /// The per-cycle stall attribution changed bucket. `a` = new bucket
    /// index, `b` = previous bucket index (indices into the label table
    /// passed to [`Tracer::to_chrome_trace`]).
    StallTransition = 6,
}

impl TraceEventKind {
    /// Display name used for Chrome trace instant events.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::FtqEnqueue => "FtqEnqueue",
            TraceEventKind::PrefetchIssue => "PrefetchIssue",
            TraceEventKind::PrefetchFill => "PrefetchFill",
            TraceEventKind::PrefetchUse => "PrefetchUse",
            TraceEventKind::Restream => "Restream",
            TraceEventKind::Flush => "Flush",
            TraceEventKind::StallTransition => "StallTransition",
        }
    }
}

/// One recorded event: a cycle timestamp, a kind tag, and two payload
/// words interpreted per [`TraceEventKind`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// First payload word (see [`TraceEventKind`]).
    pub a: u64,
    /// Second payload word (see [`TraceEventKind`]).
    pub b: u64,
}

/// Fixed-capacity ring-buffer event sink.
///
/// # Examples
///
/// ```
/// use fdip_trace::{Tracer, TraceEventKind};
///
/// let mut t = Tracer::with_capacity(2);
/// t.record(10, TraceEventKind::Flush, 0x40, 0x80);
/// t.record(20, TraceEventKind::Flush, 0x44, 0x90);
/// t.record(30, TraceEventKind::Flush, 0x48, 0xa0); // overwrites cycle 10
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.dropped(), 1);
/// let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
/// assert_eq!(cycles, [20, 30]);
/// ```
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    buf: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    dropped: u64,
}

impl Tracer {
    /// A permanently-disabled tracer: no allocation, and every
    /// [`Tracer::record`] returns after one branch.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            capacity: 0,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// An enabled tracer keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Tracer {
        assert!(capacity > 0, "tracer capacity must be nonzero");
        Tracer {
            enabled: true,
            capacity,
            buf: Vec::with_capacity(capacity.min(1 << 16)),
            next: 0,
            dropped: 0,
        }
    }

    /// Is this tracer recording?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity in events (zero for a disabled tracer).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets all recorded events (capacity and enablement unchanged).
    /// The simulator calls this at the warm-up/measurement boundary so
    /// an exported trace covers only the measured interval.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }

    /// Records one event. The disabled fast path is a single inlined
    /// branch; the write itself is outlined so emit sites stay small.
    #[inline(always)]
    pub fn record(&mut self, cycle: u64, kind: TraceEventKind, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent { cycle, kind, a, b });
    }

    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Iterates the held events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.buf.split_at(self.next);
        head.iter().chain(tail.iter())
    }

    /// Exports the buffer through [`chrome_trace`], one simulated cycle
    /// per microsecond of `ts`: consecutive `StallTransition`s pair into
    /// slices named by `stall_labels[index]` on the "cycle attribution"
    /// track, and every other event is an instant on "frontend events".
    pub fn to_chrome_trace(&self, stall_labels: &[&str]) -> Json {
        let slice = |start: u64, end: u64, reason: u64| ChromeEvent {
            name: stall_labels
                .get(reason as usize)
                .unwrap_or(&"unknown-stall")
                .to_string(),
            tid: STALL_TRACK,
            ts: start,
            dur: Some(end - start),
            args: None,
        };
        let mut out = Vec::with_capacity(self.len() + 1);
        let mut open_stall: Option<(u64, u64)> = None;
        let first_cycle = self.events().next().map_or(0, |e| e.cycle);
        let mut last_cycle = first_cycle;
        for e in self.events() {
            last_cycle = last_cycle.max(e.cycle);
            let args = match e.kind {
                TraceEventKind::StallTransition => {
                    let (start, reason) = open_stall.unwrap_or((first_cycle, e.b));
                    if e.cycle > start {
                        out.push(slice(start, e.cycle, reason));
                    }
                    open_stall = Some((e.cycle, e.a));
                    continue;
                }
                TraceEventKind::FtqEnqueue => Json::obj().with("addr", e.a).with("line", e.b),
                TraceEventKind::PrefetchIssue | TraceEventKind::PrefetchFill => {
                    Json::obj().with("line", e.a)
                }
                TraceEventKind::PrefetchUse => Json::obj()
                    .with("line", e.a)
                    .with("source", if e.b & 1 == 1 { "prefetcher" } else { "fdp" })
                    .with("late", e.b & 2 != 0),
                TraceEventKind::Restream => Json::obj().with("pc", e.a).with("taken", e.b == 1),
                TraceEventKind::Flush => Json::obj().with("pc", e.a).with("target", e.b),
            };
            out.push(ChromeEvent {
                name: e.kind.name().to_string(),
                tid: EVENT_TRACK,
                ts: e.cycle,
                dur: None,
                args: Some(args),
            });
        }
        if let Some((start, reason)) = open_stall {
            if last_cycle > start {
                out.push(slice(start, last_cycle, reason));
            }
        }
        chrome_trace(
            &["cycle attribution", "frontend events"],
            &out,
            "fdip-run",
            "one simulated cycle = 1us of trace time",
            self.dropped,
            self.capacity as u64,
        )
    }
}

/// Chrome `tid` for the stall-attribution slice track.
const STALL_TRACK: u64 = 0;
/// Chrome `tid` for the instant-event track.
const EVENT_TRACK: u64 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(1, TraceEventKind::Flush, 2, 3);
        assert!(!t.enabled());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.capacity(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = Tracer::with_capacity(3);
        for c in 0..10u64 {
            t.record(c, TraceEventKind::PrefetchIssue, c, 0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, [7, 8, 9]);
    }

    #[test]
    fn clear_resets_contents_but_not_enablement() {
        let mut t = Tracer::with_capacity(2);
        t.record(1, TraceEventKind::Flush, 0, 0);
        t.record(2, TraceEventKind::Flush, 0, 0);
        t.record(3, TraceEventKind::Flush, 0, 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.enabled());
        t.record(4, TraceEventKind::Flush, 0, 0);
        assert_eq!(t.events().next().unwrap().cycle, 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Tracer::with_capacity(0);
    }

    #[test]
    fn chrome_export_pairs_stall_transitions_into_slices() {
        let labels = ["committing", "icache_miss", "ftq_empty"];
        let mut t = Tracer::with_capacity(16);
        // Attribution: committing [10,14), icache_miss [14,20), ftq_empty
        // [20,21) closed by the last event cycle.
        t.record(14, TraceEventKind::StallTransition, 1, 0);
        t.record(20, TraceEventKind::StallTransition, 2, 1);
        t.record(21, TraceEventKind::Flush, 0x40, 0x80);
        // The tracer only saw events from cycle 14, so the leading slice
        // starts there — shifted starts come from the clear() boundary.
        let doc = t.to_chrome_trace(&labels);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(
            slices[0].get("name").and_then(Json::as_str),
            Some("icache_miss")
        );
        assert_eq!(slices[0].get("ts").and_then(Json::as_u64), Some(14));
        assert_eq!(slices[0].get("dur").and_then(Json::as_u64), Some(6));
        assert_eq!(
            slices[1].get("name").and_then(Json::as_str),
            Some("ftq_empty")
        );
        assert_eq!(slices[1].get("dur").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn chrome_export_is_valid_json_with_monotonic_timestamps() {
        let mut t = Tracer::with_capacity(64);
        t.record(5, TraceEventKind::FtqEnqueue, 0x1000, 64);
        t.record(6, TraceEventKind::StallTransition, 1, 0);
        t.record(7, TraceEventKind::PrefetchIssue, 65, 0);
        t.record(7, TraceEventKind::PrefetchFill, 65, 0);
        t.record(9, TraceEventKind::StallTransition, 0, 1);
        t.record(12, TraceEventKind::PrefetchUse, 65, 3);
        t.record(13, TraceEventKind::Restream, 0x2000, 1);
        let doc = t.to_chrome_trace(&["a", "b"]);
        let round = Json::parse(&doc.to_string()).expect("export parses");
        let events = round.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 7);
        let mut last = 0u64;
        for e in events {
            let Some(ts) = e.get("ts").and_then(Json::as_u64) else {
                continue; // metadata events carry no ts
            };
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
        }
        let uses: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("PrefetchUse"))
            .collect();
        assert_eq!(uses.len(), 1);
        let args = uses[0].get("args").unwrap();
        assert_eq!(
            args.get("source").and_then(Json::as_str),
            Some("prefetcher")
        );
        assert_eq!(args.get("late").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn export_of_empty_tracer_is_well_formed() {
        let t = Tracer::with_capacity(4);
        let doc = t.to_chrome_trace(&[]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Only the two track-name metadata records.
        assert_eq!(events.len(), 2);
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
