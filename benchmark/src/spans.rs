//! In-memory span recording around the benchmark's calls into each
//! layer, self-time folding, and Chrome `trace_event` export.
//!
//! Spans are recorded on the benchmark's own thread only, so siblings
//! never overlap and the self times of a round's spans add up to the
//! round's duration.

use std::collections::BTreeMap;
use std::time::Instant;

use fdip_telemetry::Json;

/// Spans kept per run; later spans are counted as dropped.
const CAPACITY: usize = 1 << 17;

/// No parent / not recorded.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Index of the timed operation the span belongs to.
    pub op: u32,
}

/// A span recorder; disabled recorders ignore every call.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
    op: u32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { CAPACITY } else { 0 }),
            stack: Vec::with_capacity(16),
            dropped: 0,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` and any span still open inside it (a panic
    /// unwinding through a round leaves some open); a no-op for [`NONE`].
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Marks the start of the next timed operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome `trace_event` document of every recorded span.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let mut events = vec![Json::obj()
            .with("name", "thread_name")
            .with("ph", "M")
            .with("pid", 1u64)
            .with("tid", 1u64)
            .with("args", Json::obj().with("name", "benchmark"))];
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = Json::obj().with("id", id).with("op", u64::from(s.op));
            if s.parent != NONE {
                args.set("parent", u64::from(s.parent));
            }
            events.push(
                Json::obj()
                    .with("name", s.name)
                    .with("cat", layer)
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .with("args", args),
            );
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ms")
            .with(
                "metadata",
                Json::obj()
                    .with("tool", "fdip-benchmark")
                    .with("workload", workload)
                    .with(
                        "clock",
                        "wall-clock microseconds since the traced phase began",
                    )
                    .with("dropped_spans", self.dropped),
            )
    }
}

/// Self time of every span: its duration minus the part of it covered
/// by its direct children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total duration of the root spans (those without a parent).
    fn root_time_ns(spans: &[Span]) -> u64 {
        spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100] > mid [10,60] > leaf [20,50]
        let spans = [
            span("root", 0, 100, NONE),
            span("mid", 10, 60, 0),
            span("leaf", 20, 50, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.values().sum::<u64>(), root_time_ns(&spans));
    }

    #[test]
    fn back_to_back_and_overlapping_children_are_covered_once() {
        // Back to back: [0,5] and [5,10] cover the whole parent.
        let spans = [
            span("p", 0, 10, NONE),
            span("a", 0, 5, 0),
            span("b", 5, 10, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 5, 5]);
        // Overlapping and overhanging children cover [2,10] of [0,10].
        let spans = [
            span("p", 0, 10, NONE),
            span("a", 2, 6, 0),
            span("b", 4, 9, 0),
            span("c", 8, 12, 0),
        ];
        assert_eq!(self_times(&spans)[0], 2);
    }

    #[test]
    fn recorder_nests_by_stack_and_exports_parseable_json() {
        let mut rec = Spans::new(true);
        let round = rec.begin("bench.round");
        let op = rec.begin("bench.op");
        let call = rec.begin("core.run");
        rec.end(call);
        rec.end(op);
        rec.next_op();
        let check = rec.begin("bench.check");
        rec.end(check);
        rec.end(round);
        let s = rec.spans();
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [NONE, 0, 1, 0]
        );
        assert_eq!(s[3].op, 1);
        let text = rec.to_chrome_trace("single").to_string();
        let parsed = Json::parse(&text).expect("trace parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 5);

        let mut off = Spans::new(false);
        assert_eq!(off.begin("bench.op"), NONE);
        off.end(NONE);
        assert!(off.spans().is_empty());
    }
}
