//! Structured, leveled, target-tagged logging.
//!
//! Every record is one JSON object — `seq`, `ts_ms`, `level`,
//! `target`, `msg`, `fields` — so log output is machine-parseable line
//! by line (Document 9 of `docs/METRICS.md` specifies the shape). A
//! process has one global [`Logger`] holding:
//!
//! * a **filter** parsed from the `FDIP_LOG` spec
//!   (`serve=debug,exec=info`, or just `debug`), changeable at runtime;
//! * a bounded in-memory **ring** of the most recent records
//!   ([`RING_CAPACITY`]), which `fdip-serve` exposes at `GET /v1/logs`;
//! * optional **sinks**: stderr (one JSON line per record) and a file
//!   with size-triggered rename rotation (`path` → `path.1`).
//!
//! Filtering happens before a record is built, so a disabled call site
//! costs one level comparison and no allocation.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use fdip_telemetry::Json;

use crate::clock;

/// Records kept in the in-memory ring served at `GET /v1/logs`.
pub const RING_CAPACITY: usize = 1024;

/// Log severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Very fine-grained tracing of control flow.
    Trace,
    /// Diagnostic detail useful when chasing a problem.
    Debug,
    /// Normal operational events (startup, grid served, resume).
    Info,
    /// Something surprising that the process recovered from.
    Warn,
    /// An operation failed.
    Error,
}

impl Level {
    /// Lowercase wire name (`trace` … `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a lowercase level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A threshold: `None` means the target is off entirely.
type Threshold = Option<Level>;

/// Parses a level-or-off token.
fn parse_threshold(s: &str) -> Option<Threshold> {
    if s == "off" {
        return Some(None);
    }
    Level::parse(s).map(Some)
}

/// The parsed form of an `FDIP_LOG` spec.
#[derive(Clone, Debug)]
struct Filter {
    default: Threshold,
    targets: Vec<(String, Threshold)>,
}

impl Filter {
    /// Parses a spec: comma-separated clauses, each `target=level`, a
    /// bare level (setting the default), or a bare target (enabled at
    /// `trace`). Unknown clauses are ignored, so a typo degrades to
    /// the default rather than panicking inside a logging call.
    fn parse(spec: &str) -> Filter {
        let mut f = Filter {
            default: Some(Level::Info),
            targets: Vec::new(),
        };
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some((target, level)) = clause.split_once('=') {
                if let Some(th) = parse_threshold(level.trim()) {
                    f.targets.push((target.trim().to_string(), th));
                }
            } else if let Some(th) = parse_threshold(clause) {
                f.default = th;
            } else {
                f.targets.push((clause.to_string(), Some(Level::Trace)));
            }
        }
        f
    }

    /// Would a record at `level` for `target` pass this filter?
    fn enabled(&self, level: Level, target: &str) -> bool {
        let threshold = self
            .targets
            .iter()
            .find(|(t, _)| t == target)
            .map_or(self.default, |(_, th)| *th);
        threshold.is_some_and(|th| level >= th)
    }
}

/// One structured log record (Document 9 of `docs/METRICS.md`).
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Monotonic per-process sequence number, starting at 1.
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem tag (`serve`, `exec`, `harness`, …).
    pub target: String,
    /// Human-readable event description, stable enough to grep.
    pub msg: String,
    /// Structured payload: named JSON values.
    pub fields: Vec<(String, Json)>,
}

impl LogRecord {
    /// The one-object-per-line JSON form.
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields.set(k, v.clone());
        }
        Json::obj()
            .with("seq", self.seq)
            .with("ts_ms", self.ts_ms)
            .with("level", self.level.as_str())
            .with("target", self.target.as_str())
            .with("msg", self.msg.as_str())
            .with("fields", fields)
    }
}

/// A filtered page of the ring, as returned by [`Logger::recent`].
#[derive(Clone, Debug)]
pub struct LogsPage {
    /// Matching records in ascending `seq` order.
    pub records: Vec<LogRecord>,
    /// Records ever evicted from the ring (ring overflow, not filter).
    pub dropped: u64,
    /// Pass this as the next `since` to poll for newer records.
    pub next_since: u64,
}

struct Ring {
    buf: VecDeque<LogRecord>,
    dropped: u64,
}

struct FileSink {
    path: PathBuf,
    file: std::fs::File,
    written: u64,
    rotate_bytes: u64,
}

impl FileSink {
    /// Appends one line, rotating first (`path` → `path.1`, then a
    /// fresh file — rename keeps the swap atomic for readers following
    /// the rotated name) when the line would push the file past the
    /// rotation threshold.
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let add = line.len() as u64 + 1;
        if self.written > 0 && self.written + add > self.rotate_bytes {
            self.file.flush()?;
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            std::fs::rename(&self.path, PathBuf::from(rotated))?;
            self.file = std::fs::File::create(&self.path)?;
            self.written = 0;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.written += add;
        Ok(())
    }
}

/// The process-wide structured logger; obtain it via [`logger`].
pub struct Logger {
    filter: Mutex<Filter>,
    ring: Mutex<Ring>,
    seq: AtomicU64,
    stderr: AtomicBool,
    file: Mutex<Option<FileSink>>,
}

impl Logger {
    fn new(spec: &str) -> Logger {
        Logger {
            filter: Mutex::new(Filter::parse(spec)),
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(RING_CAPACITY.min(64)),
                dropped: 0,
            }),
            seq: AtomicU64::new(0),
            stderr: AtomicBool::new(false),
            file: Mutex::new(None),
        }
    }

    /// Replaces the filter with one parsed from `spec` (the `--log`
    /// flag / `FDIP_LOG` syntax).
    pub fn set_filter_spec(&self, spec: &str) {
        *self.filter.lock().expect("log filter lock") = Filter::parse(spec);
    }

    /// Turns the stderr sink (one JSON line per record) on or off.
    pub fn set_stderr(&self, on: bool) {
        self.stderr.store(on, Ordering::Relaxed);
    }

    /// Attaches (or replaces) the file sink. The file is created if
    /// missing and appended to otherwise; once it would exceed
    /// `rotate_bytes`, it is renamed to `<path>.1` and restarted.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened.
    pub fn set_file(&self, path: PathBuf, rotate_bytes: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        *self.file.lock().expect("log file lock") = Some(FileSink {
            path,
            file,
            written,
            rotate_bytes: rotate_bytes.max(1),
        });
        Ok(())
    }

    /// Would a record at `level` for `target` be accepted right now?
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter
            .lock()
            .expect("log filter lock")
            .enabled(level, target)
    }

    /// Emits one record (if the filter accepts it): into the ring and
    /// every active sink. Sink I/O errors are swallowed — logging must
    /// never take the daemon down.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Json)]) {
        if !self.enabled(level, target) {
            return;
        }
        let record = LogRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_ms: clock::unix_now_millis(),
            level,
            target: target.to_string(),
            msg: msg.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        };
        let line = record.to_json().to_string();
        if self.stderr.load(Ordering::Relaxed) {
            eprintln!("{line}");
        }
        if let Some(sink) = self.file.lock().expect("log file lock").as_mut() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "telemetry sink write; observability must never take down the \
                          simulation, and the record still reaches the ring below"
            )]
            let _ = sink.write_line(&line);
        }
        let mut ring = self.ring.lock().expect("log ring lock");
        ring.buf.push_back(record);
        while ring.buf.len() > RING_CAPACITY {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
    }

    /// Returns ring records with `seq > since` that match the optional
    /// level/target filters — the **most recent** `limit` of them, in
    /// ascending `seq` order (tail semantics).
    pub fn recent(
        &self,
        since: u64,
        min_level: Option<Level>,
        target: Option<&str>,
        limit: usize,
    ) -> LogsPage {
        let ring = self.ring.lock().expect("log ring lock");
        let mut records: Vec<LogRecord> = ring
            .buf
            .iter()
            .filter(|r| r.seq > since)
            .filter(|r| min_level.is_none_or(|l| r.level >= l))
            .filter(|r| target.is_none_or(|t| r.target == t))
            .cloned()
            .collect();
        if records.len() > limit {
            records.drain(..records.len() - limit);
        }
        LogsPage {
            records,
            dropped: ring.dropped,
            next_since: self.seq.load(Ordering::Relaxed),
        }
    }
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// The process-wide logger, created on first use with the filter from
/// the `FDIP_LOG` environment variable (default `info`), no stderr
/// sink, and no file sink.
pub fn logger() -> &'static Logger {
    LOGGER.get_or_init(|| Logger::new(std::env::var("FDIP_LOG").as_deref().unwrap_or("info")))
}

/// Emits one record through the global [`logger`].
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, Json)]) {
    logger().log(level, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_spec_parses_defaults_targets_and_off() {
        let f = Filter::parse("serve=debug,exec=off,warn");
        assert!(f.enabled(Level::Debug, "serve"));
        assert!(!f.enabled(Level::Trace, "serve"));
        assert!(!f.enabled(Level::Error, "exec"));
        assert!(f.enabled(Level::Warn, "other"));
        assert!(!f.enabled(Level::Info, "other"));
        // A bare target enables it fully; junk is ignored.
        let f = Filter::parse("harness, =nope, bogus=level");
        assert!(f.enabled(Level::Trace, "harness"));
        assert!(f.enabled(Level::Info, "other"));
        assert!(!f.enabled(Level::Debug, "other"));
    }

    #[test]
    fn record_serializes_with_the_documented_keys() {
        let r = LogRecord {
            seq: 7,
            ts_ms: 123,
            level: Level::Info,
            target: "serve".to_string(),
            msg: "hello".to_string(),
            fields: vec![("grid_id".to_string(), Json::from("abc"))],
        };
        let j = r.to_json();
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("ts_ms").and_then(Json::as_u64), Some(123));
        assert_eq!(j.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(j.get("target").and_then(Json::as_str), Some("serve"));
        assert_eq!(j.get("msg").and_then(Json::as_str), Some("hello"));
        let fields = j.get("fields").expect("fields");
        assert_eq!(fields.get("grid_id").and_then(Json::as_str), Some("abc"));
        // One object per line: the compact form contains no newline.
        assert!(!j.to_string().contains('\n'));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let l = Logger::new("trace");
        for i in 0..(RING_CAPACITY as u64 + 50) {
            l.log(Level::Info, "t", "x", &[("i", Json::from(i))]);
        }
        let page = l.recent(0, None, None, usize::MAX);
        assert_eq!(page.records.len(), RING_CAPACITY);
        assert_eq!(page.dropped, 50);
        assert_eq!(page.records.first().unwrap().seq, 51);
        // `next_since` is the last `seq`: every record accepted.
        assert_eq!(page.next_since, RING_CAPACITY as u64 + 50);
    }

    #[test]
    fn recent_filters_by_seq_level_target_and_limit() {
        let l = Logger::new("trace");
        l.log(Level::Debug, "serve", "a", &[]);
        l.log(Level::Warn, "exec", "b", &[]);
        l.log(Level::Error, "serve", "c", &[]);
        l.log(Level::Info, "serve", "d", &[]);
        let page = l.recent(0, Some(Level::Warn), Some("serve"), 10);
        assert_eq!(page.records.len(), 1);
        assert_eq!(page.records[0].msg, "c");
        let page = l.recent(2, None, None, 10);
        assert_eq!(page.records.len(), 2);
        // Tail semantics: the most recent `limit`, ascending.
        let page = l.recent(0, None, None, 2);
        assert_eq!(page.records[0].msg, "c");
        assert_eq!(page.records[1].msg, "d");
    }

    #[test]
    fn filtered_out_records_cost_nothing_and_leave_no_trace() {
        let l = Logger::new("serve=info");
        l.log(Level::Debug, "serve", "quiet", &[]);
        l.log(Level::Info, "other", "default-level", &[]);
        let page = l.recent(0, None, None, 10);
        assert_eq!(page.records.len(), 1);
        assert_eq!(page.records[0].msg, "default-level");
        assert_eq!((page.dropped, page.next_since), (0, 1));
    }

    #[test]
    fn file_sink_rotates_by_rename() {
        let dir = std::env::temp_dir().join(format!("fdip-obs-log-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.log");
        let l = Logger::new("trace");
        l.set_file(path.clone(), 200).unwrap();
        for i in 0..20u64 {
            l.log(
                Level::Info,
                "t",
                "padding-padding-padding",
                &[("i", Json::from(i))],
            );
        }
        let rotated = dir.join("daemon.log.1");
        assert!(rotated.exists(), "rotation must rename to .1");
        let live = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rotated).unwrap();
        assert!(live.len() as u64 <= 200);
        // Every line in both files is a parseable record.
        for line in live.lines().chain(old.lines()) {
            let j = Json::parse(line).expect("log line parses");
            assert!(j.get("seq").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
