//! Write-ahead checkpoint journal: one JSON record per line, flushed
//! per record, so a daemon killed mid-grid can resume on restart
//! without re-simulating completed cells.
//!
//! One record kind is written (`docs/SERVE.md` §"Checkpoint journal"):
//! `{"op": "grid_begin", "grid_id": …, "request": {…}}`, the full grid
//! request, written before any cell runs, and only by a grid that has a
//! cell to simulate or wait on.
//!
//! A grid's end removes its records: the log is compacted down to the
//! begin records of the grids still open, and truncated when none is,
//! so its size is bounded by the grids in flight, not by the grids
//! served. On open, the journal is replayed (grids whose begin record
//! is unreadable drop out, as do grids closed by a
//! `{"op": "grid_end", "grid_id": …}` record; a torn final line from a
//! kill mid-write is skipped, and so are the `cell_done` records older
//! daemons wrote) and compacted the same way. Cell-level progress needs
//! no replay bookkeeping: completed cells are found in the
//! content-addressed cache.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use fdip_telemetry::Json;

/// An append-only journal at `<state_dir>/journal.log`.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// `(grid_id, begin record)` of every grid begun and not yet ended,
    /// in begin order: exactly what a replay of the log would resume.
    open: Vec<(String, String)>,
}

/// One incomplete grid recovered from the journal: its id and the full
/// original request body.
#[derive(Clone, Debug)]
pub struct Incomplete {
    /// The grid's content-derived id.
    pub grid_id: String,
    /// The original `POST /v1/grid` request body.
    pub request: Json,
}

impl Journal {
    /// Opens the journal, replaying and compacting any existing log.
    /// Returns the journal plus the grids that began but never ended —
    /// in original submission order — for the caller to re-run.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the log cannot be read or rewritten.
    pub fn open(path: PathBuf) -> io::Result<(Journal, Vec<Incomplete>)> {
        let incomplete = match std::fs::read_to_string(&path) {
            Ok(text) => replay(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let open: Vec<(String, String)> = incomplete
            .iter()
            .map(|inc| {
                let record = begin_record(&inc.grid_id, &inc.request);
                (inc.grid_id.clone(), record)
            })
            .collect();
        let file = compact(&path, &open)?;
        Ok((Journal { path, file, open }, incomplete))
    }

    /// Records that a grid was accepted, before any of its cells run.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the record cannot be appended.
    pub fn grid_begin(&mut self, grid_id: &str, request: &Json) -> io::Result<()> {
        let record = begin_record(grid_id, request);
        writeln!(self.file, "{record}")?;
        self.file.flush()?;
        if !self.open.iter().any(|(id, _)| id == grid_id) {
            self.open.push((grid_id.to_string(), record));
        }
        Ok(())
    }

    /// Records that a grid's response was fully assembled, by dropping
    /// its records from the log: the log is rewritten to the begin
    /// records of the grids still open, or truncated when none is. As in
    /// a replay, one end closes every begin record of the grid id. A
    /// grid that was never journaled (every cell a cache hit) leaves the
    /// log alone.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the log cannot be truncated or rewritten.
    pub fn grid_end(&mut self, grid_id: &str) -> io::Result<()> {
        let before = self.open.len();
        self.open.retain(|(id, _)| id != grid_id);
        if self.open.len() == before {
            return Ok(());
        }
        if self.open.is_empty() {
            return self.file.set_len(0);
        }
        self.file = compact(&self.path, &self.open)?;
        Ok(())
    }
}

/// Atomically replaces the log at `path` with the given begin records
/// (`.log.tmp` + rename) and returns it reopened for appending.
fn compact(path: &Path, open: &[(String, String)]) -> io::Result<File> {
    let tmp = path.with_extension("log.tmp");
    {
        let mut f = File::create(&tmp)?;
        for (_, record) in open {
            writeln!(f, "{record}")?;
        }
    }
    std::fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

fn begin_record(grid_id: &str, request: &Json) -> String {
    Json::obj()
        .with("op", "grid_begin")
        .with("grid_id", grid_id)
        .with("request", request.clone())
        .to_string()
}

/// Replays a journal text into the incomplete grids, in begin order.
/// Unparseable lines (a torn tail from a kill mid-write) are skipped.
fn replay(text: &str) -> Vec<Incomplete> {
    let mut order: Vec<String> = Vec::new();
    let mut begun: Vec<(String, Json)> = Vec::new();
    let mut ended: Vec<String> = Vec::new();
    for line in text.lines() {
        let Ok(rec) = Json::parse(line) else {
            continue;
        };
        let Some(op) = rec.get("op").and_then(Json::as_str) else {
            continue;
        };
        let Some(grid_id) = rec.get("grid_id").and_then(Json::as_str) else {
            continue;
        };
        match op {
            "grid_begin" => {
                if let Some(request) = rec.get("request") {
                    if !order.iter().any(|g| g == grid_id) {
                        order.push(grid_id.to_string());
                        begun.push((grid_id.to_string(), request.clone()));
                    }
                }
            }
            "grid_end" => ended.push(grid_id.to_string()),
            _ => {}
        }
    }
    order
        .into_iter()
        .filter(|g| !ended.iter().any(|e| e == g))
        .filter_map(|g| {
            begun
                .iter()
                .find(|(id, _)| *id == g)
                .map(|(grid_id, request)| Incomplete {
                    grid_id: grid_id.clone(),
                    request: request.clone(),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdip-journal-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn req(tag: &str) -> Json {
        Json::obj().with("suite", tag)
    }

    #[test]
    fn ended_grids_do_not_replay() {
        let path = temp_log("ended");
        {
            let (mut j, inc) = Journal::open(path.clone()).unwrap();
            assert!(inc.is_empty());
            j.grid_begin("g1", &req("a")).unwrap();
            j.grid_end("g1").unwrap();
            j.grid_begin("g2", &req("b")).unwrap();
        }
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].grid_id, "g2");
        assert_eq!(inc[0].request, req("b"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_line_is_skipped_and_compaction_shrinks_the_log() {
        let path = temp_log("torn");
        {
            let (mut j, _) = Journal::open(path.clone()).unwrap();
            j.grid_begin("g1", &req("a")).unwrap();
            j.grid_end("g1").unwrap();
            j.grid_begin("g2", &req("b")).unwrap();
        }
        // Simulate a kill mid-write: a torn record at the tail.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"op\": \"cell_done\", \"grid").unwrap();
        drop(f);
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].grid_id, "g2");
        // Compacted: only g2's begin record remains.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("g2"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn ending_grids_keeps_only_the_open_begin_records() {
        let path = temp_log("bounded");
        let log = || std::fs::read_to_string(&path).unwrap();
        let (mut j, _) = Journal::open(path.clone()).unwrap();
        for _ in 0..3 {
            j.grid_begin("g1", &req("a")).unwrap();
            j.grid_begin("g2", &req("b")).unwrap();
            j.grid_end("g1").unwrap();
            assert_eq!(log().lines().count(), 1);
            assert!(log().contains("\"g2\""));
            j.grid_end("g2").unwrap();
            assert_eq!(log(), "");
            // Ending a grid that was never journaled is a no-op.
            j.grid_end("never-begun").unwrap();
        }
        // Records appended after a truncation replay as usual.
        j.grid_begin("g3", &req("c")).unwrap();
        drop(j);
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].grid_id, "g3");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn end_records_close_their_grid_on_replay() {
        let path = temp_log("endrec");
        std::fs::write(
            &path,
            "{\"op\":\"grid_begin\",\"grid_id\":\"g1\",\"request\":{}}\n\
             {\"op\":\"grid_end\",\"grid_id\":\"g1\"}\n",
        )
        .unwrap();
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert!(inc.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn cell_done_records_of_older_daemons_are_ignored() {
        let path = temp_log("celldone");
        std::fs::write(
            &path,
            "{\"op\":\"grid_begin\",\"grid_id\":\"g1\",\"request\":{}}\n\
             {\"op\":\"cell_done\",\"grid_id\":\"g1\",\"cell\":\"c1\"}\n",
        )
        .unwrap();
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].grid_id, "g1");
        // Compaction keeps only the begin record.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"op\":\"grid_begin\",\"grid_id\":\"g1\",\"request\":{}}\n"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn duplicate_begin_records_replay_once() {
        let path = temp_log("dup");
        {
            let (mut j, _) = Journal::open(path.clone()).unwrap();
            j.grid_begin("g1", &req("a")).unwrap();
            j.grid_begin("g1", &req("a")).unwrap();
        }
        let (_, inc) = Journal::open(path.clone()).unwrap();
        assert_eq!(inc.len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
