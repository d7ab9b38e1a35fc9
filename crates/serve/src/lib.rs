#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fdip-serve` — sweep-as-a-service: a long-running daemon that accepts
//! config × workload grid submissions over a hand-rolled HTTP/1.1
//! protocol (`std::net` only), executes the cells on the shared
//! `fdip-exec` pool, and memoizes every cell in a content-addressed
//! on-disk cache so repeated sweeps — across clients and across daemon
//! restarts — never re-simulate.
//!
//! The moving parts:
//!
//! * [`http`] — request/response plumbing and the service error type;
//! * [`cache`] — the `<state_dir>/cache/` cell store, keyed by
//!   `fdip_harness::remote::cell_key`;
//! * [`journal`] — the write-ahead checkpoint log that makes a killed
//!   daemon resumable;
//! * [`scheduler`] — grid validation, admission control (bounded
//!   in-flight grids with 429 backpressure), cell classification
//!   (cache hit / coalesce onto an in-flight simulation / run), and
//!   response assembly;
//! * [`telemetry`] — the shared `fdip-obs` metrics registry behind both
//!   the Document 6 manifest (`GET /v1/telemetry`) and the Prometheus
//!   text exposition (`GET /v1/metrics`); structured logs are served at
//!   `GET /v1/logs` and grid traces dump to `--trace-dir`
//!   (`docs/OBSERVABILITY.md`).
//!
//! The wire protocol, cache-key derivation, and journal format are
//! specified in `docs/SERVE.md` and enforced bidirectionally by
//! `tests/serve_doc.rs`. The determinism contract holds end to end: a
//! grid served remotely (fresh, cached, or resumed) is byte-identical
//! to the same grid run locally once volatile manifest fields are
//! stripped, because the daemon runs the same `run_workload_job` and
//! the wire codec round-trips every counter and float exactly.

pub mod cache;
pub mod http;
pub mod journal;
pub mod scheduler;
pub mod telemetry;

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use fdip_exec::Pool;
use fdip_harness::remote::{
    GRID_PATH, HEALTHZ_PATH, LOGS_PATH, METRICS_PATH, PROGRESS_PATH, SHUTDOWN_PATH, TELEMETRY_PATH,
};
use fdip_obs::clock::Timer;
use fdip_obs::log::{self, Level};
use fdip_program::workload::Workload;
use fdip_program::Program;
use fdip_telemetry::{Json, SCHEMA_VERSION};

use cache::Cache;
use http::{read_request, write_reply, Reply, Request, ServeError};
use journal::Journal;
use telemetry::ServeTelemetry;

/// How long a slow or stalled client may take to send its request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon configuration; [`ServerConfig::new`] picks the defaults.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Root of the daemon's persistent state (`cache/`, `journal.log`).
    pub state_dir: PathBuf,
    /// Private worker-pool size; `None` shares the process-global pool.
    pub jobs: Option<usize>,
    /// Grids admitted concurrently before 429 backpressure kicks in.
    pub max_inflight_grids: usize,
    /// Largest accepted request body, in bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Wall-clock budget for one grid; a cell that would start beyond it
    /// is skipped and the client gets `408 timeout`.
    pub grid_timeout_ms: u64,
    /// Fault injection for the resume tests: after this many cells have
    /// been simulated (daemon-wide), stop cold — skip every cell not yet
    /// started and refuse new work — leaving the journal mid-grid.
    pub crash_after_cells: Option<u64>,
    /// When set, each grid's lifecycle spans are written there as a
    /// Chrome `trace_event` JSON file (`grid-<id>.json`).
    pub trace_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, shared global pool, 4
    /// in-flight grids, 8 MiB bodies, 10 min grid budget, no fault
    /// injection.
    pub fn new(state_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir,
            jobs: None,
            max_inflight_grids: 4,
            max_body_bytes: 8 << 20,
            grid_timeout_ms: 600_000,
            crash_after_cells: None,
            trace_dir: None,
        }
    }
}

/// Lifecycle gate: drain flag plus in-flight work accounting.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    pub(crate) draining: bool,
    pub(crate) inflight_grids: usize,
    pub(crate) connections: usize,
}

/// Coalescing state of one cell key across every in-flight grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Some grid is simulating this cell right now.
    Running,
    /// The cell's result reached the cache.
    Done,
    /// The owning grid skipped the cell or failed to cache it.
    Failed,
}

/// Externally visible progress of one grid (`GET /v1/progress`).
#[derive(Clone, Debug)]
pub(crate) struct GridProgress {
    pub(crate) state: &'static str,
    pub(crate) total_cells: u64,
    pub(crate) completed_cells: u64,
    pub(crate) cache_hits: u64,
}

/// One built workload: parameters, shared program image, content hash.
pub(crate) type BuiltWorkload = (Workload, Arc<Program>, u64);

/// Everything a connection or pool-job thread needs, behind one `Arc`.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) pool: Option<Arc<Pool>>,
    pub(crate) cache: Cache,
    pub(crate) journal: Mutex<Journal>,
    pub(crate) telemetry: ServeTelemetry,
    pub(crate) gate: Mutex<Gate>,
    pub(crate) gate_cv: Condvar,
    pub(crate) slots: Mutex<BTreeMap<String, SlotState>>,
    pub(crate) slots_cv: Condvar,
    pub(crate) progress: Mutex<BTreeMap<String, GridProgress>>,
    pub(crate) suites: Mutex<BTreeMap<String, Arc<Vec<BuiltWorkload>>>>,
    /// Set once by [`Shared::interrupt_all`]; every cell job that has not
    /// started yet skips its cell.
    pub(crate) interrupted: AtomicBool,
}

impl Shared {
    pub(crate) fn pool(&self) -> &Pool {
        self.pool.as_deref().unwrap_or_else(|| fdip_exec::global())
    }

    /// Enters drain mode: new grids are refused, in-flight grids finish,
    /// and the accept loop is woken (by a loopback connect) so it can
    /// stop accepting and wait the gate down to zero.
    pub(crate) fn begin_drain(&self) {
        {
            let mut gate = self.gate.lock().expect("gate lock");
            gate.draining = true;
        }
        self.gate_cv.notify_all();
        // Wake the accept loop if it is parked in accept().
        #[expect(
            clippy::let_underscore_must_use,
            reason = "self-connect only wakes the parked accept loop; failure means the \
                      listener is already gone, which is the goal"
        )]
        let _ = TcpStream::connect(self.addr);
    }

    /// The injected-crash path: like a kill, but in-process — every
    /// in-flight grid's cells not yet started are skipped (cells already
    /// on a worker finish and commit) and the daemon refuses further
    /// work. The journal keeps the interrupted grids' begin records,
    /// which is exactly what restart-resume consumes.
    pub(crate) fn interrupt_all(&self) {
        {
            let mut gate = self.gate.lock().expect("gate lock");
            gate.draining = true;
        }
        self.gate_cv.notify_all();
        // Release pairs with the Acquire load each cell job makes first.
        self.interrupted.store(true, Ordering::Release);
        // Take the accept loop down too — an interrupted daemon drains
        // and exits like a killed one, once in-flight handlers return.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "self-connect only wakes the parked accept loop; failure means the \
                      listener is already gone, which is the goal"
        )]
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon: accept loop plus journal-resume worker.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    resume_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the journal, and starts serving.
    ///
    /// Any grid the journal recorded as begun-but-not-ended is re-run in
    /// the background immediately (cells already in the cache are hits,
    /// so only the missing remainder simulates); clients that resubmit
    /// the same grid concurrently coalesce onto that work.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the state directory, journal, or listen
    /// socket cannot be set up.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let cache = Cache::open(config.state_dir.join("cache"))?;
        let (journal, incomplete) = Journal::open(config.state_dir.join("journal.log"))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = config.jobs.map(|n| Arc::new(Pool::new(n.max(1))));
        let shared = Arc::new(Shared {
            config,
            addr,
            pool,
            cache,
            journal: Mutex::new(journal),
            telemetry: ServeTelemetry::new(),
            gate: Mutex::new(Gate::default()),
            gate_cv: Condvar::new(),
            slots: Mutex::new(BTreeMap::new()),
            slots_cv: Condvar::new(),
            progress: Mutex::new(BTreeMap::new()),
            suites: Mutex::new(BTreeMap::new()),
            interrupted: AtomicBool::new(false),
        });

        log::info(
            "serve",
            "daemon started",
            &[
                ("addr", addr.to_string().as_str().into()),
                (
                    "state_dir",
                    shared
                        .config
                        .state_dir
                        .display()
                        .to_string()
                        .as_str()
                        .into(),
                ),
                ("incomplete_grids", (incomplete.len() as u64).into()),
            ],
        );
        let resume_thread = (!incomplete.is_empty()).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for inc in incomplete {
                    shared.telemetry.counters.journal_replays.inc();
                    log::info(
                        "serve",
                        "resuming journaled grid",
                        &[("grid_id", inc.grid_id.as_str().into())],
                    );
                    if let Err(e) = scheduler::handle_grid(&shared, &inc.request, true) {
                        log::warn(
                            "serve",
                            "resume stopped",
                            &[
                                ("grid_id", inc.grid_id.as_str().into()),
                                ("code", e.code.into()),
                                ("message", e.message.as_str().into()),
                            ],
                        );
                        // Only validation answers 400: a request that fails
                        // it never completes, so close it for good.
                        if e.status == 400 {
                            if let Err(e) = shared
                                .journal
                                .lock()
                                .expect("journal lock")
                                .grid_end(&inc.grid_id)
                            {
                                log::warn(
                                    "serve",
                                    "journal write failed",
                                    &[("error", e.to_string().as_str().into())],
                                );
                            }
                        }
                    }
                }
            })
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            resume_thread,
        })
    }

    /// The actual bound address (resolves an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon drains (a client posted `/v1/shutdown`,
    /// or [`Server::stop`] was called from another thread).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Initiates a graceful drain and blocks until in-flight work
    /// finishes: the equivalent of posting `/v1/shutdown` in-process.
    pub fn stop(mut self) {
        self.shared.begin_drain();
        self.join_threads();
    }

    #[expect(
        clippy::let_underscore_must_use,
        reason = "drain/Drop joins the accept and resume threads; a panic there has already \
                  surfaced via the journal and e2e asserts"
    )]
    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.resume_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    /// A dropped handle still shuts the daemon down cleanly.
    fn drop(&mut self) {
        self.shared.begin_drain();
        self.join_threads();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if shared.gate.lock().expect("gate lock").draining {
            break;
        }
        shared.gate.lock().expect("gate lock").connections += 1;
        let guard = ConnectionGuard(Arc::clone(shared));
        std::thread::spawn(move || handle_connection(&guard.0, stream));
    }
    // Refuse new connections while the drain completes.
    drop(listener);
    let gate = shared.gate.lock().expect("gate lock");
    let _drained = shared
        .gate_cv
        .wait_while(gate, |g| g.inflight_grids > 0 || g.connections > 0)
        .expect("gate lock");
}

/// Counts one open connection for the drain. It is dropped when the
/// connection thread returns or unwinds, so a panicking handler cannot
/// leave `ctl shutdown` waiting forever.
struct ConnectionGuard(Arc<Shared>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        let mut gate = self.0.gate.lock().unwrap_or_else(PoisonError::into_inner);
        gate.connections -= 1;
        drop(gate);
        self.0.gate_cv.notify_all();
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.telemetry.counters.requests.inc();
    let timer = Timer::start();
    let request = read_request(&stream, shared.config.max_body_bytes, READ_TIMEOUT);
    let route = request
        .as_ref()
        .map(|r| format!("{} {}", r.method, r.path))
        .unwrap_or_else(|_| "(unreadable)".to_string());
    let outcome = request.and_then(|req| dispatch(shared, &req));
    let (status, reply) = match outcome {
        Ok(reply) => (200, reply),
        Err(e) => {
            log::warn(
                "serve",
                "request failed",
                &[
                    ("route", route.as_str().into()),
                    ("status", u64::from(e.status).into()),
                    ("code", e.code.into()),
                    ("message", e.message.as_str().into()),
                ],
            );
            (e.status, Reply::from(e.to_json()))
        }
    };
    let micros = timer.elapsed_micros();
    shared.telemetry.on_response(status, micros);
    log::debug(
        "serve",
        "request served",
        &[
            ("route", route.as_str().into()),
            ("status", u64::from(status).into()),
            ("micros", micros.into()),
        ],
    );
    if let Err(e) = write_reply(&mut stream, status, &reply) {
        // The peer hung up before reading its reply.
        log::debug(
            "serve",
            "reply not delivered",
            &[
                ("route", route.as_str().into()),
                ("status", u64::from(status).into()),
                ("error", e.to_string().as_str().into()),
            ],
        );
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Request) -> Result<Reply, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", p) if p == GRID_PATH => {
            scheduler::handle_grid(shared, &req.body, false).map(Reply::Json)
        }
        ("GET", p) if p == HEALTHZ_PATH => Ok(Reply::from(
            Json::obj()
                .with("schema_version", SCHEMA_VERSION)
                .with("ok", true),
        )),
        ("GET", p) if p == PROGRESS_PATH => Ok(Reply::from(progress_json(shared))),
        ("GET", p) if p == TELEMETRY_PATH => Ok(Reply::from(shared.telemetry.to_json())),
        ("GET", p) if p == METRICS_PATH => Ok(Reply::Text(
            shared.telemetry.render_metrics(&shared.pool().stats()),
        )),
        ("GET", p) if p == LOGS_PATH => Ok(Reply::from(logs_json(req)?)),
        ("POST", p) if p == SHUTDOWN_PATH => {
            shared.begin_drain();
            Ok(Reply::from(
                Json::obj()
                    .with("schema_version", SCHEMA_VERSION)
                    .with("draining", true),
            ))
        }
        (_, p) => Err(ServeError::new(
            404,
            "not_found",
            format!("no endpoint at {p}"),
        )),
    }
}

/// `GET /v1/logs` — a page of the in-memory log ring (Document 9 of
/// `docs/METRICS.md`). Query parameters: `since` (return records with
/// `seq` > it), `level` (minimum severity), `target` (exact match),
/// `limit` (page size, default 256).
fn logs_json(req: &Request) -> Result<Json, ServeError> {
    let since = match req.query("since") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| ServeError::bad_request(format!("bad since {v:?}")))?,
        None => 0,
    };
    let min_level = match req.query("level") {
        Some(v) => Some(
            Level::parse(v).ok_or_else(|| ServeError::bad_request(format!("bad level {v:?}")))?,
        ),
        None => None,
    };
    let limit = match req.query("limit") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ServeError::bad_request(format!("bad limit {v:?}")))?,
        None => 256,
    };
    let page = log::logger().recent(since, min_level, req.query("target"), limit);
    Ok(Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with(
            "logs",
            Json::Arr(page.records.iter().map(log::LogRecord::to_json).collect()),
        )
        .with("dropped", page.dropped)
        .with("next_since", page.next_since))
}

fn progress_json(shared: &Shared) -> Json {
    let grids: Vec<Json> = shared
        .progress
        .lock()
        .expect("progress lock")
        .iter()
        .map(|(grid_id, p)| {
            Json::obj()
                .with("grid_id", grid_id.as_str())
                .with("state", p.state)
                .with("total_cells", p.total_cells)
                .with("completed_cells", p.completed_cells)
                .with("cache_hits", p.cache_hits)
        })
        .collect();
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("grids", Json::Arr(grids))
}
