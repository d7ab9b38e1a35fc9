//! Grid execution: validation, admission control, cell classification
//! (cache hit / coalesce / simulate), batch execution under the grid's
//! wall-clock budget, checkpointing, and response assembly.
//!
//! Every cell takes exactly one of three paths:
//!
//! * **hit** — its key is already in the content-addressed cache;
//! * **coalesced** — another in-flight grid owns the same key, so this
//!   grid waits on that simulation instead of duplicating it;
//! * **simulated** — this grid owns the key: the cell runs through the
//!   same [`fdip_sim::run_workload_job`] the local `Runner` uses, and the
//!   result is committed to the cache.
//!
//! A cell is a hit only when the cache holds a verified entry for it
//! (`cache.rs`); a damaged or foreign entry re-simulates. The response
//! is assembled *from the cache files*, never from in-memory results:
//! each cell's `stats` and `dists` lines are spliced into the reply as
//! stored, so a fresh run, a 100%-hit replay, and a post-restart resume
//! all serve the identical bytes.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use fdip_harness::remote::{
    cell_key, config_from_json, config_hash, config_to_json, fnv1a64, workload_hash,
};
use fdip_obs::clock::Timer;
use fdip_obs::log;
use fdip_obs::span::{SpanRecorder, Track};
use fdip_sim::{run_workload_job, CoreConfig};
use fdip_telemetry::{Json, ToJson, SCHEMA_VERSION};

use crate::cache::Entry;
use crate::http::ServeError;
use crate::{BuiltWorkload, GridProgress, Shared, SlotState};

/// Longest `client` name a grid may carry. The daemon keeps each name
/// until it restarts: in three registry label sets, every scrape and
/// Document 6.
const MAX_CLIENT_BYTES: usize = 64;

/// How a grid position resolves against the cache and the in-flight
/// coalescing map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Plan {
    /// Served straight from the cache.
    Hit,
    /// Another grid (or an earlier duplicate position in this one) is
    /// simulating the key; wait for its slot.
    Coalesce,
    /// This grid simulates the key.
    Own,
}

/// One grid position.
struct Cell {
    key: String,
    config: usize,
    workload: usize,
    plan: Plan,
    /// The verified entry a hit is served from.
    entry: Option<Entry>,
}

struct ValidGrid {
    client: String,
    suite: String,
    warmup: u64,
    measure: u64,
    cfgs: Vec<CoreConfig>,
    cfg_hashes: Vec<u64>,
}

/// Decrements the in-flight grid count on every exit path.
struct InflightGuard<'a>(&'a Shared);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let remaining = {
            let mut gate = self.0.gate.lock().expect("gate lock");
            gate.inflight_grids -= 1;
            gate.inflight_grids
        };
        self.0.telemetry.inflight_grids.set(remaining as f64);
        self.0.gate_cv.notify_all();
    }
}

/// Dumps the grid's span recorder to `--trace-dir`, if tracing is on.
fn write_trace(shared: &Shared, recorder: Option<&Arc<SpanRecorder>>, grid_id: &str) {
    if let (Some(dir), Some(rec)) = (&shared.config.trace_dir, recorder) {
        if let Err(e) = rec.write(dir, grid_id) {
            log::warn(
                "serve",
                "trace write failed",
                &[
                    ("grid_id", grid_id.into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
        }
    }
}

/// Serves one `POST /v1/grid` request (or a journal-replayed one when
/// `resumed`; resumed grids bypass 429 backpressure — they were already
/// admitted once).
pub(crate) fn handle_grid(
    shared: &Arc<Shared>,
    body: &Json,
    resumed: bool,
) -> Result<String, ServeError> {
    let grid = validate(body)?;
    admit(shared, resumed)?;
    let guard = InflightGuard(shared);
    // The recorder's epoch is admission time; every span timestamp is
    // microseconds since this point.
    let recorder = shared
        .config
        .trace_dir
        .as_ref()
        .map(|_| Arc::new(SpanRecorder::new()));
    let suite = suite_programs(shared, &grid.suite);
    let grid_id = grid_id(&grid);

    let classify_start = recorder.as_ref().map(|r| r.now_us());
    let mut cells = lookup(shared, &grid, &suite);
    // A grid the cache serves whole has nothing to resume: only a grid
    // with a cell to simulate or wait on is journaled, before any runs.
    if !resumed && cells.iter().any(|c| c.entry.is_none()) {
        shared
            .journal
            .lock()
            .expect("journal lock")
            .grid_begin(&grid_id, body)
            .map_err(|e| ServeError::new(500, "internal", format!("journal: {e}")))?;
    }
    claim(shared, &mut cells);
    let total = cells.len() as u64;
    let hits = cells.iter().filter(|c| c.plan == Plan::Hit).count() as u64;
    let coalesced = cells.iter().filter(|c| c.plan == Plan::Coalesce).count() as u64;
    if let Some(r) = &recorder {
        r.slice(
            Track::Grid,
            "classify",
            classify_start.unwrap_or(0),
            Json::obj()
                .with("grid_id", grid_id.as_str())
                .with("cells", total)
                .with("cache_hits", hits)
                .with("coalesced", coalesced)
                .with("resumed", resumed),
        );
    }
    log::info(
        "serve",
        "grid admitted",
        &[
            ("grid_id", grid_id.as_str().into()),
            ("client", grid.client.as_str().into()),
            ("suite", grid.suite.as_str().into()),
            ("cells", total.into()),
            ("cache_hits", hits.into()),
            ("coalesced", coalesced.into()),
            ("resumed", resumed.into()),
        ],
    );
    shared.progress.lock().expect("progress lock").insert(
        grid_id.clone(),
        GridProgress {
            state: "running",
            total_cells: total,
            completed_cells: hits,
            cache_hits: hits,
        },
    );

    let simulate_start = recorder.as_ref().map(|r| r.now_us());
    let run_ok = run_owned(shared, &grid, &suite, &grid_id, &cells, recorder.as_ref());
    if let Some(r) = &recorder {
        r.slice(
            Track::Grid,
            "simulate",
            simulate_start.unwrap_or(0),
            Json::obj().with("ok", run_ok.is_ok()),
        );
    }
    let wait_start = recorder.as_ref().map(|r| r.now_us());
    let wait_ok = run_ok.is_ok() && wait_coalesced(shared, &cells);
    if let Some(r) = &recorder {
        if coalesced > 0 {
            r.slice(
                Track::Grid,
                "wait_coalesced",
                wait_start.unwrap_or(0),
                Json::obj().with("cells", coalesced).with("ok", wait_ok),
            );
        }
    }
    if let Err(e) = run_ok {
        finish_interrupted(shared, &grid_id, recorder.as_ref());
        drop(guard);
        return Err(e);
    }
    if !wait_ok {
        finish_interrupted(shared, &grid_id, recorder.as_ref());
        drop(guard);
        return Err(ServeError::new(
            503,
            "interrupted",
            "a coalesced cell's owning grid failed before caching it",
        ));
    }

    let assemble_start = recorder.as_ref().map(|r| r.now_us());
    let response = assemble(shared, &grid, &suite, &grid_id, cells)?;
    if let Some(r) = &recorder {
        r.slice(
            Track::Grid,
            "assemble",
            assemble_start.unwrap_or(0),
            Json::obj().with("cells", total),
        );
    }
    shared
        .journal
        .lock()
        .expect("journal lock")
        .grid_end(&grid_id)
        .map_err(|e| ServeError::new(500, "internal", format!("journal: {e}")))?;
    if let Some(p) = shared
        .progress
        .lock()
        .expect("progress lock")
        .get_mut(&grid_id)
    {
        p.state = "done";
        p.completed_cells = total;
    }
    shared.telemetry.counters.grids_completed.inc();
    shared
        .telemetry
        .on_cells_served(&grid.client, total, hits, coalesced);
    if let Some(r) = &recorder {
        r.instant(
            Track::Grid,
            "completed",
            Json::obj().with("grid_id", grid_id.as_str()),
        );
    }
    write_trace(shared, recorder.as_ref(), &grid_id);
    log::info(
        "serve",
        "grid completed",
        &[
            ("grid_id", grid_id.as_str().into()),
            ("client", grid.client.as_str().into()),
            ("cells", total.into()),
        ],
    );
    drop(guard);
    Ok(response)
}

fn validate(body: &Json) -> Result<ValidGrid, ServeError> {
    let schema = body
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::bad_request("missing schema_version"))?;
    if schema != SCHEMA_VERSION {
        return Err(ServeError::bad_request(format!(
            "schema_version {schema} != supported {SCHEMA_VERSION}"
        )));
    }
    let client = body
        .get("client")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::bad_request("missing client"))?
        .to_string();
    let name_byte = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-');
    if !(1..=MAX_CLIENT_BYTES).contains(&client.len()) || !client.bytes().all(name_byte) {
        return Err(ServeError::bad_request(format!(
            "client must be 1-{MAX_CLIENT_BYTES} bytes of ASCII letters, digits, '.', '_' and '-'"
        )));
    }
    let suite = body
        .get("suite")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::bad_request("missing suite"))?
        .to_string();
    if !matches!(suite.as_str(), "quick" | "full") {
        return Err(ServeError::new(
            400,
            "unsupported_suite",
            format!("suite {suite:?} is not a named suite the daemon can rebuild (quick/full)"),
        ));
    }
    let warmup = body
        .get("warmup_instrs")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::bad_request("missing warmup_instrs"))?;
    let measure = body
        .get("measure_instrs")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::bad_request("missing measure_instrs"))?;
    let configs = body
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::bad_request("missing configs array"))?;
    if configs.is_empty() {
        return Err(ServeError::bad_request("configs array is empty"));
    }
    let mut cfgs = Vec::with_capacity(configs.len());
    for (i, c) in configs.iter().enumerate() {
        cfgs.push(
            config_from_json(c)
                .ok_or_else(|| ServeError::bad_request(format!("configs[{i}] is invalid")))?,
        );
    }
    let cfg_hashes = cfgs.iter().map(config_hash).collect();
    Ok(ValidGrid {
        client,
        suite,
        warmup,
        measure,
        cfgs,
        cfg_hashes,
    })
}

fn admit(shared: &Shared, resumed: bool) -> Result<(), ServeError> {
    let mut gate = shared.gate.lock().expect("gate lock");
    if gate.draining {
        shared.telemetry.counters.rejected_draining.inc();
        return Err(ServeError::new(
            503,
            "draining",
            "the daemon is draining and accepts no new grids",
        ));
    }
    if !resumed && gate.inflight_grids >= shared.config.max_inflight_grids {
        shared.telemetry.counters.rejected_busy.inc();
        return Err(ServeError::new(
            429,
            "busy",
            format!(
                "{} grids are already in flight (limit {}); retry later",
                gate.inflight_grids, shared.config.max_inflight_grids
            ),
        ));
    }
    gate.inflight_grids += 1;
    shared
        .telemetry
        .on_grid_admitted(resumed, gate.inflight_grids as u64);
    Ok(())
}

/// Builds (once, lazily) the named suite's programs, with per-workload
/// content hashes.
fn suite_programs(shared: &Shared, suite: &str) -> Arc<Vec<BuiltWorkload>> {
    let mut suites = shared.suites.lock().expect("suite lock");
    if let Some(s) = suites.get(suite) {
        return Arc::clone(s);
    }
    let workloads = match suite {
        "quick" => fdip_program::workload::quick_suite(),
        _ => fdip_program::workload::suite(),
    };
    let built: Vec<BuiltWorkload> = workloads
        .into_iter()
        .map(|w| {
            let h = workload_hash(&w);
            let p = Arc::new(w.build());
            (w, p, h)
        })
        .collect();
    let arc = Arc::new(built);
    suites.insert(suite.to_string(), Arc::clone(&arc));
    arc
}

/// The grid's content-derived id: FNV-1a over suite, budget, and the
/// config hashes in request order (`docs/SERVE.md` §"Grid ids").
fn grid_id(grid: &ValidGrid) -> String {
    let cfgs: Vec<String> = grid
        .cfg_hashes
        .iter()
        .map(|h| format!("{h:016x}"))
        .collect();
    let canon = format!(
        "fdip-grid-v1|suite={}|warmup={}|measure={}|cfgs={}",
        grid.suite,
        grid.warmup,
        grid.measure,
        cfgs.join(",")
    );
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

/// Every grid position with its cell key and, when the cache holds a
/// verified entry for it, that entry (planned as a hit, pending
/// [`claim`]). The reads take no lock.
fn lookup(shared: &Shared, grid: &ValidGrid, suite: &[BuiltWorkload]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(grid.cfgs.len() * suite.len());
    for ci in 0..grid.cfgs.len() {
        for (wi, (w, _, wl_hash)) in suite.iter().enumerate() {
            let key = cell_key(
                grid.cfg_hashes[ci],
                *wl_hash,
                w.params.seed,
                grid.warmup,
                grid.measure,
            );
            let entry = shared.cache.get(&key);
            cells.push(Cell {
                key,
                config: ci,
                workload: wi,
                plan: Plan::Hit,
                entry,
            });
        }
    }
    cells
}

/// Resolves every looked-up position against the coalescing map,
/// claiming `Own` slots atomically under one lock so no two grids (or
/// duplicate positions within one grid) ever simulate the same key.
fn claim(shared: &Shared, cells: &mut [Cell]) {
    let mut slots = shared.slots.lock().expect("slot lock");
    for cell in cells {
        let state = slots.get(&cell.key).copied();
        if state == Some(SlotState::Running) {
            cell.plan = Plan::Coalesce;
            cell.entry = None;
            continue;
        }
        // A cell committed since the lookup reads as a hit now.
        if cell.entry.is_none() && state == Some(SlotState::Done) {
            cell.entry = shared.cache.get(&cell.key);
        }
        if cell.entry.is_none() {
            slots.insert(cell.key.clone(), SlotState::Running);
            cell.plan = Plan::Own;
        }
    }
}

/// Resolves one owned cell's slot when its pool job ends, however it
/// ends: `Done` once the job marks its committed cache entry, `Failed`
/// when the job skipped the cell, failed to commit it or unwound, so no
/// coalesced waiter blocks on a slot left `Running`.
struct SlotGuard<'a> {
    shared: &'a Shared,
    key: &'a str,
    state: SlotState,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        // Also runs while a panicking simulation unwinds, so a poisoned
        // lock is recovered rather than panicked on.
        self.shared
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(self.key.to_string(), self.state);
        self.shared.slots_cv.notify_all();
    }
}

/// Runs this grid's `Own` cells as one pool batch, committing each
/// result to the cache as it lands. Each job decides its cell's fate as
/// it starts: once the daemon is interrupted or the grid's wall-clock
/// budget has run out, it skips the cell; a cell already simulating
/// finishes and is cached.
fn run_owned(
    shared: &Arc<Shared>,
    grid: &ValidGrid,
    suite: &[BuiltWorkload],
    grid_id: &str,
    cells: &[Cell],
    recorder: Option<&Arc<SpanRecorder>>,
) -> Result<(), ServeError> {
    let own: Vec<&Cell> = cells.iter().filter(|c| c.plan == Plan::Own).collect();
    if own.is_empty() {
        return Ok(());
    }
    let budget = Timer::start();
    let budget_us = shared.config.grid_timeout_ms.saturating_mul(1000);

    let mut jobs = Vec::with_capacity(own.len());
    for cell in &own {
        let shared = Arc::clone(shared);
        let grid_id = grid_id.to_string();
        let key = cell.key.clone();
        let cfg = grid.cfgs[cell.config].clone();
        let cfg_hash = grid.cfg_hashes[cell.config];
        let (w, program, wl_hash) = &suite[cell.workload];
        let (workload, seed) = (w.name.clone(), w.params.seed);
        let (wl_hash, program) = (*wl_hash, Arc::clone(program));
        let (warmup, measure) = (grid.warmup, grid.measure);
        let recorder = recorder.map(Arc::clone);
        let config_index = cell.config;
        let budget = budget.clone();
        jobs.push(move || {
            let mut slot = SlotGuard {
                shared: &shared,
                key: &key,
                state: SlotState::Failed,
            };
            // Acquire pairs with the Release store in `interrupt_all`.
            if shared.interrupted.load(Ordering::Acquire) || budget.elapsed_micros() >= budget_us {
                return false;
            }
            shared.telemetry.inflight_cells.add(1.0);
            let sim_start = recorder.as_ref().map(|r| r.now_us());
            let sim_timer = Timer::start();
            let (stats, dists) = run_workload_job(cfg.clone(), program, warmup, measure);
            let sim_micros = sim_timer.elapsed_micros();
            if let Some(r) = &recorder {
                r.slice(
                    Track::Cells,
                    &workload,
                    sim_start.unwrap_or(0),
                    Json::obj()
                        .with("cell", key.as_str())
                        .with("config_index", config_index as u64),
                );
            }
            shared.telemetry.inflight_cells.add(-1.0);
            let meta = Json::obj()
                .with("schema_version", SCHEMA_VERSION)
                .with("config_hash", format!("{cfg_hash:016x}"))
                .with("workload_hash", format!("{wl_hash:016x}"))
                .with("workload", workload.as_str())
                .with("seed", seed)
                .with("warmup_instrs", warmup)
                .with("measure_instrs", measure)
                .with("config", config_to_json(&cfg));
            let committed = shared
                .cache
                .put(&key, &meta, &stats.to_json(), &dists.to_json())
                .is_ok();
            if committed {
                slot.state = SlotState::Done;
            }
            let simulated = shared.telemetry.on_cell_simulated(sim_micros);
            if shared
                .config
                .crash_after_cells
                .is_some_and(|limit| simulated >= limit)
            {
                shared.interrupt_all();
            }
            if let Some(p) = shared
                .progress
                .lock()
                .expect("progress lock")
                .get_mut(&grid_id)
            {
                p.completed_cells += 1;
            }
            committed
        });
    }
    // A panicking job re-raises here, after the batch's other cells
    // have run and been cached.
    let Ok(committed) = catch_unwind(AssertUnwindSafe(|| shared.pool().run_batch(jobs))) else {
        return Err(ServeError::new(
            500,
            "internal",
            "a cell's simulation panicked; the grid's other cells are cached",
        ));
    };
    if committed.into_iter().all(|c| c) {
        return Ok(());
    }
    if budget.elapsed_micros() >= budget_us {
        Err(ServeError::new(
            408,
            "timeout",
            format!(
                "grid exceeded its {} ms budget; completed cells are cached and a \
                 resubmission finishes the remainder",
                shared.config.grid_timeout_ms
            ),
        ))
    } else {
        Err(ServeError::new(
            503,
            "interrupted",
            "the grid stopped before every cell was cached (injected crash or a failed \
             cell); completed cells are cached and the grid stays journaled for resume",
        ))
    }
}

/// Blocks until every coalesced cell's owning grid resolves its slot.
/// Returns `false` if any owner failed to cache its cell.
fn wait_coalesced(shared: &Shared, cells: &[Cell]) -> bool {
    let mut ok = true;
    let mut slots = shared.slots.lock().expect("slot lock");
    for cell in cells.iter().filter(|c| c.plan == Plan::Coalesce) {
        slots = shared
            .slots_cv
            .wait_while(slots, |s| {
                matches!(s.get(&cell.key), Some(SlotState::Running))
            })
            .expect("slot lock");
        if matches!(slots.get(&cell.key), Some(SlotState::Failed)) {
            ok = false;
        }
    }
    ok
}

fn finish_interrupted(shared: &Shared, grid_id: &str, recorder: Option<&Arc<SpanRecorder>>) {
    if let Some(p) = shared
        .progress
        .lock()
        .expect("progress lock")
        .get_mut(grid_id)
    {
        p.state = "interrupted";
    }
    shared.telemetry.counters.grids_interrupted.inc();
    log::warn("serve", "grid interrupted", &[("grid_id", grid_id.into())]);
    if let Some(r) = recorder {
        r.instant(
            Track::Grid,
            "interrupted",
            Json::obj().with("grid_id", grid_id),
        );
    }
    write_trace(shared, recorder, grid_id);
}

/// Assembles the grid response body from the cache: each cell's stored
/// `stats` and `dists` lines are spliced in verbatim — hits from the
/// entries [`lookup`] verified, simulated and coalesced cells re-read
/// now — around an envelope written exactly as `Json::to_string` writes
/// the documented response object.
#[expect(
    clippy::let_underscore_must_use,
    reason = "`write!` into a `String` cannot fail"
)]
fn assemble(
    shared: &Shared,
    grid: &ValidGrid,
    suite: &[BuiltWorkload],
    grid_id: &str,
    cells: Vec<Cell>,
) -> Result<String, ServeError> {
    let total = cells.len();
    let count = |plan| cells.iter().filter(|c| c.plan == plan).count();
    let (hits, simulated, coalesced) = (count(Plan::Hit), count(Plan::Own), count(Plan::Coalesce));
    let mut served = Vec::with_capacity(total);
    for mut cell in cells {
        let entry = match cell.entry.take() {
            Some(entry) => entry,
            None => shared.cache.get(&cell.key).ok_or_else(|| {
                ServeError::new(
                    500,
                    "internal",
                    format!("cache entry {} vanished before assembly", cell.key),
                )
            })?,
        };
        served.push((cell, entry));
    }
    let body_len: usize = served
        .iter()
        .map(|(_, e)| e.stats().len() + e.dists().len() + 128)
        .sum();
    let mut out = String::with_capacity(body_len + 256);
    let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},\"grid_id\":");
    Json::write_escaped(&mut out, grid_id);
    out.push_str(",\"suite\":");
    Json::write_escaped(&mut out, &grid.suite);
    let _ = write!(
        out,
        ",\"warmup_instrs\":{},\"measure_instrs\":{},\"cells\":[",
        grid.warmup, grid.measure
    );
    for (i, (cell, entry)) in served.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cell\":");
        Json::write_escaped(&mut out, &cell.key);
        let _ = write!(out, ",\"config_index\":{},\"workload\":", cell.config);
        Json::write_escaped(&mut out, &suite[cell.workload].0.name);
        let _ = write!(
            out,
            ",\"cache_hit\":{},\"stats\":{},\"dists\":{}}}",
            cell.plan == Plan::Hit,
            entry.stats(),
            entry.dists()
        );
    }
    let _ = write!(
        out,
        "],\"summary\":{{\"total_cells\":{total},\"cache_hits\":{hits},\
         \"simulated\":{simulated},\"coalesced\":{coalesced}}}}}"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};

    #[test]
    fn client_names_are_bounded() {
        let check = |client: &str| {
            let cfgs = [CoreConfig::fdp()];
            validate(&fdip_harness::remote::grid_request(
                client, "quick", 500, 2_000, &cfgs,
            ))
        };
        for good in ["fdip-benchmark", "e2e.v1_a", &"x".repeat(64)] {
            assert!(check(good).is_ok(), "{good:?} is refused");
        }
        for bad in ["", "a b", "a\"q", "zed\\x", &"x".repeat(65)] {
            let err = check(bad).err().expect("a bad name is accepted");
            assert_eq!((err.status, err.code), (400, "bad_request"), "{bad:?}");
        }
    }

    /// A simulation that panics inside its pool job: before the slot
    /// guard, the cell's slot stayed `Running`, and a grid coalesced onto
    /// it waited forever (as did the drain behind that grid). The grid
    /// itself fails with a 500 rather than unwinding its connection.
    #[test]
    fn a_panicking_cell_fails_its_slot_and_frees_coalesced_waiters() {
        let dir =
            std::env::temp_dir().join(format!("fdip-serve-slot-guard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ServerConfig::new(dir.clone());
        config.jobs = Some(1);
        let server = Server::spawn(config).expect("server spawns");
        let shared = Arc::clone(&server.shared);

        // A hot data region as large as the whole data set divides by
        // zero in the data-address generator. The decoder refuses it
        // now, so the grid is built here, past validation.
        let mut cfg = CoreConfig::fdp();
        cfg.backend.data_hot_bytes = cfg.backend.data_total_bytes;
        cfg.func_warmup = 0;
        let grid = ValidGrid {
            client: "t".to_string(),
            suite: "quick".to_string(),
            warmup: 0,
            measure: 2_000,
            cfg_hashes: vec![config_hash(&cfg)],
            cfgs: vec![cfg],
        };
        let suite = suite_programs(&shared, &grid.suite);
        let mut cells = lookup(&shared, &grid, &suite);
        cells.truncate(1);
        claim(&shared, &mut cells);
        assert_eq!(cells[0].plan, Plan::Own);

        let err = run_owned(&shared, &grid, &suite, "g", &cells, None)
            .expect_err("the cell's panic fails the grid");
        assert_eq!((err.status, err.code), (500, "internal"));
        // Checked first: a waiter on a slot left `Running` would block.
        assert_eq!(
            shared.slots.lock().expect("slot lock").get(&cells[0].key),
            Some(&SlotState::Failed)
        );
        // A second grid coalesced onto the key learns its owner failed.
        let waiter = [Cell {
            key: cells[0].key.clone(),
            config: 0,
            workload: 0,
            plan: Plan::Coalesce,
            entry: None,
        }];
        assert!(!wait_coalesced(&shared, &waiter));

        server.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}
