//! Serve-side telemetry: the counters behind `GET /v1/telemetry`
//! (**Document 6** of `docs/METRICS.md`) and `GET /v1/metrics`
//! (Prometheus text exposition, `docs/OBSERVABILITY.md`).
//!
//! Both surfaces are views over **one** [`fdip_obs::metrics::Registry`]:
//! every Document 6 value is read back from the same counter cell a
//! scrape samples, so the two cannot drift — a regression test compares
//! them field by field. Wall-clock reads (start time, uptime) go
//! through `fdip_obs::clock`, the observability plane's one clock
//! module.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fdip_exec::PoolStats;
use fdip_obs::clock::{unix_now_secs, Timer};
use fdip_obs::metrics::{Counter, Gauge, HistogramHandle, Registry};
use fdip_telemetry::{Json, ToJson, SCHEMA_VERSION};

/// Per-client counter handles (and the iteration order for the
/// Document 6 `clients` array).
struct ClientCells {
    requests: Counter,
    cells: Counter,
    cache_hits: Counter,
}

/// The daemon's telemetry state; one per [`crate::Server`], each with
/// its own private registry so tests hosting several daemons in one
/// process never cross-contaminate scrapes.
pub struct ServeTelemetry {
    started: Timer,
    started_unix: u64,
    registry: Arc<Registry>,
    requests: Counter,
    grids_submitted: Counter,
    grids_completed: Counter,
    grids_resumed: Counter,
    grids_interrupted: Counter,
    rejected_busy: Counter,
    rejected_draining: Counter,
    cells_served: Counter,
    cells_cache_hits: Counter,
    cells_cache_misses: Counter,
    cells_simulated: Counter,
    cells_coalesced: Counter,
    journal_replays: Counter,
    inflight_grids: Gauge,
    inflight_cells: Gauge,
    queue_depth: HistogramHandle,
    request_duration: HistogramHandle,
    cell_sim_duration: HistogramHandle,
    clients: Mutex<BTreeMap<String, ClientCells>>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        ServeTelemetry::new()
    }
}

impl ServeTelemetry {
    /// Creates zeroed telemetry stamped with the current wall clock.
    /// Every metric family is registered eagerly, so a scrape taken
    /// before any traffic already exposes the full schema.
    pub fn new() -> ServeTelemetry {
        let r = Arc::new(Registry::new());
        let t = ServeTelemetry {
            started: Timer::start(),
            started_unix: unix_now_secs(),
            requests: r.counter(
                "fdip_serve_requests_total",
                "HTTP requests received (any endpoint, any outcome)",
            ),
            grids_submitted: r.counter(
                "fdip_serve_grids_submitted_total",
                "Grids admitted past backpressure (including resumed ones)",
            ),
            grids_completed: r.counter(
                "fdip_serve_grids_completed_total",
                "Grids whose response was fully assembled",
            ),
            grids_resumed: r.counter(
                "fdip_serve_grids_resumed_total",
                "Admitted grids that were journal replays after a restart",
            ),
            grids_interrupted: r.counter(
                "fdip_serve_grids_interrupted_total",
                "Grids cut short by a timeout, an injected crash, or a coalesced owner's failure",
            ),
            rejected_busy: r.counter_with(
                "fdip_serve_grids_rejected_total",
                "Grids refused at admission, by reason",
                &[("reason", "busy")],
            ),
            rejected_draining: r.counter_with(
                "fdip_serve_grids_rejected_total",
                "Grids refused at admission, by reason",
                &[("reason", "draining")],
            ),
            cells_served: r.counter(
                "fdip_serve_cells_served_total",
                "Cells returned to clients in completed grid responses",
            ),
            cells_cache_hits: r.counter(
                "fdip_serve_cell_cache_hits_total",
                "Served cells answered from the content-addressed cache",
            ),
            cells_cache_misses: r.counter(
                "fdip_serve_cell_cache_misses_total",
                "Served cells that were not already cached at classification",
            ),
            cells_simulated: r.counter(
                "fdip_serve_cells_simulated_total",
                "Cells simulated on this daemon's pool",
            ),
            cells_coalesced: r.counter(
                "fdip_serve_cells_coalesced_total",
                "Served cells that waited on another grid's in-flight simulation",
            ),
            journal_replays: r.counter(
                "fdip_serve_journal_replays_total",
                "Incomplete grids replayed from the journal at startup",
            ),
            inflight_grids: r.gauge(
                "fdip_serve_inflight_grids",
                "Grids currently admitted and executing",
            ),
            inflight_cells: r.gauge(
                "fdip_serve_inflight_cells",
                "Cells currently simulating on the pool",
            ),
            queue_depth: r.histogram(
                "fdip_serve_grid_queue_depth",
                "In-flight grid count sampled at each admission",
            ),
            request_duration: r.histogram(
                "fdip_serve_request_duration_us",
                "Wall-clock microseconds from accepted connection to written response",
            ),
            cell_sim_duration: r.histogram(
                "fdip_serve_cell_sim_duration_us",
                "Wall-clock microseconds simulating one cell on a pool worker",
            ),
            registry: Arc::clone(&r),
            clients: Mutex::new(BTreeMap::new()),
        };
        // The per-status response family: register the common case so
        // it appears in a cold scrape.
        let _ = r.counter_with(
            "fdip_serve_responses_total",
            "HTTP responses written, by status code",
            &[("status", "200")],
        );
        t
    }

    /// The registry behind both telemetry surfaces (`/v1/metrics`
    /// renders it; tests sample it directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Counts one HTTP request (any endpoint, any outcome).
    pub fn on_request(&self) {
        self.requests.inc();
    }

    /// Counts one written response and its service latency.
    pub fn on_response(&self, status: u16, micros: u64) {
        self.registry
            .counter_with(
                "fdip_serve_responses_total",
                "HTTP responses written, by status code",
                &[("status", &status.to_string())],
            )
            .inc();
        self.request_duration.observe(micros);
    }

    /// Counts an accepted grid and samples the post-admission queue
    /// depth (in-flight grids, this one included).
    pub fn on_grid_admitted(&self, resumed: bool, inflight: u64) {
        self.grids_submitted.inc();
        if resumed {
            self.grids_resumed.inc();
        }
        self.queue_depth.observe(inflight);
        self.inflight_grids.set(inflight as f64);
    }

    /// Records a grid leaving the gate (any exit path).
    pub fn on_grid_done(&self, inflight: u64) {
        self.inflight_grids.set(inflight as f64);
    }

    /// Counts a grid whose response was fully assembled.
    pub fn on_grid_completed(&self) {
        self.grids_completed.inc();
    }

    /// Counts a grid cut short by a timeout, an injected crash, or a
    /// coalesced owner's failure.
    pub fn on_grid_interrupted(&self) {
        self.grids_interrupted.inc();
    }

    /// Counts a rejected grid (`busy` = 429 backpressure, otherwise the
    /// daemon was draining).
    pub fn on_grid_rejected(&self, busy: bool) {
        if busy {
            self.rejected_busy.inc();
        } else {
            self.rejected_draining.inc();
        }
    }

    /// Counts an incomplete grid picked up from the journal at startup.
    pub fn on_journal_replay(&self) {
        self.journal_replays.inc();
    }

    /// Accounts a completed grid's cells to the aggregate and per-client
    /// counters: `hits` came from the cache, `coalesced` waited on a
    /// concurrent grid's in-flight simulation, the rest were simulated
    /// here (simulation itself is counted by
    /// [`ServeTelemetry::on_cell_simulated`]).
    pub fn on_cells_served(&self, client: &str, total: u64, hits: u64, coalesced: u64) {
        self.cells_served.add(total);
        self.cells_cache_hits.add(hits);
        self.cells_cache_misses.add(total - hits);
        self.cells_coalesced.add(coalesced);
        let mut clients = self.clients.lock().expect("client lock");
        let c = clients.entry(client.to_string()).or_insert_with(|| {
            let labels: &[(&str, &str)] = &[("client", client)];
            ClientCells {
                requests: self.registry.counter_with(
                    "fdip_serve_client_requests_total",
                    "Completed grid requests, by client name",
                    labels,
                ),
                cells: self.registry.counter_with(
                    "fdip_serve_client_cells_total",
                    "Cells served, by client name",
                    labels,
                ),
                cache_hits: self.registry.counter_with(
                    "fdip_serve_client_cache_hits_total",
                    "Cache-hit cells served, by client name",
                    labels,
                ),
            }
        });
        c.requests.inc();
        c.cells.add(total);
        c.cache_hits.add(hits);
    }

    /// Marks a cell simulation starting or finishing on a pool worker
    /// (drives the in-flight cells gauge).
    pub fn on_cell_sim_flight(&self, delta: f64) {
        self.inflight_cells.add(delta);
    }

    /// Counts one cell simulated on this daemon's pool (taking `micros`
    /// of worker wall-clock) and returns the running total (the
    /// fault-injection hook keys off it).
    pub fn on_cell_simulated(&self, micros: u64) -> u64 {
        self.cell_sim_duration.observe(micros);
        self.cells_simulated.inc()
    }

    /// Mirrors the worker pool's lifetime stats into the registry (the
    /// pool keeps its own monotonic totals, so mirrored counters use
    /// `set_total` and never double count). Called at scrape time.
    pub fn refresh_exec(&self, stats: &PoolStats) {
        let r = &self.registry;
        r.gauge("fdip_exec_workers", "Worker threads in the simulation pool")
            .set(stats.workers as f64);
        r.counter(
            "fdip_exec_jobs_completed_total",
            "Jobs finished over the pool's lifetime",
        )
        .set_total(stats.jobs_completed);
        r.gauge(
            "fdip_exec_peak_busy",
            "Maximum workers simultaneously executing jobs",
        )
        .set(stats.peak_busy as f64);
        r.gauge(
            "fdip_exec_busy_fraction",
            "Fraction of workers-times-elapsed spent executing jobs",
        )
        .set(stats.busy_fraction);
        r.histogram(
            "fdip_exec_queue_depth",
            "Queue depth observed at each job submission",
        )
        .replace(stats.queue_depth.clone());
        for (i, jobs) in stats.worker_jobs.iter().enumerate() {
            r.counter_with(
                "fdip_exec_worker_jobs_total",
                "Jobs executed, by worker index",
                &[("worker", &i.to_string())],
            )
            .set_total(*jobs);
        }
    }

    /// Renders the Prometheus text exposition for `GET /v1/metrics`,
    /// after mirroring the pool's current stats.
    pub fn render_metrics(&self, pool: &PoolStats) -> String {
        self.refresh_exec(pool);
        self.registry.render()
    }

    /// Renders Document 6, the serve manifest (`docs/METRICS.md` §6).
    /// Every value is read from the same registry cells `/v1/metrics`
    /// samples.
    pub fn to_json(&self) -> Json {
        let clients: Vec<Json> = self
            .clients
            .lock()
            .expect("client lock")
            .iter()
            .map(|(name, c)| {
                Json::obj()
                    .with("client", name.as_str())
                    .with("requests", c.requests.get())
                    .with("cells", c.cells.get())
                    .with("cache_hits", c.cache_hits.get())
            })
            .collect();
        Json::obj().with("schema_version", SCHEMA_VERSION).with(
            "serve",
            Json::obj()
                .with("tool", "fdip-serve")
                .with("started_unix", self.started_unix)
                .with("uptime_seconds", self.started.elapsed_secs())
                .with("requests", self.requests.get())
                .with(
                    "grids",
                    Json::obj()
                        .with("submitted", self.grids_submitted.get())
                        .with("completed", self.grids_completed.get())
                        .with("resumed", self.grids_resumed.get())
                        .with("interrupted", self.grids_interrupted.get()),
                )
                .with(
                    "cells",
                    Json::obj()
                        .with("served", self.cells_served.get())
                        .with("cache_hits", self.cells_cache_hits.get())
                        .with("cache_misses", self.cells_cache_misses.get())
                        .with("simulated", self.cells_simulated.get())
                        .with("coalesced", self.cells_coalesced.get()),
                )
                .with(
                    "rejected",
                    Json::obj()
                        .with("busy", self.rejected_busy.get())
                        .with("draining", self.rejected_draining.get()),
                )
                .with("queue_depth", self.queue_depth.snapshot().to_json())
                .with("clients", Json::Arr(clients)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_obs::expo;
    use fdip_obs::metrics::SampleValue;

    fn drive(t: &ServeTelemetry) {
        t.on_request();
        t.on_request();
        t.on_response(200, 120);
        t.on_grid_admitted(false, 1);
        t.on_grid_admitted(true, 2);
        t.on_grid_completed();
        t.on_grid_interrupted();
        t.on_grid_rejected(true);
        t.on_grid_rejected(false);
        t.on_cells_served("alice", 6, 4, 1);
        t.on_cells_served("bob", 3, 0, 0);
        t.on_journal_replay();
        assert_eq!(t.on_cell_simulated(50), 1);
        assert_eq!(t.on_cell_simulated(70), 2);
    }

    #[test]
    fn document_six_counts_what_happened() {
        let t = ServeTelemetry::new();
        drive(&t);

        let doc = t.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let s = doc.get("serve").unwrap();
        assert_eq!(s.get("tool").and_then(Json::as_str), Some("fdip-serve"));
        assert_eq!(s.get("requests").and_then(Json::as_u64), Some(2));
        let grids = s.get("grids").unwrap();
        assert_eq!(grids.get("submitted").and_then(Json::as_u64), Some(2));
        assert_eq!(grids.get("resumed").and_then(Json::as_u64), Some(1));
        assert_eq!(grids.get("completed").and_then(Json::as_u64), Some(1));
        assert_eq!(grids.get("interrupted").and_then(Json::as_u64), Some(1));
        let cells = s.get("cells").unwrap();
        assert_eq!(cells.get("served").and_then(Json::as_u64), Some(9));
        assert_eq!(cells.get("cache_hits").and_then(Json::as_u64), Some(4));
        assert_eq!(cells.get("cache_misses").and_then(Json::as_u64), Some(5));
        assert_eq!(cells.get("simulated").and_then(Json::as_u64), Some(2));
        assert_eq!(cells.get("coalesced").and_then(Json::as_u64), Some(1));
        let rejected = s.get("rejected").unwrap();
        assert_eq!(rejected.get("busy").and_then(Json::as_u64), Some(1));
        assert_eq!(rejected.get("draining").and_then(Json::as_u64), Some(1));
        assert_eq!(
            s.get("queue_depth")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // Clients are sorted by name for deterministic output.
        let clients = s.get("clients").and_then(Json::as_arr).unwrap();
        assert_eq!(clients.len(), 2);
        assert_eq!(
            clients[0].get("client").and_then(Json::as_str),
            Some("alice")
        );
        assert_eq!(clients[0].get("cells").and_then(Json::as_u64), Some(6));
    }

    /// The drift regression: every Document 6 counter must equal the
    /// corresponding `/v1/metrics` sample, because both read the same
    /// registry cell.
    #[test]
    fn document_six_equals_the_metrics_scrape() {
        let t = ServeTelemetry::new();
        drive(&t);
        let pool = fdip_exec::Pool::new(2);
        pool.run_batch((0..4u64).map(|i| move || i).collect::<Vec<_>>());
        let scrape = expo::validate(&t.render_metrics(&pool.stats())).expect("scrape validates");

        let doc = t.to_json();
        let s = doc.get("serve").unwrap();
        let u64_at = |v: &Json, path: &[&str]| {
            let mut cur = v.clone();
            for p in path {
                cur = cur.get(p).cloned().unwrap();
            }
            cur.as_u64().unwrap()
        };
        for (family, path) in [
            ("fdip_serve_requests_total", &["requests"][..]),
            ("fdip_serve_grids_submitted_total", &["grids", "submitted"]),
            ("fdip_serve_grids_completed_total", &["grids", "completed"]),
            ("fdip_serve_grids_resumed_total", &["grids", "resumed"]),
            (
                "fdip_serve_grids_interrupted_total",
                &["grids", "interrupted"],
            ),
            ("fdip_serve_cells_served_total", &["cells", "served"]),
            ("fdip_serve_cell_cache_hits_total", &["cells", "cache_hits"]),
            (
                "fdip_serve_cell_cache_misses_total",
                &["cells", "cache_misses"],
            ),
            ("fdip_serve_cells_simulated_total", &["cells", "simulated"]),
            ("fdip_serve_cells_coalesced_total", &["cells", "coalesced"]),
        ] {
            assert_eq!(
                scrape.counter_total(family),
                Some(u64_at(s, path)),
                "{family} drifted from Document 6 {path:?}"
            );
        }
        // The labeled rejection family sums busy + draining.
        assert_eq!(
            scrape.counter_total("fdip_serve_grids_rejected_total"),
            Some(u64_at(s, &["rejected", "busy"]) + u64_at(s, &["rejected", "draining"])),
        );
        // Per-client counters carry the client label.
        let family = &scrape.families["fdip_serve_client_cells_total"];
        let alice = family
            .samples
            .iter()
            .find(|smp| smp.label("client") == Some("alice"))
            .expect("alice sample");
        assert_eq!(alice.value, 6.0);
        // The exec mirrors match the pool exactly.
        assert_eq!(
            scrape.counter_total("fdip_exec_jobs_completed_total"),
            Some(pool.stats().jobs_completed)
        );
        assert_eq!(scrape.gauge_value("fdip_exec_workers"), Some(2.0));
    }

    #[test]
    fn a_cold_scrape_exposes_the_full_schema() {
        let t = ServeTelemetry::new();
        let pool = fdip_exec::Pool::new(1);
        let scrape = expo::validate(&t.render_metrics(&pool.stats())).expect("cold scrape");
        let serve_families = scrape
            .families
            .keys()
            .filter(|n| n.starts_with("fdip_serve_"))
            .count();
        let exec_families = scrape
            .families
            .keys()
            .filter(|n| n.starts_with("fdip_exec_"))
            .count();
        assert!(
            serve_families + exec_families >= 12,
            "only {serve_families}+{exec_families} families in a cold scrape:\n{:?}",
            scrape.families.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn registry_samples_are_readable_programmatically() {
        let t = ServeTelemetry::new();
        t.on_request();
        let samples = t.registry().samples("fdip_serve_requests_total");
        assert!(matches!(samples[0].1, SampleValue::Counter(1)));
    }
}
