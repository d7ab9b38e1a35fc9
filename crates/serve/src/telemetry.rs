//! Serve-side telemetry: the counters behind `GET /v1/telemetry`
//! (**Document 6** of `docs/METRICS.md`) and `GET /v1/metrics`
//! (Prometheus text exposition, `docs/OBSERVABILITY.md`).
//!
//! Both surfaces are views over **one** [`fdip_obs::metrics::Registry`].
//! Each serve counter is one entry of the `serve_counters!` list below,
//! which gives its family, help text and Document 6 key. Document 6
//! walks that list and reads `clients` from the three `client`-labelled
//! families, so it shows the very cells a scrape samples. Wall-clock
//! reads (start time, uptime) go through `fdip_obs::clock`, the
//! observability plane's one clock module.

use std::collections::BTreeMap;
use std::sync::Arc;

use fdip_exec::PoolStats;
use fdip_obs::clock::{unix_now_secs, Timer};
use fdip_obs::metrics::{Counter, Gauge, HistogramHandle, Registry, SampleValue};
use fdip_telemetry::{Json, ToJson, SCHEMA_VERSION};

/// Declares every serve counter once. An entry is the handle's field,
/// its registry family (then `{"label" = "value"}` for one sample of a
/// labelled family), its help text and, when Document 6 carries it,
/// `=> "key"` or `=> "group" / "key"` under `serve`. List order is
/// Document 6 order.
macro_rules! serve_counters {
    ($(
        $field:ident: $family:literal $({$label:literal = $value:literal})?, $help:literal
        $(=> $($key:literal)/+)?;
    )*) => {
        /// One handle per serve counter, each a cell of the registry.
        pub struct ServeCounters {
            $(#[doc = $help] pub $field: Counter,)*
        }

        impl ServeCounters {
            fn register(r: &Registry) -> ServeCounters {
                ServeCounters {
                    $($field: r.counter_with($family, $help, &[$(($label, $value))?]),)*
                }
            }

            /// Calls `f` with each counter, its family, its labels and its
            /// Document 6 path (empty when Document 6 does not carry it).
            fn each(&self, mut f: impl FnMut(&Counter, &str, &[(&str, &str)], &[&str])) {
                $(f(&self.$field, $family, &[$(($label, $value))?], &[$($($key),+)?]);)*
            }
        }
    };
}

serve_counters! {
    requests: "fdip_serve_requests_total",
        "HTTP requests received (any endpoint, any outcome)" => "requests";
    grids_submitted: "fdip_serve_grids_submitted_total",
        "Grids admitted past backpressure (including resumed ones)" => "grids" / "submitted";
    grids_completed: "fdip_serve_grids_completed_total",
        "Grids whose response was fully assembled" => "grids" / "completed";
    grids_resumed: "fdip_serve_grids_resumed_total",
        "Admitted grids that were journal replays after a restart" => "grids" / "resumed";
    grids_interrupted: "fdip_serve_grids_interrupted_total",
        "Grids cut short by a timeout, an injected crash, or a coalesced owner's failure"
        => "grids" / "interrupted";
    cells_served: "fdip_serve_cells_served_total",
        "Cells returned to clients in completed grid responses" => "cells" / "served";
    cells_cache_hits: "fdip_serve_cell_cache_hits_total",
        "Served cells answered from the content-addressed cache" => "cells" / "cache_hits";
    cells_cache_misses: "fdip_serve_cell_cache_misses_total",
        "Served cells that were not already cached at classification" => "cells" / "cache_misses";
    cells_simulated: "fdip_serve_cells_simulated_total",
        "Cells simulated on this daemon's pool" => "cells" / "simulated";
    cells_coalesced: "fdip_serve_cells_coalesced_total",
        "Served cells that waited on another grid's in-flight simulation" => "cells" / "coalesced";
    rejected_busy: "fdip_serve_grids_rejected_total" {"reason" = "busy"},
        "Grids refused at admission, by reason" => "rejected" / "busy";
    rejected_draining: "fdip_serve_grids_rejected_total" {"reason" = "draining"},
        "Grids refused at admission, by reason" => "rejected" / "draining";
    journal_replays: "fdip_serve_journal_replays_total",
        "Incomplete grids replayed from the journal at startup";
}

/// The per-client families: Document 6 key, family and help text. Each
/// completed grid adds to all three under its `client` label.
const CLIENT_FAMILIES: [(&str, &str, &str); 3] = [
    (
        "requests",
        "fdip_serve_client_requests_total",
        "Completed grid requests, by client name",
    ),
    (
        "cells",
        "fdip_serve_client_cells_total",
        "Cells served, by client name",
    ),
    (
        "cache_hits",
        "fdip_serve_client_cache_hits_total",
        "Cache-hit cells served, by client name",
    ),
];

/// The per-status response counter for `status`.
fn responses(r: &Registry, status: &str) -> Counter {
    r.counter_with(
        "fdip_serve_responses_total",
        "HTTP responses written, by status code",
        &[("status", status)],
    )
}

/// The daemon's telemetry state; one per [`crate::Server`], each with
/// its own private registry so tests hosting several daemons in one
/// process never cross-contaminate scrapes.
pub struct ServeTelemetry {
    started: Timer,
    started_unix: u64,
    registry: Arc<Registry>,
    /// The declared counters, bumped directly at their call sites.
    pub counters: ServeCounters,
    pub(crate) inflight_grids: Gauge,
    pub(crate) inflight_cells: Gauge,
    queue_depth: HistogramHandle,
    request_duration: HistogramHandle,
    cell_sim_duration: HistogramHandle,
}

impl ServeTelemetry {
    /// Creates zeroed telemetry stamped with the current wall clock.
    /// Every metric family is registered eagerly, so a scrape taken
    /// before any traffic already exposes the full schema.
    #[expect(
        clippy::new_without_default,
        reason = "creation reads the wall clock, which a `Default` would hide"
    )]
    pub fn new() -> ServeTelemetry {
        let r = Arc::new(Registry::new());
        // The per-status response family: register the common case so
        // it appears in a cold scrape.
        let _ = responses(&r, "200");
        ServeTelemetry {
            started: Timer::start(),
            started_unix: unix_now_secs(),
            counters: ServeCounters::register(&r),
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
            registry: r,
        }
    }

    /// The registry behind both telemetry surfaces (`/v1/metrics`
    /// renders it; tests sample it directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Counts one written response and its service latency.
    pub fn on_response(&self, status: u16, micros: u64) {
        responses(&self.registry, &status.to_string()).inc();
        self.request_duration.observe(micros);
    }

    /// Counts an accepted grid and samples the post-admission queue
    /// depth (in-flight grids, this one included).
    pub fn on_grid_admitted(&self, resumed: bool, inflight: u64) {
        self.counters.grids_submitted.inc();
        if resumed {
            self.counters.grids_resumed.inc();
        }
        self.queue_depth.observe(inflight);
        self.inflight_grids.set(inflight as f64);
    }

    /// Accounts a completed grid's cells to the aggregate and per-client
    /// counters: `hits` came from the cache, `coalesced` waited on a
    /// concurrent grid's in-flight simulation, the rest were simulated
    /// here (simulation itself is counted by
    /// [`ServeTelemetry::on_cell_simulated`]).
    pub fn on_cells_served(&self, client: &str, total: u64, hits: u64, coalesced: u64) {
        let c = &self.counters;
        c.cells_served.add(total);
        c.cells_cache_hits.add(hits);
        c.cells_cache_misses.add(total - hits);
        c.cells_coalesced.add(coalesced);
        for ((_, family, help), n) in CLIENT_FAMILIES.into_iter().zip([1, total, hits]) {
            self.registry
                .counter_with(family, help, &[("client", client)])
                .add(n);
        }
    }

    /// Counts one cell simulated on this daemon's pool (taking `micros`
    /// of worker wall-clock) and returns the running total (the
    /// fault-injection hook keys off it).
    pub fn on_cell_simulated(&self, micros: u64) -> u64 {
        self.cell_sim_duration.observe(micros);
        self.counters.cells_simulated.inc()
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

    /// Renders Document 6, the serve manifest (`docs/METRICS.md` §6):
    /// the declared counters at their keys, then `clients`, sorted by
    /// raw client name, from the `client`-labelled families.
    pub fn to_json(&self) -> Json {
        let mut serve = Json::obj()
            .with("tool", "fdip-serve")
            .with("started_unix", self.started_unix)
            .with("uptime_seconds", self.started.elapsed_secs());
        self.counters.each(|cell, _, _, path| match path {
            [key] => {
                serve.set(key, cell.get());
            }
            [group, key] => {
                let mut inner = serve.get(group).cloned().unwrap_or_else(Json::obj);
                inner.set(key, cell.get());
                serve.set(group, inner);
            }
            _ => {}
        });
        let mut clients: BTreeMap<String, Json> = BTreeMap::new();
        for (key, family, _) in CLIENT_FAMILIES {
            for (labels, value) in self.registry.samples(family) {
                if let ([(_, name)], SampleValue::Counter(n)) = (&labels[..], value) {
                    clients
                        .entry(name.clone())
                        .or_insert_with(|| Json::obj().with("client", name.as_str()))
                        .set(key, n);
                }
            }
        }
        Json::obj().with("schema_version", SCHEMA_VERSION).with(
            "serve",
            serve
                .with("queue_depth", self.queue_depth.snapshot().to_json())
                .with("clients", Json::Arr(clients.into_values().collect())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_obs::expo;

    fn drive(t: &ServeTelemetry) {
        let c = &t.counters;
        c.requests.inc();
        c.requests.inc();
        t.on_response(200, 120);
        t.on_grid_admitted(false, 1);
        t.on_grid_admitted(true, 2);
        c.grids_completed.inc();
        c.grids_interrupted.inc();
        c.rejected_busy.inc();
        c.rejected_draining.inc();
        t.on_cells_served("alice", 6, 4, 1);
        t.on_cells_served("bob", 3, 0, 0);
        c.journal_replays.inc();
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

    /// The drift regression: each Document 6 counter must equal its
    /// `/v1/metrics` sample. It walks the declared list and the client
    /// families, so a counter added to either is checked too.
    #[test]
    fn document_six_equals_the_metrics_scrape() {
        let t = ServeTelemetry::new();
        drive(&t);
        let pool = fdip_exec::Pool::new(2);
        pool.run_batch((0..4u64).map(|i| move || i).collect::<Vec<_>>());
        let scrape = expo::validate(&t.render_metrics(&pool.stats())).expect("scrape validates");
        let sample = |family: &str, labels: &[(&str, &str)]| {
            scrape.families[family]
                .samples
                .iter()
                .find(|smp| labels.iter().all(|&(k, v)| smp.label(k) == Some(v)))
                .map(|smp| smp.value as u64)
        };

        let doc = t.to_json();
        let s = doc.get("serve").unwrap();
        t.counters.each(|cell, family, labels, path| {
            let scraped = sample(family, labels);
            assert_eq!(scraped, Some(cell.get()), "{family} {labels:?}");
            if !path.is_empty() {
                let carried = path.iter().try_fold(s, |v, key| v.get(key));
                assert_eq!(
                    carried.and_then(Json::as_u64),
                    scraped,
                    "{family} {labels:?} drifted from Document 6 {path:?}"
                );
            }
        });
        let clients = s.get("clients").and_then(Json::as_arr).unwrap();
        assert_eq!(clients.len(), 2);
        for client in clients {
            let name = client.get("client").and_then(Json::as_str).unwrap();
            for (key, family, _) in CLIENT_FAMILIES {
                assert_eq!(
                    client.get(key).and_then(Json::as_u64),
                    sample(family, &[("client", name)]),
                    "{family} drifted from Document 6 for {name}"
                );
            }
        }
        // The exec mirrors match the pool exactly.
        assert_eq!(
            scrape.counter_total("fdip_exec_jobs_completed_total"),
            Some(pool.stats().jobs_completed)
        );
        assert_eq!(scrape.gauge_value("fdip_exec_workers"), Some(2.0));
    }

    /// Pins Document 6 and the exposition byte for byte: every event
    /// once or more, client names that sort differently raw and escaped,
    /// and the two clock fields zeroed. `render_metrics` is not called,
    /// since its exec mirror reads the wall clock.
    #[test]
    fn document_six_and_the_exposition_are_pinned() {
        let t = ServeTelemetry::new();
        let c = &t.counters;
        c.requests.inc();
        c.requests.inc();
        t.on_response(200, 120);
        t.on_response(404, 35);
        t.on_grid_admitted(false, 1);
        t.on_grid_admitted(true, 2);
        t.inflight_grids.set(1.0);
        c.grids_completed.inc();
        c.grids_interrupted.inc();
        c.rejected_busy.inc();
        c.rejected_draining.inc();
        c.journal_replays.inc();
        for (client, total, hits, coalesced) in [
            ("alice", 6, 4, 1),
            ("bob", 3, 0, 0),
            ("a\"q", 2, 1, 0),
            ("a#", 4, 4, 0),
            ("zed\\x", 1, 0, 1),
            ("alice", 2, 2, 0),
        ] {
            t.on_cells_served(client, total, hits, coalesced);
        }
        t.inflight_cells.add(1.0);
        assert_eq!(t.on_cell_simulated(50), 1);
        assert_eq!(t.on_cell_simulated(70), 2);

        let mut doc = t.to_json();
        let mut serve = doc.get("serve").cloned().unwrap();
        serve.set("started_unix", 0u64).set("uptime_seconds", 0.0);
        doc.set("serve", serve);
        let (doc, text) = (doc.to_string(), t.registry().render());
        assert_eq!(
            (
                fdip_harness::remote::fnv1a64(doc.as_bytes()),
                fdip_harness::remote::fnv1a64(text.as_bytes())
            ),
            (0x68c4_3367_0145_c3ee, 0xed2f_3a00_4504_2887),
            "Document 6:\n{doc}\nexposition:\n{text}"
        );
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
        t.counters.requests.inc();
        let samples = t.registry().samples("fdip_serve_requests_total");
        assert!(matches!(samples[0].1, SampleValue::Counter(1)));
    }
}
