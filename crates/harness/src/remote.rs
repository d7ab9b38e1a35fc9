//! Client side of the `fdip-serve` sweep service: the wire codec for
//! `CoreConfig`, content-addressed cell keys, a minimal HTTP/1.1 JSON
//! client on `std::net`, and [`RemoteClient`] — the piece `Runner` uses
//! to route a config × workload grid to a daemon instead of the local
//! pool.
//!
//! Everything on the wire is specified in `docs/SERVE.md` and enforced
//! bidirectionally by `tests/serve_doc.rs`. The codec must be *exact*:
//! counters are `u64`, and every float crosses the wire in Rust's
//! shortest-round-trip form, so a grid served from the daemon (or its
//! cache) reproduces a local run byte-for-byte after volatile manifest
//! fields are stripped.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fdip_bpred::{BtbConfig, GshareConfig, HistoryPolicy, IttageConfig, TageConfig};
use fdip_mem::{CacheConfig, HierarchyConfig};
use fdip_prefetch::PrefetcherKind;
use fdip_program::workload::Workload;
use fdip_sim::{BackendConfig, CoreConfig, DirectionConfig, SimDists, SimStats};
use fdip_telemetry::{Json, SCHEMA_VERSION};

/// Wire path of the grid-execution endpoint.
pub const GRID_PATH: &str = "/v1/grid";
/// Wire path of the liveness endpoint.
pub const HEALTHZ_PATH: &str = "/v1/healthz";
/// Wire path of the per-grid progress endpoint.
pub const PROGRESS_PATH: &str = "/v1/progress";
/// Wire path of the Document 6 serve-manifest endpoint.
pub const TELEMETRY_PATH: &str = "/v1/telemetry";
/// Wire path of the graceful-drain endpoint.
pub const SHUTDOWN_PATH: &str = "/v1/shutdown";
/// Wire path of the Prometheus text exposition endpoint.
pub const METRICS_PATH: &str = "/v1/metrics";
/// Wire path of the structured-log ring endpoint.
pub const LOGS_PATH: &str = "/v1/logs";

/// FNV-1a 64-bit hash — the content-address hash for configs, workload
/// parameters, and cell keys. Chosen because it is tiny, dependency-free,
/// and stable across platforms and releases (the cache key is an on-disk
/// format; see `docs/SERVE.md`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content hash of a config: FNV-1a over its canonical wire form.
///
/// [`config_to_json`] emits fields in a fixed order, so the compact JSON
/// string is canonical and two configs hash equal iff their wire forms
/// are identical.
pub fn config_hash(cfg: &CoreConfig) -> u64 {
    fnv1a64(config_to_json(cfg).to_string().as_bytes())
}

/// Content hash of a workload: FNV-1a over the `Debug` form of its
/// generator parameters (which fully determine the program, including
/// the seed).
pub fn workload_hash(w: &Workload) -> u64 {
    fnv1a64(format!("{:?}", w.params).as_bytes())
}

/// The content address of one grid cell, as 16 lowercase hex digits:
/// FNV-1a over `(config hash, workload hash, seed, instruction budget)`.
/// Two cells share a key iff they would produce identical results.
pub fn cell_key(cfg_hash: u64, wl_hash: u64, seed: u64, warmup: u64, measure: u64) -> String {
    let canon = format!(
        "fdip-cell-v1|cfg={cfg_hash:016x}|wl={wl_hash:016x}|seed={seed}|warmup={warmup}|measure={measure}"
    );
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

fn direction_to_json(d: &DirectionConfig) -> Json {
    match d {
        DirectionConfig::Tage(t) => Json::obj()
            .with("kind", "tage")
            .with("num_tables", t.num_tables as u64)
            .with("entries_log2", u64::from(t.entries_log2))
            .with("tag_bits", u64::from(t.tag_bits))
            .with("min_hist", u64::from(t.min_hist))
            .with("max_hist", u64::from(t.max_hist))
            .with("bimodal_log2", u64::from(t.bimodal_log2)),
        DirectionConfig::Gshare(g) => Json::obj()
            .with("kind", "gshare")
            .with("table_log2", u64::from(g.table_log2))
            .with("hist_bits", u64::from(g.hist_bits)),
        DirectionConfig::Perfect => Json::obj().with("kind", "perfect"),
    }
}

fn cache_cfg_to_json(c: &CacheConfig) -> Json {
    Json::obj()
        .with("size_bytes", c.size_bytes as u64)
        .with("assoc", c.assoc as u64)
        .with("line_bytes", c.line_bytes as u64)
        .with("hit_latency", c.hit_latency)
        .with("mshrs", c.mshrs as u64)
}

/// Serializes a [`CoreConfig`] into its canonical wire form.
///
/// Field names and nesting are specified in `docs/SERVE.md`; the field
/// *order* is part of the cache-key contract (see [`config_hash`]), so
/// new fields must be appended, never reordered.
pub fn config_to_json(cfg: &CoreConfig) -> Json {
    Json::obj()
        .with("fetch_width", cfg.fetch_width as u64)
        .with("decode_width", cfg.decode_width as u64)
        .with("pred_bw", cfg.pred_bw as u64)
        .with("multi_taken", cfg.multi_taken)
        .with("ftq_entries", cfg.ftq_entries as u64)
        .with(
            "btb",
            Json::obj()
                .with("entries", cfg.btb.entries as u64)
                .with("assoc", cfg.btb.assoc as u64),
        )
        .with("btb_latency", cfg.btb_latency)
        .with("perfect_btb", cfg.perfect_btb)
        .with("perfect_indirect", cfg.perfect_indirect)
        .with("direction", direction_to_json(&cfg.direction))
        .with(
            "ittage",
            Json::obj()
                .with("entries_log2", u64::from(cfg.ittage.entries_log2))
                .with("base_log2", u64::from(cfg.ittage.base_log2))
                .with("tag_bits", u64::from(cfg.ittage.tag_bits))
                .with(
                    "hist_lens",
                    Json::Arr(
                        cfg.ittage
                            .hist_lens
                            .iter()
                            .map(|&l| Json::from(u64::from(l)))
                            .collect(),
                    ),
                ),
        )
        .with("policy", cfg.policy.label())
        .with("pfc", cfg.pfc)
        .with("loop_predictor", cfg.loop_predictor)
        .with("prefetcher", cfg.prefetcher.label())
        .with("prefetch_issue_bw", cfg.prefetch_issue_bw as u64)
        .with("redirect_penalty", cfg.redirect_penalty)
        .with("pfc_redirect_penalty", cfg.pfc_redirect_penalty)
        .with("func_warmup", cfg.func_warmup)
        .with(
            "mem",
            Json::obj()
                .with("l1i", cache_cfg_to_json(&cfg.mem.l1i))
                .with("l1d", cache_cfg_to_json(&cfg.mem.l1d))
                .with("l2", cache_cfg_to_json(&cfg.mem.l2))
                .with("llc", cache_cfg_to_json(&cfg.mem.llc))
                .with("dram_latency", cfg.mem.dram_latency),
        )
        .with(
            "backend",
            Json::obj()
                .with("rob_size", cfg.backend.rob_size as u64)
                .with("decode_queue", cfg.backend.decode_queue as u64)
                .with("dispatch_width", cfg.backend.dispatch_width as u64)
                .with("retire_width", cfg.backend.retire_width as u64)
                .with("frontend_depth", cfg.backend.frontend_depth)
                .with("data_hot_bytes", cfg.backend.data_hot_bytes)
                .with("data_total_bytes", cfg.backend.data_total_bytes)
                .with("data_hot_pct", u64::from(cfg.backend.data_hot_pct)),
        )
}

fn req_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn req_usize(v: &Json, key: &str) -> Option<usize> {
    usize::try_from(req_u64(v, key)?).ok()
}

fn req_bool(v: &Json, key: &str) -> Option<bool> {
    v.get(key)?.as_bool()
}

fn direction_from_json(v: &Json) -> Option<DirectionConfig> {
    match v.get("kind")?.as_str()? {
        "tage" => Some(DirectionConfig::Tage(TageConfig {
            num_tables: req_usize(v, "num_tables")?,
            entries_log2: req_u64(v, "entries_log2")? as u32,
            tag_bits: req_u64(v, "tag_bits")? as u32,
            min_hist: req_u64(v, "min_hist")? as u32,
            max_hist: req_u64(v, "max_hist")? as u32,
            bimodal_log2: req_u64(v, "bimodal_log2")? as u32,
        })),
        "gshare" => Some(DirectionConfig::Gshare(GshareConfig {
            table_log2: req_u64(v, "table_log2")? as u32,
            hist_bits: req_u64(v, "hist_bits")? as u32,
        })),
        "perfect" => Some(DirectionConfig::Perfect),
        _ => None,
    }
}

fn cache_cfg_from_json(v: &Json) -> Option<CacheConfig> {
    Some(CacheConfig {
        size_bytes: req_usize(v, "size_bytes")?,
        assoc: req_usize(v, "assoc")?,
        line_bytes: req_usize(v, "line_bytes")?,
        hit_latency: req_u64(v, "hit_latency")?,
        mshrs: req_usize(v, "mshrs")?,
    })
}

fn policy_from_label(label: &str) -> Option<HistoryPolicy> {
    HistoryPolicy::ALL.into_iter().find(|p| p.label() == label)
}

fn prefetcher_from_label(label: &str) -> Option<PrefetcherKind> {
    PrefetcherKind::ALL.into_iter().find(|k| k.label() == label)
}

/// Parses the canonical wire form back into a [`CoreConfig`].
///
/// The exact inverse of [`config_to_json`]; every field is required and
/// enum fields must carry a known label, so a `Some` result always
/// re-serializes to the same canonical string (and therefore the same
/// [`config_hash`]).
pub fn config_from_json(v: &Json) -> Option<CoreConfig> {
    let btb = v.get("btb")?;
    let ittage = v.get("ittage")?;
    let hist_lens_arr = ittage.get("hist_lens")?.as_arr()?;
    if hist_lens_arr.len() != 4 {
        return None;
    }
    let mut hist_lens = [0u32; 4];
    for (slot, l) in hist_lens.iter_mut().zip(hist_lens_arr) {
        *slot = l.as_u64()? as u32;
    }
    let mem = v.get("mem")?;
    let backend = v.get("backend")?;
    Some(CoreConfig {
        fetch_width: req_usize(v, "fetch_width")?,
        decode_width: req_usize(v, "decode_width")?,
        pred_bw: req_usize(v, "pred_bw")?,
        multi_taken: req_bool(v, "multi_taken")?,
        ftq_entries: req_usize(v, "ftq_entries")?,
        btb: BtbConfig {
            entries: req_usize(btb, "entries")?,
            assoc: req_usize(btb, "assoc")?,
        },
        btb_latency: req_u64(v, "btb_latency")?,
        perfect_btb: req_bool(v, "perfect_btb")?,
        perfect_indirect: req_bool(v, "perfect_indirect")?,
        direction: direction_from_json(v.get("direction")?)?,
        ittage: IttageConfig {
            entries_log2: req_u64(ittage, "entries_log2")? as u32,
            base_log2: req_u64(ittage, "base_log2")? as u32,
            tag_bits: req_u64(ittage, "tag_bits")? as u32,
            hist_lens,
        },
        policy: policy_from_label(v.get("policy")?.as_str()?)?,
        pfc: req_bool(v, "pfc")?,
        loop_predictor: req_bool(v, "loop_predictor")?,
        prefetcher: prefetcher_from_label(v.get("prefetcher")?.as_str()?)?,
        prefetch_issue_bw: req_usize(v, "prefetch_issue_bw")?,
        redirect_penalty: req_u64(v, "redirect_penalty")?,
        pfc_redirect_penalty: req_u64(v, "pfc_redirect_penalty")?,
        func_warmup: req_u64(v, "func_warmup")?,
        mem: HierarchyConfig {
            l1i: cache_cfg_from_json(mem.get("l1i")?)?,
            l1d: cache_cfg_from_json(mem.get("l1d")?)?,
            l2: cache_cfg_from_json(mem.get("l2")?)?,
            llc: cache_cfg_from_json(mem.get("llc")?)?,
            dram_latency: req_u64(mem, "dram_latency")?,
        },
        backend: BackendConfig {
            rob_size: req_usize(backend, "rob_size")?,
            decode_queue: req_usize(backend, "decode_queue")?,
            dispatch_width: req_usize(backend, "dispatch_width")?,
            retire_width: req_usize(backend, "retire_width")?,
            frontend_depth: req_u64(backend, "frontend_depth")?,
            data_hot_bytes: req_u64(backend, "data_hot_bytes")?,
            data_total_bytes: req_u64(backend, "data_total_bytes")?,
            data_hot_pct: req_u64(backend, "data_hot_pct")? as u8,
        },
    })
}

/// Builds the `POST /v1/grid` request body for a config × workload grid.
pub fn grid_request(
    client: &str,
    suite: &str,
    warmup: u64,
    measure: u64,
    cfgs: &[CoreConfig],
) -> Json {
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("client", client)
        .with("suite", suite)
        .with("warmup_instrs", warmup)
        .with("measure_instrs", measure)
        .with(
            "configs",
            Json::Arr(cfgs.iter().map(config_to_json).collect()),
        )
}

/// Sends one HTTP/1.1 request with an optional JSON body to `addr` and
/// returns `(status code, parsed JSON body)`.
///
/// The exchange is deliberately minimal: `Connection: close`, a
/// `Content-Length` body in each direction, no keep-alive, no chunking.
/// Large grids can simulate for a while, so the read timeout is generous
/// (10 minutes); connect/write failures surface immediately.
pub fn http_json_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> io::Result<(u16, Json)> {
    let (status, bytes) = http_request(addr, method, path, body)?;
    let json =
        Json::parse_bytes(&bytes).map_err(|e| io::Error::other(format!("bad json body: {e}")))?;
    Ok((status, json))
}

/// Like [`http_json_request`] but returns the raw body text — for
/// endpoints whose responses are not JSON (`/v1/metrics` serves
/// Prometheus text exposition).
pub fn http_text_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> io::Result<(u16, String)> {
    let (status, bytes) = http_request(addr, method, path, body)?;
    let text = String::from_utf8(bytes).map_err(|e| io::Error::other(format!("bad utf8: {e}")))?;
    Ok((status, text))
}

/// One request/response exchange; returns the status and the raw body.
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> io::Result<(u16, Vec<u8>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let payload = body.map(Json::to_string).unwrap_or_default();
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    );
    req.push_str(&payload);
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(req.as_bytes())?;

    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok((status, body))
}

/// Extracts `error.code` from an error response body, for messages.
fn error_code(body: &Json) -> &str {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("unknown")
}

/// A connection-per-request client for one `fdip-serve` daemon.
#[derive(Clone, Debug)]
pub struct RemoteClient {
    addr: String,
    client: String,
}

impl RemoteClient {
    /// Creates a client for the daemon at `addr` (`host:port`),
    /// identifying itself as `client` in per-client serve telemetry.
    pub fn new(addr: &str, client: &str) -> RemoteClient {
        RemoteClient {
            addr: addr.to_string(),
            client: client.to_string(),
        }
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Submits a grid and returns per-config, suite-ordered results —
    /// the same shape `Runner::run_configs_detailed` produces locally.
    ///
    /// `workloads` is the expected suite length; a response with any
    /// other cell count is rejected as a protocol error.
    pub fn run_grid(
        &self,
        suite: &str,
        warmup: u64,
        measure: u64,
        cfgs: &[CoreConfig],
        workloads: usize,
    ) -> io::Result<Vec<Vec<(SimStats, SimDists)>>> {
        // Client-side scrape surface: the process-wide registry, since a
        // client outlives any single daemon connection.
        let submitted = |outcome: &str| {
            fdip_obs::metrics::global()
                .counter_with(
                    "fdip_client_grid_requests_total",
                    "Grid submissions sent by this process, by HTTP-level outcome",
                    &[("outcome", outcome)],
                )
                .inc();
        };
        let request = grid_request(&self.client, suite, warmup, measure, cfgs);
        let (status, body) = match http_json_request(&self.addr, "POST", GRID_PATH, Some(&request))
        {
            Ok(reply) => reply,
            Err(e) => {
                submitted("io_error");
                return Err(e);
            }
        };
        if status != 200 {
            submitted("http_error");
            return Err(io::Error::other(format!(
                "grid request failed: HTTP {status} ({})",
                error_code(&body)
            )));
        }
        submitted("ok");
        let cells = body
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| io::Error::other("response has no cells array"))?;
        if cells.len() != cfgs.len() * workloads {
            return Err(io::Error::other(format!(
                "expected {} cells, got {}",
                cfgs.len() * workloads,
                cells.len()
            )));
        }
        fdip_obs::metrics::global()
            .counter(
                "fdip_client_cells_received_total",
                "Grid cells received by this process from fdip-serve daemons",
            )
            .add(cells.len() as u64);
        fdip_obs::log::debug(
            "harness",
            "grid served",
            &[
                ("addr", self.addr.as_str().into()),
                ("suite", suite.into()),
                ("cells", (cells.len() as u64).into()),
            ],
        );
        let mut parsed = Vec::with_capacity(cells.len());
        for cell in cells {
            let stats = cell
                .get("stats")
                .and_then(SimStats::from_json)
                .ok_or_else(|| io::Error::other("cell has no parseable stats"))?;
            let dists = cell
                .get("dists")
                .and_then(SimDists::from_json)
                .ok_or_else(|| io::Error::other("cell has no parseable dists"))?;
            parsed.push((stats, dists));
        }
        let mut flat = parsed.into_iter();
        Ok(cfgs
            .iter()
            .map(|_| (&mut flat).take(workloads).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_codec_round_trips_every_field() {
        // A config that differs from every default, so a field that is
        // dropped, misread, or defaulted breaks the Debug comparison.
        let cfg = CoreConfig {
            fetch_width: 8,
            decode_width: 7,
            pred_bw: 18,
            multi_taken: true,
            ftq_entries: 12,
            btb: BtbConfig {
                entries: 1024,
                assoc: 8,
            },
            btb_latency: 3,
            perfect_btb: true,
            perfect_indirect: true,
            direction: DirectionConfig::Gshare(GshareConfig {
                table_log2: 14,
                hist_bits: 13,
            }),
            policy: HistoryPolicy::Ghr2,
            pfc: false,
            loop_predictor: true,
            prefetcher: PrefetcherKind::SnfourlDisBtb,
            prefetch_issue_bw: 4,
            redirect_penalty: 2,
            pfc_redirect_penalty: 3,
            func_warmup: 12_345,
            ..CoreConfig::default()
        };
        let round = config_from_json(&config_to_json(&cfg)).expect("parses");
        assert_eq!(format!("{round:?}"), format!("{cfg:?}"));
        assert_eq!(config_hash(&round), config_hash(&cfg));
        // And through the parser, as the server receives it.
        let text = config_to_json(&cfg).to_string();
        let reparsed = config_from_json(&Json::parse(&text).unwrap()).expect("parses");
        assert_eq!(format!("{reparsed:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn config_codec_round_trips_tage_and_perfect_direction() {
        for direction in [
            DirectionConfig::Tage(TageConfig::kb18()),
            DirectionConfig::Perfect,
        ] {
            let cfg = CoreConfig {
                direction,
                ..CoreConfig::default()
            };
            let round = config_from_json(&config_to_json(&cfg)).expect("parses");
            assert_eq!(format!("{round:?}"), format!("{cfg:?}"));
        }
    }

    #[test]
    fn every_prefetcher_and_policy_label_round_trips() {
        for kind in PrefetcherKind::ALL {
            assert_eq!(prefetcher_from_label(kind.label()), Some(kind));
        }
        for policy in HistoryPolicy::ALL {
            assert_eq!(policy_from_label(policy.label()), Some(policy));
        }
        assert_eq!(prefetcher_from_label("bogus"), None);
        assert_eq!(policy_from_label("bogus"), None);
    }

    #[test]
    fn config_hash_separates_configs_and_is_stable() {
        let a = CoreConfig::fdp();
        let b = CoreConfig::no_fdp();
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a), config_hash(&CoreConfig::fdp()));
        // FNV-1a reference vector: hash of the empty string.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cell_keys_distinguish_every_component() {
        let base = cell_key(1, 2, 3, 4, 5);
        assert_eq!(base.len(), 16);
        assert_ne!(base, cell_key(9, 2, 3, 4, 5));
        assert_ne!(base, cell_key(1, 9, 3, 4, 5));
        assert_ne!(base, cell_key(1, 2, 9, 4, 5));
        assert_ne!(base, cell_key(1, 2, 3, 9, 5));
        assert_ne!(base, cell_key(1, 2, 3, 4, 9));
        assert_eq!(base, cell_key(1, 2, 3, 4, 5));
    }

    #[test]
    fn malformed_configs_are_rejected() {
        let good = config_to_json(&CoreConfig::fdp());
        assert!(config_from_json(&good).is_some());
        assert!(config_from_json(&good.clone().with("policy", "nope")).is_none());
        assert!(config_from_json(&good.clone().with("pfc", Json::Null)).is_none());
        assert!(config_from_json(&Json::obj()).is_none());
    }
}
