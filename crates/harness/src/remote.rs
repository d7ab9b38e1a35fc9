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

use fdip_program::workload::Workload;
use fdip_sim::{CoreConfig, SimDists, SimStats, Wire};
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

/// Serializes a [`CoreConfig`] into its canonical wire form
/// (`docs/SERVE.md`). Field *order* is part of the cache-key contract
/// (see [`config_hash`]): new fields are appended, never reordered.
pub fn config_to_json(cfg: &CoreConfig) -> Json {
    cfg.encode()
}

/// The exact inverse of [`config_to_json`]. Every field is required, and
/// a value that does not fit its field or lies outside the range the
/// simulator can build is rejected, so a `Some` result always simulates
/// and re-serializes to the same canonical string and [`config_hash`].
pub fn config_from_json(v: &Json) -> Option<CoreConfig> {
    CoreConfig::decode(v)
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
        let request = grid_request(&self.client, suite, warmup, measure, cfgs);
        let (status, body) = http_json_request(&self.addr, "POST", GRID_PATH, Some(&request))?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "grid request failed: HTTP {status} ({})",
                error_code(&body)
            )));
        }
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
    use fdip_bpred::{BtbConfig, GshareConfig, HistoryPolicy, TageConfig};
    use fdip_prefetch::PrefetcherKind;
    use fdip_sim::DirectionConfig;

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
            assert_eq!(kind.encode(), Json::from(kind.label()));
            assert_eq!(PrefetcherKind::decode(&kind.encode()), Some(kind));
        }
        for policy in HistoryPolicy::ALL {
            assert_eq!(HistoryPolicy::decode(&policy.encode()), Some(policy));
        }
        assert_eq!(PrefetcherKind::decode(&Json::from("bogus")), None);
        assert_eq!(HistoryPolicy::decode(&Json::from("bogus")), None);
    }

    #[test]
    fn config_hash_separates_configs_and_is_stable() {
        let a = CoreConfig::fdp();
        let b = CoreConfig::no_fdp();
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a), config_hash(&CoreConfig::fdp()));
        // Every stored cache key depends on these canonical bytes; the
        // values were measured before the codec was derived from the
        // config structs' field lists.
        assert_eq!(config_hash(&a), 0x5da7_f142_5c98_b5b3);
        assert_eq!(config_hash(&b), 0xfd4f_879e_332c_0670);
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
        let with = |group: &str, key: &str, value: Json| {
            let mut inner = good.get(group).cloned().unwrap();
            inner.set(key, value);
            good.clone().with(group, inner)
        };
        let rejected = [
            good.clone().with("policy", "nope"),
            good.clone().with("pfc", Json::Null),
            Json::obj(),
            // Each of these once reached the simulator: a BTB with no
            // ways and a TAGE fold wider than 31 bits panicked in the
            // constructors; 2^32 + 9 was truncated to TAGE size 9.
            with("btb", "assoc", Json::from(0u64)),
            with("direction", "entries_log2", Json::from(40u64)),
            with("direction", "entries_log2", Json::from(4_294_967_305u64)),
            with("btb", "entries", Json::from(3000u64)),
            with("direction", "min_hist", Json::from(300u64)),
            with("direction", "kind", Json::from("oracle")),
            with("ittage", "hist_lens", Json::from(vec![12u32, 40, 120])),
            with("ittage", "hist_lens", Json::from(vec![12u32, 40, 120, 600])),
            with("backend", "data_hot_pct", Json::from(256u64)),
            // A hot data region as large as, or larger than, the whole
            // data set divides by zero (or underflows) in the simulator.
            with("backend", "data_hot_bytes", Json::from(8u64 << 20)),
            with("backend", "data_total_bytes", Json::from(1024u64)),
            good.clone().with("fetch_width", 0u64),
            good.clone().with("ftq_entries", 0u64),
            good.clone().with("btb_latency", 3_000_000u64),
        ];
        for (i, bad) in rejected.iter().enumerate() {
            assert!(config_from_json(bad).is_none(), "case {i} was accepted");
        }
    }

    #[test]
    fn the_benchmark_serve_grid_passes_validation() {
        // Sweeps check their configs where they start
        // (`Runner::run_configs_detailed`); the benchmark's serve grid
        // reaches the daemon without a runner.
        for entries in [512, 1024, 2048, 4096, 8192, 16384] {
            for ftq in [8, 12, 16, 24, 32] {
                for policy in HistoryPolicy::ALL {
                    for pfc in [false, true] {
                        let cfg = CoreConfig::fdp()
                            .with_btb_entries(entries)
                            .with_pfc(pfc)
                            .with_ftq(ftq)
                            .with_policy(policy);
                        assert!(config_from_json(&config_to_json(&cfg)).is_some());
                    }
                }
            }
        }
    }
}
