//! `serve`: an in-process `fdip-serve` daemon on an ephemeral port with
//! its own state directory and a private pool of `--jobs` workers, driven
//! by one closed-loop client (one connection at a time). One op is one
//! grid request.
//!
//! Set-up spawns the daemon and sends a priming grid of 24 configs (72
//! cells at 20K/80K) from the seed's shuffle of BTB entries × PFC × FTQ
//! depth × history policy. Each round then sends one cold grid (the next
//! unseen config × the 3 quick workloads, so the cells simulate and are
//! written to the cache and journal) and 20 warm resubmissions of the
//! priming grid, which never reach the simulator: they exercise only
//! HTTP, cache reads and the JSON codec. The warm grid is the one input
//! `best_pass_ms` reads; cold grids never repeat, so they are timed for
//! their own headline figure only.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fdip_bpred::HistoryPolicy;
use fdip_exec::Pool;
use fdip_harness::remote::{grid_request, http_json_request, GRID_PATH, TELEMETRY_PATH};
use fdip_harness::{RemoteClient, Runner};
use fdip_program::workload;
use fdip_serve::{Server, ServerConfig};
use fdip_sim::{CoreConfig, SimDists, SimStats};
use fdip_telemetry::{Json, ToJson};

use crate::metrics::Values;
use crate::probes::{self, Pair};
use crate::run::{build_all, Ctx, RunOpts, Tally, Workload};
use crate::spans::Spans;
use crate::stats;

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 80_000;
const PRIME_CONFIGS: usize = 24;
const WARM_PER_ROUND: usize = 20;
/// Warm grids the traced daemon of `probe` serves after its cold one.
const PROBE_WARM_GRIDS: usize = 10;
const CLIENT: &str = "fdip-benchmark";

type Cells = Vec<(SimStats, SimDists)>;

/// BTB entries × PFC × FTQ depth × history policy, in a seeded order.
pub fn config_grid(seed: u64) -> Vec<CoreConfig> {
    let mut grid = Vec::new();
    for entries in [512, 1024, 2048, 4096, 8192, 16384] {
        for pfc in [false, true] {
            for ftq in [8, 12, 16, 24, 32] {
                for policy in HistoryPolicy::ALL {
                    grid.push(
                        CoreConfig::fdp()
                            .with_btb_entries(entries)
                            .with_pfc(pfc)
                            .with_ftq(ftq)
                            .with_policy(policy),
                    );
                }
            }
        }
    }
    // Fisher-Yates driven by SplitMix64.
    let mut state = seed ^ 0x5eed_f00d_cafe_d00d;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..grid.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        grid.swap(i, j);
    }
    grid
}

/// Cells in their wire form. `SimDists` carries sampling state the wire
/// form leaves out, so a served cell equals a local one only here.
fn wire(cells: &Cells) -> Vec<String> {
    cells
        .iter()
        .map(|(s, d)| format!("{}|{}", s.to_json().to_string(), d.to_json().to_string()))
        .collect()
}

/// A decoded grid reply.
struct Reply {
    grid_id: String,
    cells: Cells,
}

/// One grid request as `RemoteClient::run_grid` makes it, split into
/// its encode, HTTP and decode calls so each gets a span.
fn post_grid(spans: &mut Spans, addr: &str, cfgs: &[CoreConfig]) -> Result<Reply, String> {
    let body = spans.time("harness.grid_encode", || {
        grid_request(CLIENT, "quick", WARMUP, MEASURE, cfgs)
    });
    let (status, reply) = spans
        .time("serve.http", || {
            http_json_request(addr, "POST", GRID_PATH, Some(&body))
        })
        .map_err(|e| format!("grid request: {e}"))?;
    if status != 200 {
        return Err(format!("grid request: HTTP {status}"));
    }
    spans.time("harness.cells_decode", || decode(&reply, cfgs.len()))
}

fn decode(reply: &Json, configs: usize) -> Result<Reply, String> {
    let cells = reply
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("reply has no cells")?;
    let want = configs * workload::quick_suite().len();
    if cells.len() != want {
        return Err(format!("reply has {} cells, want {want}", cells.len()));
    }
    let cells = cells
        .iter()
        .map(|c| {
            let stats = c.get("stats").and_then(SimStats::from_json);
            let dists = c.get("dists").and_then(SimDists::from_json);
            stats.zip(dists).ok_or("cell does not decode")
        })
        .collect::<Result<Cells, _>>()?;
    let grid_id = reply.get("grid_id").and_then(Json::as_str).unwrap_or("");
    Ok(Reply {
        grid_id: grid_id.to_string(),
        cells,
    })
}

fn spawn(dir: PathBuf, jobs: usize, trace_dir: Option<PathBuf>) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(dir);
    config.jobs = Some(jobs);
    config.trace_dir = trace_dir;
    Server::spawn(config).map_err(|e| format!("spawning fdip-serve: {e}"))
}

pub struct Serve {
    server: Option<Server>,
    addr: String,
    dir: PathBuf,
    out_dir: PathBuf,
    jobs: usize,
    grid: Vec<CoreConfig>,
    next_cold: usize,
    prime_cells: Cells,
    first_cold: Option<(CoreConfig, Cells)>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl Serve {
    pub fn setup(opts: &RunOpts, rep: usize) -> Result<Serve, String> {
        let dir = opts
            .out_dir
            .join(format!("serve-{}-{rep}", std::process::id()));
        let server = spawn(dir.clone(), opts.jobs, None)?;
        let addr = server.addr().to_string();
        let grid = config_grid(opts.seed);
        let prime = post_grid(&mut Spans::new(false), &addr, &grid[..PRIME_CONFIGS])?;
        Ok(Serve {
            server: Some(server),
            addr,
            dir,
            out_dir: opts.out_dir.clone(),
            jobs: opts.jobs,
            grid,
            next_cold: PRIME_CONFIGS,
            prime_cells: prime.cells,
            first_cold: None,
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
        })
    }

    /// The daemon's own grid spans (`ServerConfig::trace_dir`) and cell
    /// counters, from a second, traced daemon serving the priming grid
    /// once cold and `PROBE_WARM_GRIDS` times warm. Each phase is
    /// reported as a share of the client's round trips on the grids it
    /// runs in: `simulate` on the cold grid, `classify` and `assemble`
    /// on the warm ones. With one closed-loop client no cell ever
    /// coalesces, so `wait_coalesced` never runs.
    fn server_spans(&self, v: &mut Values) -> Result<(), String> {
        let dir = self
            .out_dir
            .join(format!("serve-probe-{}", std::process::id()));
        let traces = dir.join("traces");
        let server = spawn(dir.clone(), self.jobs, Some(traces.clone()))?;
        let addr = server.addr().to_string();
        let prime = &self.grid[..PRIME_CONFIGS];
        let mut fold = || -> Result<[f64; 3], String> {
            // Per phase: (time in the phase, round trips it ran in), ms.
            let mut phases = [(0.0, 0.0); 3];
            for grid in 0..=PROBE_WARM_GRIDS {
                let t = Instant::now();
                let reply = post_grid(&mut Spans::new(false), &addr, prime)?;
                let round_trip_ms = t.elapsed().as_secs_f64() * 1e3;
                let path = traces.join(format!("grid-{}.json", reply.grid_id));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("grid trace: {e}"))?;
                let cold = grid == 0;
                for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
                    let k = match ev.get("name").and_then(Json::as_str) {
                        Some("classify") if !cold => 0,
                        Some("simulate") if cold => 1,
                        Some("assemble") if !cold => 2,
                        _ => continue,
                    };
                    phases[k].0 += ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
                    phases[k].1 += round_trip_ms;
                }
            }
            let (status, doc) = http_json_request(&addr, "GET", TELEMETRY_PATH, None)
                .map_err(|e| format!("telemetry: {e}"))?;
            if status != 200 {
                return Err(format!("telemetry: HTTP {status}"));
            }
            let cells = doc.get("serve").and_then(|s| s.get("cells"));
            for (metric, key) in [
                ("serve.cache_hits", "cache_hits"),
                ("serve.cache_misses", "cache_misses"),
                ("serve.cells_simulated", "simulated"),
                ("serve.cells_coalesced", "coalesced"),
            ] {
                let n = cells.and_then(|c| c.get(key)).and_then(Json::as_f64);
                v.set(metric, n.ok_or(format!("telemetry has no cells.{key}"))?);
            }
            Ok(phases.map(|(ms, of)| if of > 0.0 { ms / of } else { 0.0 }))
        };
        let folded = fold();
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        let [classify, simulate, assemble] = folded?;
        v.set("serve.classify_share", classify);
        v.set("serve.simulate_share", simulate);
        v.set("serve.assemble_share", assemble);
        Ok(())
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Serve {
    fn round(&mut self, ctx: &mut Ctx) {
        let addr = self.addr.as_str();
        if let Some(cfg) = self.grid.get(self.next_cold).cloned() {
            self.next_cold += 1;
            let reply = ctx.op(None, |spans| {
                post_grid(spans, addr, std::slice::from_ref(&cfg))
            });
            self.cold_ms.push(ctx.last_ms());
            let first = &mut self.first_cold;
            ctx.check(|| {
                first.get_or_insert((cfg, reply?.cells));
                Ok(())
            });
        }
        let prime = &self.grid[..PRIME_CONFIGS];
        for _ in 0..WARM_PER_ROUND {
            let reply = ctx.op(Some(0), |spans| post_grid(spans, addr, prime));
            self.warm_ms.push(ctx.last_ms());
            let want = &self.prime_cells;
            ctx.check(|| {
                if &reply?.cells == want {
                    Ok(())
                } else {
                    Err("a warm cell differs from its cold reply".to_string())
                }
            });
        }
    }

    fn reset_phase(&mut self) {
        self.cold_ms.clear();
        self.warm_ms.clear();
    }

    fn headline(&self, v: &mut Values) {
        v.set("grid_cold_p50_ms", stats::median(&self.cold_ms));
        v.set("grid_warm_p50_ms", stats::median(&self.warm_ms));
        if let Some((tail, _)) = stats::tail(&self.warm_ms) {
            v.set("grid_warm_tail_ms", tail);
        }
    }

    /// The first cold config's served cells must equal a local run, and
    /// `RemoteClient` must read the same cells back from the cache.
    fn verify(&mut self, tally: &mut Tally) {
        let Some((cfg, served)) = &self.first_cold else {
            tally.record(Err("no cold grid was served".to_string()));
            return;
        };
        let local = Runner::quick(WARMUP, MEASURE)
            .with_pool(Arc::new(Pool::new(self.jobs)))
            .run_config_detailed(cfg);
        tally.record(if wire(&local) == wire(served) {
            Ok(())
        } else {
            Err("served cold cells differ from a local Runner run".to_string())
        });
        let client = RemoteClient::new(&self.addr, CLIENT);
        let cfgs = std::slice::from_ref(cfg);
        tally.record(
            match client.run_grid("quick", WARMUP, MEASURE, cfgs, local.len()) {
                Ok(grid) if grid.first().map(wire) == Some(wire(&local)) => Ok(()),
                Ok(_) => Err("RemoteClient read back different cells".to_string()),
                Err(e) => Err(format!("RemoteClient: {e}")),
            },
        );
    }

    fn rebuild_programs(&self) -> usize {
        build_all(&workload::quick_suite())
    }

    /// The first priming config over the quick suite the daemon builds.
    fn probe_pairs(&self) -> (Vec<Pair>, u64, u64) {
        let programs: Vec<_> = workload::quick_suite()
            .iter()
            .map(|w| Arc::new(w.build()))
            .collect();
        (probes::pairs(&self.grid[..1], &programs), WARMUP, MEASURE)
    }

    fn probe(&mut self, v: &mut Values) -> Result<(), String> {
        self.server_spans(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_grid_is_a_seeded_permutation() {
        let a = config_grid(1);
        assert_eq!(a.len(), 6 * 2 * 5 * HistoryPolicy::ALL.len());
        assert_eq!(format!("{a:?}"), format!("{:?}", config_grid(1)));
        assert_ne!(format!("{a:?}"), format!("{:?}", config_grid(2)));
        let mut keys: Vec<String> = a.iter().map(|c| format!("{c:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.len(), "configs repeat");
    }
}
