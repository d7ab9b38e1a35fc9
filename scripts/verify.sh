#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting, docs.
#
# This is what CI runs (quick-suite scale — FDIP_SUITE=quick is set for
# the integration tests' child processes via the tests themselves). All
# cargo invocations are --offline: the two external dependencies
# resolve to in-tree stand-ins under vendor/ (see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy"
# The workspace lints (Cargo.toml [workspace.lints] plus clippy.toml;
# README "Lints") run first: they catch determinism hazards, hot-path
# panics, discarded Results, unsafe code and bare Condvar waits before
# the expensive steps.
cargo clippy --offline --workspace --all-targets -- -D warnings

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> result identity in release builds"
# The benchmark runs release code, while the tests above run at
# opt-level 2 with debug assertions and overflow checks. The pinned
# digests must hold in both builds.
cargo test -q --release --offline --test result_identity --test loop_identity

echo "==> determinism smoke: FDIP_JOBS=1 vs FDIP_JOBS=2"
# A quick-suite experiments run must produce byte-identical JSON for any
# worker count once the volatile manifest fields are stripped
# (docs/METRICS.md: wall_seconds, generated_unix, git_revision, pool).
for jobs in 1 2; do
  FDIP_SUITE=quick FDIP_WARMUP=2000 FDIP_INSTRS=10000 FDIP_JOBS="$jobs" \
    ./target/release/fdip-experiments --json "$tmp/j$jobs.json" fig7 fig9 \
    > /dev/null
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/j$jobs.json" > "$tmp/j$jobs.stripped.json"
done
diff -u "$tmp/j1.stripped.json" "$tmp/j2.stripped.json"
echo "    identical results at 1 and 2 workers"

echo "==> trace smoke: --trace emits a valid Chrome trace"
# A short traced run must produce a trace_event document the in-repo
# JSON parser accepts, with nonzero event counts and cycle-monotonic
# timestamps (checked by examples/check_trace.rs).
./target/release/fdip-run --workload server_a --warmup 2000 --instrs 10000 \
  --trace "$tmp/trace.json" --trace-limit 20000 > /dev/null
cargo run -q --release --offline --example check_trace -- "$tmp/trace.json" \
  | tail -n 1
# Tracing must not perturb results: a traced run's stripped results.json
# is byte-identical to an untraced one.
FDIP_WARMUP=2000 FDIP_INSTRS=10000 ./target/release/fdip-run \
  --workload server_a --json "$tmp/untraced.json" > /dev/null
FDIP_WARMUP=2000 FDIP_INSTRS=10000 ./target/release/fdip-run \
  --workload server_a --json "$tmp/traced.json" \
  --trace "$tmp/trace2.json" > /dev/null
for f in untraced traced; do
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/$f.json" > "$tmp/$f.stripped.json"
done
diff -u "$tmp/untraced.stripped.json" "$tmp/traced.stripped.json"
echo "    tracing leaves results byte-identical"

echo "==> serve smoke: served sweep == local sweep, then 100% cache hits"
# Start the daemon on an ephemeral port — with observability fully on
# (debug logging, a log file, span tracing) so the byte-identity diff
# below doubles as the obs-on vs obs-off determinism gate
# (docs/OBSERVABILITY.md) — run the same quick sweep as the determinism
# smoke through it, and require the stripped results to be byte-identical
# to the local run above (docs/SERVE.md "Determinism guarantee"). A
# second served pass must hit only the cache. Then one stats value in a
# cache entry is edited so every line still parses: the third pass must
# treat that entry as a miss (docs/SERVE.md "Cache entries"), simulate
# exactly that one cell again, and still match the local run. The daemon
# must drain cleanly on ctl shutdown and leave an empty journal.
./target/release/fdip-serve --addr 127.0.0.1:0 --state-dir "$tmp/serve-state" \
  --log debug --log-file "$tmp/serve-file.log" --trace-dir "$tmp/serve-traces" \
  --port-file "$tmp/serve.addr" > "$tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/serve.addr" ] && break
  sleep 0.1
done
addr="$(cat "$tmp/serve.addr")"
served_pass() {
  FDIP_SUITE=quick FDIP_WARMUP=2000 FDIP_INSTRS=10000 \
    ./target/release/fdip-experiments --server "$addr" \
    --json "$tmp/served$1.json" fig7 fig9 > /dev/null
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/served$1.json" > "$tmp/served$1.stripped.json"
  diff -u "$tmp/j1.stripped.json" "$tmp/served$1.stripped.json"
}
cells_simulated() {
  ./target/release/fdip-serve ctl "$addr" metrics \
    | awk '$1 == "fdip_serve_cells_simulated_total" { print $2 }'
}
for pass in 1 2; do
  served_pass "$pass"
done
entry="$(ls "$tmp"/serve-state/cache/*.json | head -n 1)"
cp "$entry" "$tmp/entry.orig"
sed -i '3s/^{"counters":{"cycles":\([0-9]\)/{"counters":{"cycles":1\1/' "$entry"
if cmp -s "$entry" "$tmp/entry.orig"; then
  echo "could not edit a stats value in $entry" >&2
  exit 1
fi
before="$(cells_simulated)"
served_pass 3
after="$(cells_simulated)"
if [ "$after" -ne $((before + 1)) ]; then
  echo "edited cache entry: cells_simulated went $before -> $after, want +1" >&2
  exit 1
fi
./target/release/fdip-serve ctl "$addr" telemetry > "$tmp/serve-telemetry.json"
# Observability smoke (docs/OBSERVABILITY.md "Enforcement"): ctl metrics
# exits nonzero unless the scrape passes the in-repo exposition
# validator; the scrape must cover the catalog's breadth; ctl tail must
# page the structured log ring; every grid must have written a Chrome
# trace that examples/check_trace.rs accepts; and the daemon's own log
# file must hold JSON records.
./target/release/fdip-serve ctl "$addr" metrics > "$tmp/serve-metrics.txt"
families="$(grep -c '^# TYPE fdip_' "$tmp/serve-metrics.txt")"
if [ "$families" -lt 12 ]; then
  echo "scrape covers only $families families" >&2
  exit 1
fi
grep -q '^fdip_serve_cells_simulated_total ' "$tmp/serve-metrics.txt"
# Document 6 is a view of the registry: each value the benchmark's traced
# serve run reads, and grids completed, must equal its scrape family.
# doc6 <group> <key> prints serve.<group>.<key> from the pretty-printed
# ctl telemetry output.
doc6() {
  awk -v group="\"$1\":" -v key="\"$2\":" '
    $1 == group && $2 == "{" { inside = 1; next }
    inside && $1 == key { sub(/,$/, "", $2); print $2; exit }
    inside && $1 ~ /^}/ { inside = 0 }' "$tmp/serve-telemetry.json"
}
for pair in cells.cache_hits=fdip_serve_cell_cache_hits_total \
  cells.cache_misses=fdip_serve_cell_cache_misses_total \
  cells.simulated=fdip_serve_cells_simulated_total \
  cells.coalesced=fdip_serve_cells_coalesced_total \
  grids.completed=fdip_serve_grids_completed_total; do
  path="${pair%%=*}" family="${pair#*=}"
  doc="$(doc6 "${path%.*}" "${path#*.}")"
  scraped="$(awk -v f="$family" '$1 == f { print $2 }' "$tmp/serve-metrics.txt")"
  if [ -z "$doc" ] || [ "$doc" != "$scraped" ]; then
    echo "Document 6 serve.$path is '$doc' but $family scrapes '$scraped'" >&2
    exit 1
  fi
done
./target/release/fdip-serve ctl "$addr" tail --limit 1024 > "$tmp/serve-tail.txt"
grep -q 'grid admitted' "$tmp/serve-tail.txt"
ls "$tmp"/serve-traces/grid-*.json > /dev/null
for trace in "$tmp"/serve-traces/grid-*.json; do
  cargo run -q --release --offline --example check_trace -- "$trace" > /dev/null
done
grep -q '"msg":"daemon started"' "$tmp/serve-file.log"
# Shuts the daemon at $1 (pid $2) down. A daemon that never drains fails
# the gate instead of hanging it.
shutdown_drained() {
  ./target/release/fdip-serve ctl "$1" shutdown > /dev/null
  for _ in $(seq 1 600); do
    kill -0 "$2" 2> /dev/null || break
    sleep 0.1
  done
  if kill -0 "$2" 2> /dev/null; then
    echo "fdip-serve did not drain within 60 s of ctl shutdown" >&2
    kill "$2"
    exit 1
  fi
  wait "$2"
}
shutdown_drained "$addr" "$serve_pid"
test -f "$tmp/serve-state/journal.log"
if [ -s "$tmp/serve-state/journal.log" ]; then
  echo "journal.log is not empty after the daemon drained" >&2
  exit 1
fi
echo "    served results byte-identical to local; edited entry re-simulated;"
echo "    obs surfaces live; daemon drained with an empty journal"

echo "==> serve budget smoke: a zero grid budget answers 408, the client falls back"
# A daemon on a fresh state dir with a zero per-grid budget skips every
# cell and answers each grid 408 timeout. The stock client then runs the
# sweep locally (docs/SERVE.md "Error responses"), so the stripped
# results must still equal the local run, and the scrape must count the
# timed-out grid. The journal keeps timed-out grids for resume, so it is
# not required to be empty; the drain is.
./target/release/fdip-serve --addr 127.0.0.1:0 --state-dir "$tmp/budget-state" \
  --jobs 1 --grid-timeout-ms 0 --port-file "$tmp/budget.addr" \
  > "$tmp/budget.log" 2>&1 &
budget_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/budget.addr" ] && break
  sleep 0.1
done
addr="$(cat "$tmp/budget.addr")"
served_pass budget
interrupted="$(./target/release/fdip-serve ctl "$addr" metrics \
  | awk '$1 == "fdip_serve_grids_interrupted_total" { print $2 }')"
if [ "${interrupted:-0}" -lt 1 ]; then
  echo "zero-budget daemon counted ${interrupted:-no} interrupted grids, want >= 1" >&2
  exit 1
fi
shutdown_drained "$addr" "$budget_pid"
echo "    408 fell back to local with identical results; daemon drained"

echo "==> fuzz smoke: differential invariants, report determinism, injection"
# The fuzz gate (docs/FUZZ.md): a fixed-seed campaign must pass every
# invariant on every generated program, its Document 7 report must be
# byte-identical across worker counts (the report is clock- and
# host-free by construction), and a deliberately injected invariant
# break must be caught, exit nonzero, and shrink to a replayable case.
for jobs in 2 3; do
  ./target/release/fdip-fuzz run --seed 7 --count 64 --jobs "$jobs" \
    --json "$tmp/fuzz-j$jobs.json" 2> /dev/null
done
diff -u "$tmp/fuzz-j2.json" "$tmp/fuzz-j3.json"
grep -q '"failures": 0' "$tmp/fuzz-j2.json"
grep -q '"tool": "fdip-fuzz"' "$tmp/fuzz-j2.json"
if ./target/release/fdip-fuzz run --seed 7 --count 2 --profile tiny \
    --inject stall-leak --cases "$tmp/fuzz-cases" \
    --json "$tmp/fuzz-inj.json" 2> /dev/null; then
  echo "injected fuzz run unexpectedly passed" >&2
  exit 1
fi
grep -q '"failures": 2' "$tmp/fuzz-inj.json"
case_file="$(ls "$tmp"/fuzz-cases/*.json | head -n 1)"
test -s "$case_file"
./target/release/fdip-fuzz replay "$case_file" 2> /dev/null
echo "    64-program campaign clean; report jobs-identical; injection caught and shrunk"

echo "==> benchmark package: unit tests, check, short single, fuzz and serve runs"
# benchmark/ is a package of its own (benchmark/README.md) that builds the
# library crates from source through their public APIs, and the
# workspace's build and tests above do not cover it. A change that breaks
# it fails here instead of in the benchmark run after merge.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- check > /dev/null
for workload in single fuzz; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seed 0 --seconds 2 --trace 0 \
    --out-dir "$tmp/bench-out-$workload" > /dev/null
done
# Traced, so the probes that read PoolStats and /v1/telemetry run too.
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --workload serve --seed 0 --seconds 2 --trace 1 \
  --out-dir "$tmp/bench-out-serve" > /dev/null
echo "    benchmark tests pass; check clean; single, fuzz and traced serve runs exit 0"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "verify: OK"
