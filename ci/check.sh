#!/bin/sh
# Repository check: full build, test suites, and an observability smoke run.
# Usage: ci/check.sh   (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# No test reads TPDF_DOMAINS; it is pinned so that an inherited value
# cannot give the daemons the suite spawns a tick pool.
echo "== dune runtest (TPDF_DOMAINS=1) =="
TPDF_DOMAINS=1 dune runtest

# Seed matrix: seed 90 once drove the MCR throughput qcheck in
# test_integration into a false failure (steady-state period vs MCR bound
# on a degenerate random graph); pin it so the regression stays fixed.
echo "== dune runtest (QCHECK_SEED=90) =="
QCHECK_SEED=90 dune runtest --force

echo "== smoke: tpdf_tool profile fig2 -p p=2 =="
dune exec bin/tpdf_tool.exe -- profile fig2 -p p=2 > /dev/null

echo "== smoke: tpdf_tool trace ofdm-tpdf (chrome) =="
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
dune exec bin/tpdf_tool.exe -- trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  --format chrome -o "$out" > /dev/null
# the export must be non-trivial and carry reconfiguration instants
grep -q '"traceEvents"' "$out"
grep -q '"reconfigure"' "$out"

# Chaos smoke: seeded fault injection on both case-study graphs.  The
# command exits non-zero on an unrecovered stall, failing the check.
echo "== smoke: tpdf_tool chaos edge (seed 42) =="
dune exec bin/tpdf_tool.exe -- chaos edge --seed 42 \
  --faults 'fail:IDuplicate:0.8:2,jitter:*:0.2:0.5' --iterations 4 > /dev/null

echo "== smoke: tpdf_tool chaos ofdm-tpdf (seed 42, QAM -> QPSK fallback) =="
chaos_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out"' EXIT
dune exec bin/tpdf_tool.exe -- chaos ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  --seed 42 --faults 'overrun:QAM:0.8:8,fail:FFT:0.3:4' \
  --deadline QAM=0.05 --degrade-after 2 --iterations 6 > "$chaos_out"
# the deadline pressure on the 16-QAM branch must trigger the mode fallback
grep -q 'degraded DUP -> qpsk' "$chaos_out"
grep -q 'degraded TRAN -> qpsk' "$chaos_out"

# Compiled-backend equivalence smoke: `--compiled` must leave every
# output byte unchanged — the backend is an execution strategy, never a
# semantics.  One synthetic graph byte-compared end to end, plus the
# OFDM case study's full mode-scenario sweep compared on the recorded
# virtual-clock event stream (wall-clock spans differ by definition).
echo "== smoke: compiled backend equivalence (--compiled) =="
cmp_dir="$(mktemp -d)"
trap 'rm -f "$out" "$chaos_out"; rm -rf "$cmp_dir"' EXIT
dune exec bin/tpdf_tool.exe -- simulate fig2 -p p=2 -i 3 --trace \
  > "$cmp_dir/event.out"
dune exec bin/tpdf_tool.exe -- simulate fig2 -p p=2 -i 3 --trace --compiled \
  > "$cmp_dir/compiled.out"
if ! cmp -s "$cmp_dir/event.out" "$cmp_dir/compiled.out"; then
  echo "compiled backend diverged on: simulate fig2" >&2
  diff "$cmp_dir/event.out" "$cmp_dir/compiled.out" >&2 || true
  exit 1
fi
test -s "$cmp_dir/event.out"
dune exec bin/tpdf_tool.exe -- trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  -i 2 -f csv | grep -v '^wall,' > "$cmp_dir/event.csv"
dune exec bin/tpdf_tool.exe -- trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  -i 2 -f csv --compiled | grep -v '^wall,' > "$cmp_dir/compiled.csv"
if ! cmp -s "$cmp_dir/event.csv" "$cmp_dir/compiled.csv"; then
  echo "compiled backend diverged on: trace ofdm-tpdf" >&2
  diff "$cmp_dir/event.csv" "$cmp_dir/compiled.csv" >&2 || true
  exit 1
fi
grep -q 'virtual,' "$cmp_dir/event.csv"
rm -rf "$cmp_dir"
trap 'rm -f "$out" "$chaos_out"' EXIT

# Engine bench smoke: E17 at reduced sizes must produce a parseable
# BENCH_engine.json with positive throughput on both backends.  (The
# engine-vs-seed and compiled-vs-event equivalence suites run as part
# of `dune runtest` above.)
echo "== smoke: bench E17 (engine throughput) =="
bench_dir="$(mktemp -d)"
trap 'rm -f "$out" "$chaos_out"; rm -rf "$bench_dir"' EXIT
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E17 \
  TPDF_BENCH_OUT="$bench_dir/BENCH_engine.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_engine.json" BENCH_engine.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["experiment"] == "E17", "unexpected experiment tag"
assert doc["runs"], "no benchmark runs recorded"
assert all(r["events_per_sec"] > 0 for r in doc["runs"]), "non-positive throughput"
assert all(r["compiled_events_per_sec"] > 0 for r in doc["runs"]), \
    "non-positive compiled throughput"

# Perf regression gates on the checked-in full-size E17 results: the
# fan cliff must stay dead (fan@1e4 within 10x of chain@1e4) and the
# compiled backend must keep its >= 2x margin on chain@1e3.
with open(sys.argv[2]) as f:
    full = json.load(f)
assert full["experiment"] == "E17" and not full["smoke"], \
    "checked-in BENCH_engine.json is not a full E17 run"
by = {(r["graph"], r["actors"]): r for r in full["runs"]}
fan, chain = by[("fan", 10_000)], by[("chain", 10_000)]
assert fan["events_per_sec"] * 10 >= chain["events_per_sec"], \
    "fan cliff regressed: fan@1e4 is more than 10x slower than chain@1e4"
c1e3 = by[("chain", 1000)]
assert c1e3["compiled_vs_interpreted"] >= 2.0, \
    "compiled backend below 2x on chain@1e3"
EOF
else
  grep -q '"experiment": "E17"' "$bench_dir/BENCH_engine.json"
  grep -q '"events_per_sec"' "$bench_dir/BENCH_engine.json"
  grep -q '"compiled_events_per_sec"' "$bench_dir/BENCH_engine.json"
  if grep -q '"events_per_sec": 0' "$bench_dir/BENCH_engine.json"; then
    echo "bench smoke: zero throughput" >&2
    exit 1
  fi
fi

# Multicore scaling smoke: E18 at reduced sizes must produce a parseable
# BENCH_par.json with a domain sweep over the edge kernels, positive
# throughput, and the shared metadata block every BENCH_*.json writer
# emits.
echo "== smoke: bench E18 (multicore scaling) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E18 \
  TPDF_BENCH_PAR_OUT="$bench_dir/BENCH_par.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_par.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["experiment"] == "E18", "unexpected experiment tag"
assert doc["domain_sweep"], "no domain sweep recorded"
assert doc["metadata"]["cores_detected"] >= 1, "metadata block missing"
assert doc["edge"], "missing edge runs"
assert all(r["mpix_per_sec"] > 0 for r in doc["edge"]), "non-positive Mpixel/s"
assert all(r["speedup_vs_1"] > 0 for r in doc["edge"]), "non-positive speedup"
EOF
else
  grep -q '"experiment": "E18"' "$bench_dir/BENCH_par.json"
  grep -q '"domain_sweep"' "$bench_dir/BENCH_par.json"
  grep -q '"speedup_vs_1"' "$bench_dir/BENCH_par.json"
fi

# CLI hardening smoke: a malformed .tpdf must exit non-zero with a
# one-line file:line diagnostic, not a backtrace.
echo "== smoke: CLI hardening (malformed graph file) =="
bad_dir="$(mktemp -d)"
trap 'rm -f "$out" "$chaos_out"; rm -rf "$bench_dir" "$bad_dir"' EXIT
printf 'not a tpdf file\n' > "$bad_dir/bad.tpdf"
status=0
dune exec bin/tpdf_tool.exe -- analyze "$bad_dir/bad.tpdf" \
  > /dev/null 2> "$bad_dir/err" || status=$?
if [ "$status" -eq 0 ]; then
  echo "malformed graph accepted" >&2
  exit 1
fi
grep -q 'bad\.tpdf:1:' "$bad_dir/err"
test "$(wc -l < "$bad_dir/err")" -eq 1

# analyze --param judges liveness on the given valuation, not on the
# default samples: the cycle A [p] -> [1] B [1] -> [p] A with 7 initial
# tokens is live at p=7 and deadlocks at p=8.
echo "== smoke: analyze --param judges liveness on the valuation =="
cat > "$bad_dir/cycle.tpdf" <<'EOF'
tpdf graph {
  kernel A;
  kernel B;
  channel e0 = A [p] -> [1] B;
  channel e1 = B [1] -> [p] A init=7;
}
EOF
dune exec bin/tpdf_tool.exe -- analyze "$bad_dir/cycle.tpdf" --param p=8 \
  | grep -q 'live=false'
dune exec bin/tpdf_tool.exe -- analyze "$bad_dir/cycle.tpdf" --param p=7 \
  | grep -q 'live=true'

# Crash-recovery smoke: a chaos run killed mid-flight must exit 3 and
# leave a resumable checkpoint; resuming must reproduce the
# uninterrupted run's stdout byte for byte.
echo "== smoke: crash recovery (chaos --kill-at-ms + resume) =="
rec_dir="$(mktemp -d)"
trap 'rm -f "$out" "$chaos_out"; rm -rf "$bench_dir" "$bad_dir" "$rec_dir"' EXIT
chaos_args="chaos ofdm-tpdf -p beta=2 -p N=8 -p L=1 --seed 42 \
  --faults overrun:QAM:0.8:8,fail:FFT:0.3:4 --deadline QAM=0.05 \
  --degrade-after 2 --iterations 6"
dune exec bin/tpdf_tool.exe -- $chaos_args > "$rec_dir/golden"
status=0
dune exec bin/tpdf_tool.exe -- $chaos_args \
  --checkpoint-every 1 --checkpoint-dir "$rec_dir/ckpts" \
  --kill-at-ms 3.0 > /dev/null || status=$?
if [ "$status" -ne 3 ]; then
  echo "expected exit 3 from a killed run, got $status" >&2
  exit 1
fi
dune exec bin/tpdf_tool.exe -- resume "$rec_dir/ckpts" \
  > "$rec_dir/resumed" 2> /dev/null
diff "$rec_dir/golden" "$rec_dir/resumed"

# Checkpoint-overhead smoke: E19 at reduced sizes must produce a
# parseable BENCH_ckpt.json with the period sweep, positive throughput
# and sane checkpoint sizes/restore latencies.
echo "== smoke: bench E19 (checkpoint overhead) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E19 \
  TPDF_BENCH_CKPT_OUT="$bench_dir/BENCH_ckpt.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_ckpt.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["experiment"] == "E19", "unexpected experiment tag"
assert 0 in doc["periods"], "period sweep must include off (0)"
assert doc["metadata"]["cores_detected"] >= 1, "metadata block missing"
assert doc["runs"], "no runs recorded"
assert all(r["events_per_sec"] > 0 for r in doc["runs"]), "non-positive throughput"
assert all(r["snapshot_bytes"] > 0 for r in doc["runs"]), "empty snapshot"
assert all(r["restore_ms"] >= 0 for r in doc["runs"]), "negative restore time"
off = {r["graph"] for r in doc["runs"] if r["period"] == 0}
assert all(r["graph"] in off for r in doc["runs"]), "missing period-off baseline"
EOF
else
  grep -q '"experiment": "E19"' "$bench_dir/BENCH_ckpt.json"
  grep -q '"snapshot_bytes"' "$bench_dir/BENCH_ckpt.json"
  grep -q '"overhead_vs_off"' "$bench_dir/BENCH_ckpt.json"
fi

# Telemetry smoke: the OpenMetrics exposition must be well-formed (one
# TYPE line per family, no duplicate series, "# EOF" terminator) and
# counters must be monotone in the amount of work profiled.
echo "== smoke: OpenMetrics exposition (profile --openmetrics) =="
om_dir="$(mktemp -d)"
trap 'rm -f "$out" "$chaos_out"; rm -rf "$bench_dir" "$bad_dir" "$rec_dir" "$om_dir"' EXIT
dune exec bin/tpdf_tool.exe -- profile fig2 -p p=2 -i 1 \
  --openmetrics "$om_dir/m1.prom" > /dev/null
dune exec bin/tpdf_tool.exe -- profile fig2 -p p=2 -i 3 \
  --openmetrics "$om_dir/m3.prom" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$om_dir/m1.prom" "$om_dir/m3.prom" <<'EOF'
import sys

def load(path):
    lines = open(path).read().splitlines()
    assert lines and lines[-1] == "# EOF", f"{path}: missing # EOF terminator"
    series, types = {}, {}
    for l in lines[:-1]:
        if l.startswith("# TYPE "):
            fam, kind = l[len("# TYPE "):].split(" ")
            assert fam not in types, f"{path}: duplicate TYPE for {fam}"
            types[fam] = kind
            continue
        if not l or l.startswith("#"):
            continue
        key, val = l.rsplit(" ", 1)
        assert key not in series, f"{path}: duplicate series {key}"
        series[key] = float(val)
    assert series, f"{path}: empty exposition"
    return series

short, long = load(sys.argv[1]), load(sys.argv[2])
counters = [k for k in short if k.split("{")[0].endswith("_total")]
assert counters, "no counter series found"
for k in counters:
    assert k in long, f"counter {k} vanished in the longer run"
    assert long[k] >= short[k], \
        f"counter {k} not monotone: {short[k]} -> {long[k]}"
EOF
else
  for f in "$om_dir/m1.prom" "$om_dir/m3.prom"; do
    tail -n 1 "$f" | grep -q '^# EOF$'
    dups="$(awk '!/^#/ && NF { print $1 }' "$f" | sort | uniq -d)"
    if [ -n "$dups" ]; then
      echo "duplicate OpenMetrics series in $f: $dups" >&2
      exit 1
    fi
  done
fi

# Always-on export path: a `top` run with TPDF_METRICS_OUT set must
# leave a complete exposition behind (atomic rename, never torn).
echo "== smoke: tpdf_tool top + TPDF_METRICS_OUT =="
TPDF_METRICS_OUT="$om_dir/live.prom" dune exec bin/tpdf_tool.exe -- \
  top fig2 -p p=2 -i 2 --refresh-ms 0 > /dev/null
tail -n 1 "$om_dir/live.prom" | grep -q '^# EOF$'

# Critical-path analyzer smoke: on every ofdm-tpdf mode scenario the
# observed iteration period must match the throughput prediction and
# respect the proven MCR bound (the command exits non-zero otherwise).
echo "== smoke: tpdf_tool analyze-trace ofdm-tpdf =="
dune exec bin/tpdf_tool.exe -- analyze-trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  > "$om_dir/analyze.out"
grep -q 'consistent with the analyses' "$om_dir/analyze.out"

# Telemetry bench smoke: E20 at reduced sizes must produce a parseable
# BENCH_obs.json with off/sampled/full runs per graph and a passing
# bounded-ring certificate.  The checked-in full-size BENCH_obs.json is
# held to the acceptance gate: <= 5% sampled overhead on the 1e3-actor
# chain and a bounded ring under the 1e6-event run.
echo "== smoke: bench E20 (telemetry overhead) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E20 \
  TPDF_BENCH_OBS_OUT="$bench_dir/BENCH_obs.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_obs.json" BENCH_obs.json <<'EOF'
import json, sys

def check(path, smoke):
    with open(path) as f:
        doc = json.load(f)
    assert doc["experiment"] == "E20", f"{path}: unexpected experiment tag"
    assert doc["smoke"] == smoke, f"{path}: unexpected smoke flag"
    assert doc["metadata"]["cores_detected"] >= 1, f"{path}: metadata missing"
    assert doc["sampling"]["span_every"] >= 1, f"{path}: sampling block missing"
    assert doc["runs"], f"{path}: no runs recorded"
    for g in {r["graph"] for r in doc["runs"]}:
        modes = {r["mode"] for r in doc["runs"] if r["graph"] == g}
        assert modes == {"off", "sampled", "full"}, \
            f"{path}: {g} missing a mode: {modes}"
    assert all(r["events_per_sec"] > 0 for r in doc["runs"]), \
        f"{path}: non-positive throughput"
    b = doc["bounded"]
    assert b["ok"] and b["ring_retained"] <= b["ring_capacity"] \
        and b["events_offered"] > b["ring_capacity"], \
        f"{path}: bounded-ring certificate failed"
    return doc

check(sys.argv[1], smoke=True)
full = check(sys.argv[2], smoke=False)
chain = [r for r in full["runs"]
         if r["graph"] == "chain" and r["mode"] == "sampled"]
assert chain, "checked-in BENCH_obs.json has no sampled chain run"
assert all(r["actors"] >= 1000 for r in chain), "chain below 1e3 actors"
assert all(r["overhead_vs_off"] <= 1.05 for r in chain), \
    "sampled overhead gate (<= 5% on the 1e3-actor chain) failed"
assert full["bounded"]["events_offered"] >= 1_000_000, \
    "bounded certificate below 1e6 events"
EOF
else
  grep -q '"experiment": "E20"' "$bench_dir/BENCH_obs.json"
  grep -q '"ok": true' "$bench_dir/BENCH_obs.json"
  grep -q '"experiment": "E20"' BENCH_obs.json
  grep -q '"ok": true' BENCH_obs.json
fi

# Symbolic-kernel bench smoke: E21 at reduced sizes must produce a
# parseable BENCH_param.json whose rewritten-vs-legacy outputs match on
# every solve row.  The checked-in full-size file is held to the
# acceptance gate: on the 100-parameter, 1000-actor chain the hash-consed
# kernel must solve in single-digit milliseconds and record a >= 10x
# speedup over the frozen pre-rewrite kernel.
echo "== smoke: bench E21 (symbolic kernel) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E21 \
  TPDF_BENCH_PARAM_OUT="$bench_dir/BENCH_param.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_param.json" BENCH_param.json <<'EOF'
import json, sys

def check(path, smoke):
    with open(path) as f:
        doc = json.load(f)
    assert doc["experiment"] == "E21", f"{path}: unexpected experiment tag"
    assert doc["smoke"] == smoke, f"{path}: unexpected smoke flag"
    assert doc["metadata"]["cores_detected"] >= 1, f"{path}: metadata missing"
    assert doc["rows"], f"{path}: no rows recorded"
    kinds = {r["kind"] for r in doc["rows"]}
    assert kinds == {"solve", "rate_safety"}, f"{path}: missing a kind: {kinds}"
    for r in doc["rows"]:
        assert r["new_ms"] > 0 and r["new_memo_off_ms"] > 0, \
            f"{path}: non-positive timing in {r}"
        if r["kind"] == "solve":
            assert r["outputs_match"] is True, \
                f"{path}: kernel disagrees with legacy baseline on {r}"
            assert r["legacy_ms"] > 0 and r["speedup"] > 0, \
                f"{path}: missing baseline column on {r}"
    assert doc["gauges"]["param_intern_monomials"] > 0, \
        f"{path}: intern-table gauges missing"
    return doc

check(sys.argv[1], smoke=True)
full = check(sys.argv[2], smoke=False)
big = [r for r in full["rows"]
       if r["kind"] == "solve" and r["params"] == 100 and r["actors"] == 1000]
assert big, "checked-in BENCH_param.json has no 100-param/1000-actor solve"
r = big[0]
assert r["new_ms"] < 10.0, \
    f"100-param solve above single-digit ms: {r['new_ms']}"
assert r["speedup"] >= 10.0, \
    f"symbolic kernel below 10x over pre-rewrite baseline: {r['speedup']}"
rs = [r for r in full["rows"] if r["kind"] == "rate_safety"]
assert any(r["params"] >= 100 and r["actors"] >= 996 for r in rs), \
    "checked-in BENCH_param.json has no full-size rate-safety row"
EOF
else
  grep -q '"experiment": "E21"' "$bench_dir/BENCH_param.json"
  grep -q '"outputs_match": true' "$bench_dir/BENCH_param.json"
  grep -q '"experiment": "E21"' BENCH_param.json
  grep -q '"outputs_match": true' BENCH_param.json
  if grep -q '"outputs_match": false' BENCH_param.json; then
    echo "symbolic kernel disagrees with legacy baseline" >&2
    exit 1
  fi
fi

# Memo kill-switch: the analysis suites must pass with TPDF_PARAM_MEMO=0,
# pinning that memoization only caches value-deterministic results and
# never changes a symbolic answer.
echo "== analysis suites with TPDF_PARAM_MEMO=0 =="
TPDF_PARAM_MEMO=0 dune exec test/test_param.exe > /dev/null
TPDF_PARAM_MEMO=0 dune exec test/test_csdf.exe > /dev/null
TPDF_PARAM_MEMO=0 dune exec test/test_tpdf.exe > /dev/null

# Exit-code contract: the unified table must be in `--help`, and the
# codes must be live — a parse error really exits 124, a rejected graph
# really exits 1.  (Exit 3 is exercised by the crash-recovery smoke
# above; exit 2 only fires on an analysis bug.)
echo "== smoke: tpdf_tool exit-code table =="
help_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out" "$help_out"; rm -rf "$bench_dir" "$bad_dir" "$rec_dir" "$om_dir"' EXIT
dune exec bin/tpdf_tool.exe -- --help=plain > "$help_out" 2> /dev/null
grep -q 'EXIT STATUS' "$help_out"
grep -q '^       0   on success' "$help_out"
grep -q '^       1   on a runtime failure' "$help_out"
grep -q '^       2   when an observed execution beats a proven analysis bound' \
  "$help_out"
grep -q '^       3   when --kill-at-ms cut a checkpointed run short' "$help_out"
grep -q '^       124 on command line parsing errors' "$help_out"
grep -q '^       125 on unexpected internal errors' "$help_out"
status=0
dune exec bin/tpdf_tool.exe -- analyze --no-such-flag > /dev/null 2>&1 \
  || status=$?
if [ "$status" -ne 124 ]; then
  echo "expected exit 124 from a parse error, got $status" >&2
  exit 1
fi

# Serving smoke: real daemon over a Unix socket, two tenants, kill -9,
# restart on the same state dir, byte-identical continuation.
echo "== smoke: serve (daemon kill -9 + restart) =="
sh ci/serve_smoke.sh

# Serving bench smoke: E22 at reduced sizes must produce a parseable
# BENCH_serve.json; the checked-in full-size file is held to the fault
# isolation gate — a permanently faulting tenant must not move the
# healthy tenants' p95 request latency past gate_p95_ratio x the
# all-healthy baseline, and must itself end up quarantined.
echo "== smoke: bench E22 (multi-tenant serving) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E22 \
  TPDF_BENCH_SERVE_OUT="$bench_dir/BENCH_serve.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_serve.json" BENCH_serve.json <<'EOF'
import json, sys

def check(path, smoke):
    with open(path) as f:
        doc = json.load(f)
    assert doc["experiment"] == "E22", f"{path}: unexpected experiment tag"
    assert doc["smoke"] == smoke, f"{path}: unexpected smoke flag"
    assert doc["metadata"]["cores_detected"] >= 1, f"{path}: metadata missing"
    modes = [r["mode"] for r in doc["runs"]]
    assert modes == ["mem", "persist", "fault"], f"{path}: bad runs: {modes}"
    for r in doc["runs"]:
        assert r["requests_per_sec"] > 0 and r["firings_per_sec"] > 0, \
            f"{path}: non-positive throughput in {r['mode']}"
        assert r["request_p95_ms"] >= r["request_p50_ms"] >= 0, \
            f"{path}: bad latency percentiles in {r['mode']}"
    by = {r["mode"]: r for r in doc["runs"]}
    assert by["mem"]["quarantined"] == 0, f"{path}: healthy run quarantined"
    assert by["fault"]["quarantined"] >= 1, \
        f"{path}: faulting tenant never quarantined"
    assert doc["isolation_ok"], f"{path}: fault isolation gate failed"
    assert 0 < doc["healthy_p95_ratio"] <= doc["gate_p95_ratio"], \
        f"{path}: healthy p95 ratio {doc['healthy_p95_ratio']} past gate"

check(sys.argv[1], smoke=True)
check(sys.argv[2], smoke=False)
EOF
else
  grep -q '"experiment": "E22"' "$bench_dir/BENCH_serve.json"
  grep -q '"isolation_ok": true' "$bench_dir/BENCH_serve.json"
  grep -q '"experiment": "E22"' BENCH_serve.json
  grep -q '"isolation_ok": true' BENCH_serve.json
fi

# Network-chaos smoke: kill -9 the source daemon mid-migration over real
# sockets, restart, resolve — single owner, byte-identical checkpoint;
# plus graceful drain and a fault-injecting socket layer round-trip.
echo "== smoke: netchaos (kill -9 mid-migration + drain + netfault) =="
sh ci/netchaos_smoke.sh

# Network-chaos bench smoke: E23 at reduced sizes must produce a
# parseable BENCH_netchaos.json; both it and the checked-in full-size
# file are held to the resilience gates — the worst fault-plan p95 must
# stay within gate_p95_ratio x the no-fault baseline, every fault run
# must actually inject faults, and retries plus rid replay must leave
# zero tenants diverged from the fault-free twin and zero requests lost.
echo "== smoke: bench E23 (network chaos) =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E23 \
  TPDF_BENCH_NETCHAOS_OUT="$bench_dir/BENCH_netchaos.json" \
  dune exec bench/main.exe > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bench_dir/BENCH_netchaos.json" BENCH_netchaos.json <<'EOF'
import json, sys

def check(path, smoke):
    with open(path) as f:
        doc = json.load(f)
    assert doc["experiment"] == "E23", f"{path}: unexpected experiment tag"
    assert doc["smoke"] == smoke, f"{path}: unexpected smoke flag"
    assert doc["metadata"]["cores_detected"] >= 1, f"{path}: metadata missing"
    plans = [r["plan"] for r in doc["runs"]]
    assert plans == ["baseline", "lossy", "slow", "lossy+slow"], \
        f"{path}: bad fault-plan sweep: {plans}"
    for r in doc["runs"]:
        assert r["logical"] > 0 and r["attempts"] >= r["logical"], \
            f"{path}: attempts below logical requests in {r['plan']}"
        assert r["request_p95_ms"] >= r["request_p50_ms"] >= 0, \
            f"{path}: bad latency percentiles in {r['plan']}"
        assert r["diverged"] == 0 and r["lost"] == 0, \
            f"{path}: divergence or lost requests in {r['plan']}"
        injected = r["req_lost"] + r["resp_lost"] + r["delayed"]
        if r["plan"] == "baseline":
            assert injected == 0, f"{path}: baseline run injected faults"
        else:
            assert injected > 0, f"{path}: fault run {r['plan']} injected nothing"
    assert doc["p95_ratio_ok"], f"{path}: chaos p95 gate failed"
    assert 0 < doc["worst_p95_ratio"] <= doc["gate_p95_ratio"], \
        f"{path}: worst p95 ratio {doc['worst_p95_ratio']} past gate"
    assert doc["divergence_ok"] and doc["faults_injected_ok"], \
        f"{path}: resilience gates failed"

check(sys.argv[1], smoke=True)
check(sys.argv[2], smoke=False)
EOF
else
  grep -q '"experiment": "E23"' "$bench_dir/BENCH_netchaos.json"
  grep -q '"p95_ratio_ok": true' "$bench_dir/BENCH_netchaos.json"
  grep -q '"divergence_ok": true' "$bench_dir/BENCH_netchaos.json"
  grep -q '"experiment": "E23"' BENCH_netchaos.json
  grep -q '"p95_ratio_ok": true' BENCH_netchaos.json
  grep -q '"divergence_ok": true' BENCH_netchaos.json
  grep -q '"faults_injected_ok": true' BENCH_netchaos.json
fi

echo "check: OK"
