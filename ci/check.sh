#!/bin/sh
# Repository check: full build, test suites, and an observability smoke run.
# Usage: ci/check.sh   (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# Seed matrix: seed 90 once drove the MCR throughput qcheck in
# test_integration into a false failure (steady-state period vs MCR bound
# on a degenerate random graph); pin it so the regression stays fixed.
echo "== dune runtest (QCHECK_SEED=90) =="
QCHECK_SEED=90 dune runtest --force

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The exposition's structure (one TYPE line per family, no duplicate
# series, monotone counters) is checked by test_obs on the run this
# command makes (Tpdf_apps.Profile.run); this runs the CLI itself.
echo "== smoke: tpdf_tool profile fig2 -p p=2 --openmetrics =="
dune exec bin/tpdf_tool.exe -- profile fig2 -p p=2 \
  --openmetrics "$tmp/profile.prom" > /dev/null
tail -n 1 "$tmp/profile.prom" | grep -q '^# EOF$'

echo "== smoke: tpdf_tool trace ofdm-tpdf (chrome) =="
dune exec bin/tpdf_tool.exe -- trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  --format chrome -o "$tmp/trace.json" > /dev/null
# the export must be non-trivial and carry reconfiguration instants
grep -q '"traceEvents"' "$tmp/trace.json"
grep -q '"reconfigure"' "$tmp/trace.json"

# Chaos smoke: seeded fault injection on both case-study graphs.  The
# command exits non-zero on an unrecovered stall, failing the check.
echo "== smoke: tpdf_tool chaos edge (seed 42) =="
dune exec bin/tpdf_tool.exe -- chaos edge --seed 42 \
  --faults 'fail:IDuplicate:0.8:2,jitter:*:0.2:0.5' --iterations 4 > /dev/null

echo "== smoke: tpdf_tool chaos ofdm-tpdf (seed 42, QAM -> QPSK fallback) =="
dune exec bin/tpdf_tool.exe -- chaos ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  --seed 42 --faults 'overrun:QAM:0.8:8,fail:FFT:0.3:4' \
  --deadline QAM=0.05 --degrade-after 2 --iterations 6 > "$tmp/chaos.out"
# the deadline pressure on the 16-QAM branch must trigger the mode fallback
grep -q 'degraded DUP -> qpsk' "$tmp/chaos.out"
grep -q 'degraded TRAN -> qpsk' "$tmp/chaos.out"

# Compiled-backend equivalence smoke: `--compiled` must leave every
# output byte unchanged — the backend is an execution strategy, never a
# semantics.  One synthetic graph byte-compared end to end, plus the
# OFDM case study's full mode-scenario sweep compared on the recorded
# virtual-clock event stream (wall-clock spans differ by definition).
echo "== smoke: compiled backend equivalence (--compiled) =="
cmp_dir="$tmp/cmp"
mkdir "$cmp_dir"
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

# Default control behaviours: fig3's C steers kernels with different
# mode names, so each gets a mode of its own, and simulate does not wait
# for the branch that scenario starves.
echo "== smoke: simulate fig3 with default control behaviours =="
dune exec bin/tpdf_tool.exe -- simulate fig3 -p p=1 > /dev/null

# CLI hardening smoke: a malformed .tpdf must exit non-zero with a
# one-line file:line diagnostic, not a backtrace.
echo "== smoke: CLI hardening (malformed graph file) =="
bad_dir="$tmp/bad"
mkdir "$bad_dir"
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

# The commands that run the iteration walker (Schedule, Bounded, Sas) and
# the ADF (Canonical_period, Mcr) must print the paper's results: the
# SAS and late schedules of Fig. 1 and Fig. 4(b), Fig. 1's minimal
# buffers, and the canonical period of Fig. 5.
echo "== smoke: tpdf_tool throughput / liveness / buffers / schedule =="
dune exec bin/tpdf_tool.exe -- throughput fig1 \
  | grep -qF 'single-appearance schedule: (a3)^2 (a1)^3 (a2)^2'
dune exec bin/tpdf_tool.exe -- liveness fig4b -p p=3 \
  | grep -qF 'local schedule B (C)^2 B'
dune exec bin/tpdf_tool.exe -- buffers fig1 --minimize \
  | grep -qF 'total: 5 (0 relaxation(s))'
dune exec bin/tpdf_tool.exe -- schedule fig2 -p p=1 \
  | grep -qF 'canonical period: 10 firings, 15 dependencies'

# Crash-recovery smoke: a chaos run killed mid-flight must exit 3 and
# leave a resumable checkpoint; resuming must reproduce the
# uninterrupted run's stdout byte for byte.
echo "== smoke: crash recovery (chaos --kill-at-ms + resume) =="
rec_dir="$tmp/rec"
mkdir "$rec_dir"
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

# Always-on export path: a `top` run with TPDF_METRICS_OUT set must
# leave a complete exposition behind (atomic rename, never torn).
echo "== smoke: tpdf_tool top + TPDF_METRICS_OUT =="
TPDF_METRICS_OUT="$tmp/live.prom" dune exec bin/tpdf_tool.exe -- \
  top fig2 -p p=2 -i 2 --refresh-ms 0 > /dev/null
tail -n 1 "$tmp/live.prom" | grep -q '^# EOF$'

# Critical-path analyzer smoke: on every ofdm-tpdf mode scenario the
# observed iteration period must match the throughput prediction and
# respect the proven MCR bound (the command exits non-zero otherwise).
echo "== smoke: tpdf_tool analyze-trace ofdm-tpdf =="
dune exec bin/tpdf_tool.exe -- analyze-trace ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
  > "$tmp/analyze.out"
grep -q 'consistent with the analyses' "$tmp/analyze.out"

# On fig2 at p=8 the observed period equals the proven bound (16 ms), so
# a solver that over-estimates the MCR by more than 1e-6 exits 2 here.
echo "== smoke: tpdf_tool analyze-trace fig2 (bound is tight) =="
dune exec bin/tpdf_tool.exe -- analyze-trace fig2 -p p=8 > "$tmp/analyze.out"
grep -q 'consistent with the analyses' "$tmp/analyze.out"

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
help_out="$tmp/help"
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

# Network-chaos smoke: kill -9 the source daemon mid-migration over real
# sockets, restart, resolve — single owner, byte-identical checkpoint;
# plus graceful drain and a fault-injecting socket layer round-trip.
echo "== smoke: netchaos (kill -9 mid-migration + drain + netfault) =="
sh ci/netchaos_smoke.sh

# Benchmark smoke: E17-E23 at reduced sizes, one pass.  `check` holds
# the files just written, and every checked-in full-size BENCH_*.json,
# to their experiment's schema and gates (see bench/gates.ml).
echo "== smoke: bench E17-E23 + check =="
TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=E17,E18,E19,E20,E21,E22,E23 \
  TPDF_BENCH_DIR="$tmp/bench" dune exec bench/main.exe > /dev/null
TPDF_BENCH_SMOKE=1 dune exec bench/main.exe -- check "$tmp"/bench/BENCH_*.json
dune exec bench/main.exe -- check BENCH_*.json

echo "check: OK"
