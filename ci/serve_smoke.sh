#!/bin/sh
# Serving smoke: start the daemon on a Unix socket, submit two graphs,
# advance both, kill -9 the daemon, restart it on the same state
# directory and advance further — the combined transcript must be
# byte-identical to an uninterrupted daemon's.  Then it checks that a
# resident tenant's advances reuse one supervisor session
# (tpdf_serve_compiles_total).  This drives the real
# binary over the real socket; the in-process equivalents live in
# test/test_serve.ml.
# Usage: ci/serve_smoke.sh   (or: make serve-smoke)
set -eu
cd "$(dirname "$0")/.."
. ci/json.sh

dune build bin/tpdf_tool.exe
bin=_build/default/bin/tpdf_tool.exe
dir="$(mktemp -d)"
pid=
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2> /dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

"$bin" export fig1 "$dir/fig1.tpdf" > /dev/null
"$bin" export fig2 "$dir/fig2.tpdf" > /dev/null

fig1=$(json_string "$dir/fig1.tpdf")
fig2=$(json_string "$dir/fig2.tpdf")
printf '%s\n' \
  '{"id":"s1","op":"submit","name":"alpha","graph":'"$fig1"'}' \
  '{"id":"s2","op":"submit","name":"beta","graph":'"$fig2"',"params":{"p":2}}' \
  '{"id":"a1","op":"advance","name":"alpha","iterations":2}' \
  '{"id":"b1","op":"advance","name":"beta","iterations":2}' \
  > "$dir/phase1.txt"
printf '%s\n' \
  '{"id":"a2","op":"advance","name":"alpha","iterations":3}' \
  '{"id":"b2","op":"advance","name":"beta","iterations":3}' \
  '{"id":"q1","op":"query","name":"alpha"}' \
  '{"id":"q2","op":"query","name":"beta"}' \
  > "$dir/phase2.txt"
cat "$dir/phase1.txt" "$dir/phase2.txt" > "$dir/golden.txt"

# Golden transcript: one daemon, never interrupted.
"$bin" serve "$dir/gsock" --state-dir "$dir/gstate" 2> /dev/null &
pid=$!
"$bin" client "$dir/gsock" < "$dir/golden.txt" > "$dir/golden.out"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

# Crash run: phase 1, kill -9 mid-fleet, restart on the same state
# directory, phase 2.  The daemon checkpoints synchronously per request,
# so nothing is lost.
"$bin" serve "$dir/sock" --state-dir "$dir/state" 2> /dev/null &
pid=$!
"$bin" client "$dir/sock" < "$dir/phase1.txt" > "$dir/run.out"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
"$bin" serve "$dir/sock" --state-dir "$dir/state" 2> /dev/null &
pid=$!
"$bin" client "$dir/sock" < "$dir/phase2.txt" >> "$dir/run.out"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
pid=

diff "$dir/golden.out" "$dir/run.out"

# Resident tenants keep their supervisor session across advances: 20
# single-iteration advances build one session, a reconfigure one more.
# A deterministic count, read from the daemon's own OpenMetrics export.
{
  printf '%s\n' \
    '{"id":"s","op":"submit","name":"c","graph":'"$fig2"',"params":{"p":2}}'
  for i in $(seq 0 19); do
    printf '{"id":"a%d","op":"advance","name":"c","iterations":1}\n' "$i"
  done
  printf '%s\n' \
    '{"id":"m1","op":"metrics"}' \
    '{"id":"r","op":"reconfigure","name":"c","params":{"p":3}}' \
    '{"id":"a","op":"advance","name":"c","iterations":1}' \
    '{"id":"m2","op":"metrics"}'
} > "$dir/compiles.txt"
"$bin" serve "$dir/csock" 2> /dev/null &
pid=$!
"$bin" client "$dir/csock" < "$dir/compiles.txt" > "$dir/compiles.out"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
pid=
if grep -v '"ok":true' "$dir/compiles.out"; then
  echo "serve-smoke: FAIL (a request failed)" >&2
  exit 1
fi
expect_compiles() { # expect_compiles ID COUNT
  grep -F '"id":"'"$1"'"' "$dir/compiles.out" |
    grep -qF '\ntpdf_serve_compiles_total '"$2"'\n' || {
    echo "serve-smoke: FAIL ($1: expected tpdf_serve_compiles_total $2)" >&2
    exit 1
  }
}
expect_compiles m1 1
expect_compiles m2 2
echo "serve-smoke: OK"
