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

if ! command -v python3 > /dev/null 2>&1; then
  echo "serve-smoke: SKIPPED (python3 needed to JSON-escape graph sources)"
  exit 0
fi

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

python3 - "$dir" <<'EOF'
import json, sys
d = sys.argv[1]
fig1 = open(d + '/fig1.tpdf').read()
fig2 = open(d + '/fig2.tpdf').read()
def w(name, reqs):
    with open(d + '/' + name, 'w') as f:
        f.write('\n'.join(json.dumps(r) for r in reqs) + '\n')
sub = [
    {"id": "s1", "op": "submit", "name": "alpha", "graph": fig1},
    {"id": "s2", "op": "submit", "name": "beta", "graph": fig2,
     "params": {"p": 2}},
]
adv1 = [
    {"id": "a1", "op": "advance", "name": "alpha", "iterations": 2},
    {"id": "b1", "op": "advance", "name": "beta", "iterations": 2},
]
adv2 = [
    {"id": "a2", "op": "advance", "name": "alpha", "iterations": 3},
    {"id": "b2", "op": "advance", "name": "beta", "iterations": 3},
    {"id": "q1", "op": "query", "name": "alpha"},
    {"id": "q2", "op": "query", "name": "beta"},
]
w('phase1.txt', sub + adv1)
w('phase2.txt', adv2)
w('golden.txt', sub + adv1 + adv2)
EOF

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
python3 - "$dir" <<'EOF'
import json, sys
d = sys.argv[1]
fig2 = open(d + '/fig2.tpdf').read()
reqs = [{"id": "s", "op": "submit", "name": "c", "graph": fig2,
         "params": {"p": 2}}]
reqs += [{"id": "a%d" % i, "op": "advance", "name": "c", "iterations": 1}
         for i in range(20)]
reqs += [{"id": "m1", "op": "metrics"},
         {"id": "r", "op": "reconfigure", "name": "c", "params": {"p": 3}},
         {"id": "a", "op": "advance", "name": "c", "iterations": 1},
         {"id": "m2", "op": "metrics"}]
with open(d + '/compiles.txt', 'w') as f:
    f.write('\n'.join(json.dumps(r) for r in reqs) + '\n')
EOF
"$bin" serve "$dir/csock" 2> /dev/null &
pid=$!
"$bin" client "$dir/csock" < "$dir/compiles.txt" > "$dir/compiles.out"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
pid=
python3 - "$dir/compiles.out" <<'EOF'
import json, sys
want = {"m1": 1, "m2": 2}
for line in open(sys.argv[1]):
    r = json.loads(line)
    if not r.get("ok"):
        sys.exit("serve-smoke: request %s failed: %s" % (r.get("id"), line))
    if r.get("id") in want:
        got = [l for l in r["openmetrics"].splitlines()
               if l.startswith("tpdf_serve_compiles_total ")]
        if got != ["tpdf_serve_compiles_total %d" % want[r["id"]]]:
            sys.exit("serve-smoke: %s: expected tpdf_serve_compiles_total %d,"
                     " got %s" % (r["id"], want[r["id"]], got))
        del want[r["id"]]
if want:
    sys.exit("serve-smoke: no metrics response for %s" % sorted(want))
EOF
echo "serve-smoke: OK"
