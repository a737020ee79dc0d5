#!/bin/sh
# Network-chaos smoke: drive the real binary over real sockets through
# the failure modes DESIGN.md section 10 promises to survive.
#
#   1. kill -9 mid-migration: daemon A self-SIGKILLs at an injected
#      crash point (--kill-at src_after_commit) while handing tenant
#      "mv" to daemon B.  After restarting A and running
#      `client --resolve`, the tenant must be live on *exactly one*
#      daemon, its transcript from there on and its newest checkpoint
#      must be byte-identical to an unmigrated control daemon's.
#   2. graceful drain: `client --drain` flips the daemon into
#      draining (new submissions shed with code "draining", existing
#      tenants still advance), `--drain --stop` stops it.
#   3. netfault pass-through: a daemon whose socket layer shreds every
#      write into tiny chunks (--netfault) still answers correctly.
#
# The in-process equivalents (full 7-point crash matrix, chaotic-dial
# seed sweep, protocol fuzz) live in test/test_serve.ml; this script
# checks the same contracts end-to-end through bin/tpdf_tool.
# Usage: ci/netchaos_smoke.sh   (or: make netchaos-smoke)
set -eu
cd "$(dirname "$0")/.."
. ci/json.sh

dune build bin/tpdf_tool.exe
bin=_build/default/bin/tpdf_tool.exe
dir="$(mktemp -d)"
pids=""
cleanup() {
  for p in $pids; do kill -9 "$p" 2> /dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

"$bin" export fig1 "$dir/fig1.tpdf" > /dev/null
graph=$(json_string "$dir/fig1.tpdf")

wait_sock() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  [ -S "$1" ] || { echo "netchaos-smoke: FAIL ($1 never appeared)" >&2; exit 1; }
}

req() { # req SOCKET JSON-LINE
  "$bin" client "$1" -e "$2"
}

expect_ok() { # expect_ok WHAT OUT
  case "$2" in
    *'"ok":true'*) ;;
    *) echo "netchaos-smoke: FAIL ($1): $2" >&2; exit 1 ;;
  esac
}

expect_code() { # expect_code WHAT CODE OUT
  case "$3" in
    *'"code":"'"$2"'"'*) ;;
    *) echo "netchaos-smoke: FAIL ($1, wanted code $2): $3" >&2; exit 1 ;;
  esac
}

newest_ckpt() { # newest_ckpt STATE_DIR TENANT
  ls "$1/tenants/$2" | sort | tail -n 1
}

# ---- control: one daemon, never interrupted, never migrated --------------
"$bin" serve "$dir/csock" --state-dir "$dir/cstate" 2> /dev/null &
cpid=$!
pids="$pids $cpid"
wait_sock "$dir/csock"
expect_ok "control submit" "$(req "$dir/csock" '{"id":"s","op":"submit","name":"mv","graph":'"$graph"'}')"
expect_ok "control advance" "$(req "$dir/csock" '{"id":"a1","op":"advance","name":"mv","iterations":3}')"
req "$dir/csock" '{"id":"a2","op":"advance","name":"mv","iterations":2}' > "$dir/control_adv2.out"
req "$dir/csock" '{"id":"q","op":"query","name":"mv"}' > "$dir/control_q.out"
kill -9 "$cpid" 2> /dev/null || true
wait "$cpid" 2> /dev/null || true

# ---- chaos: kill -9 the source daemon mid-handoff ------------------------
# src_after_commit: the destination has committed the tenant but the
# source dies before releasing its own copy — the worst-case "both
# sides have durable state" window.
"$bin" serve "$dir/asock" --state-dir "$dir/astate" --kill-at src_after_commit 2> /dev/null &
apid=$!
pids="$pids $apid"
"$bin" serve "$dir/bsock" --state-dir "$dir/bstate" 2> /dev/null &
bpid=$!
pids="$pids $bpid"
wait_sock "$dir/asock"
wait_sock "$dir/bsock"

expect_ok "submit on A" "$(req "$dir/asock" '{"id":"s","op":"submit","name":"mv","graph":'"$graph"'}')"
expect_ok "advance on A" "$(req "$dir/asock" '{"id":"a1","op":"advance","name":"mv","iterations":3}')"

# The migrate request dies with daemon A (injected SIGKILL, no reply);
# the client's retries then hit a dead socket and give up.
"$bin" client "$dir/asock" --retries 1 --migrate mv --to "$dir/bsock" > /dev/null 2>&1 || true
wait "$apid" 2> /dev/null || true

# Restart A on the same state directory and resolve the in-doubt handoff.
"$bin" serve "$dir/asock" --state-dir "$dir/astate" 2> /dev/null &
apid=$!
pids="$pids $apid"
wait_sock "$dir/asock"
expect_ok "resolve on A" "$(req "$dir/asock" '{"op":"resolve","name":"mv"}')"

# Exactly one owner: gone from A, running on B with nothing lost.
expect_code "post-resolve query on A" unknown_tenant \
  "$(req "$dir/asock" '{"id":"q","op":"query","name":"mv"}')"
bq=$(req "$dir/bsock" '{"id":"q","op":"query","name":"mv"}')
expect_ok "post-resolve query on B" "$bq"
case "$bq" in
  *'"status":"running"'*) ;;
  *) echo "netchaos-smoke: FAIL (tenant not running on B): $bq" >&2; exit 1 ;;
esac

# From here on B must be indistinguishable from the control daemon:
# same advance transcript, same query, byte-identical newest checkpoint.
req "$dir/bsock" '{"id":"a2","op":"advance","name":"mv","iterations":2}' > "$dir/b_adv2.out"
req "$dir/bsock" '{"id":"q","op":"query","name":"mv"}' > "$dir/b_q.out"
diff "$dir/control_adv2.out" "$dir/b_adv2.out"
diff "$dir/control_q.out" "$dir/b_q.out"
c_ck=$(newest_ckpt "$dir/cstate" mv)
b_ck=$(newest_ckpt "$dir/bstate" mv)
[ "$c_ck" = "$b_ck" ] || {
  echo "netchaos-smoke: FAIL (ckpt names differ: $c_ck vs $b_ck)" >&2
  exit 1
}
cmp "$dir/cstate/tenants/mv/$c_ck" "$dir/bstate/tenants/mv/$b_ck"
kill -9 "$apid" "$bpid" 2> /dev/null || true
wait "$apid" 2> /dev/null || true
wait "$bpid" 2> /dev/null || true

# ---- graceful drain ------------------------------------------------------
"$bin" serve "$dir/dsock" --state-dir "$dir/dstate" 2> /dev/null &
dpid=$!
pids="$pids $dpid"
wait_sock "$dir/dsock"
expect_ok "submit before drain" "$(req "$dir/dsock" '{"op":"submit","name":"keep","graph":'"$graph"'}')"
dr=$("$bin" client "$dir/dsock" --drain)
expect_ok "drain" "$dr"
case "$dr" in
  *'"draining":true'*) ;;
  *) echo "netchaos-smoke: FAIL (drain reply lacks draining:true): $dr" >&2; exit 1 ;;
esac
expect_code "submit while draining" draining \
  "$(req "$dir/dsock" '{"op":"submit","name":"new","graph":'"$graph"'}')"
expect_ok "advance while draining" \
  "$(req "$dir/dsock" '{"op":"advance","name":"keep","iterations":1}')"
expect_ok "drain --stop" "$("$bin" client "$dir/dsock" --drain --stop)"
wait "$dpid" 2> /dev/null || true

# ---- netfault pass-through ----------------------------------------------
# Every byte of every reply dribbles out in 2-byte chunks and every read
# is shredded too; the framing layer must reassemble it all.
"$bin" serve "$dir/nsock" --netfault 'shortread:1.0:5,shortwrite:1.0:2' \
  --netfault-seed 3 2> /dev/null &
npid=$!
pids="$pids $npid"
wait_sock "$dir/nsock"
for i in 1 2 3; do
  out=$(req "$dir/nsock" '{"id":"p'"$i"'","op":"ping"}')
  expect_ok "ping $i under netfault" "$out"
  case "$out" in
    *'"id":"p'"$i"'"'*) ;;
    *) echo "netchaos-smoke: FAIL (ping $i id mismatch): $out" >&2; exit 1 ;;
  esac
done
kill -9 "$npid" 2> /dev/null || true
wait "$npid" 2> /dev/null || true
pids=""

echo "netchaos-smoke: OK"
