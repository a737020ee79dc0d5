#!/usr/bin/env bash
# Build the daemon and the benchmark harness from source, then run one
# benchmark pass.  Run from the root of the source tree; the arguments go
# to e2e.exe unchanged:
#   bash bench/e2e/run.sh --workload steady --seed 1 --seconds 20 --trace 0
set -euo pipefail

if ! command -v dune > /dev/null 2>&1 && command -v opam > /dev/null 2>&1; then
  eval "$(opam env)"
fi

# Every build product and temporary file stays inside the tree.
tmp="$PWD/.e2e-tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
export TMPDIR="$tmp" DUNE_CACHE=disabled

dune build --root . --display quiet bin/tpdf_tool.exe bench/e2e/e2e.exe >&2
_build/default/bench/e2e/e2e.exe --tool _build/default/bin/tpdf_tool.exe "$@"
