.PHONY: all build test bench bench-smoke obs-smoke check chaos resume-smoke \
  serve-smoke netchaos-smoke clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# E17-E23 at smoke sizes (seconds, not minutes), written to SMOKE_DIR
# so the checked-in full-size BENCH_*.json files are never clobbered,
# then held to their schema and gates by `main.exe check`.  `make bench`
# rewrites every checked-in file in one full-size run.
SMOKE_DIR = _bench-smoke
SMOKE_ONLY = E17,E18,E19,E20,E21,E22,E23

bench-smoke:
	rm -rf $(SMOKE_DIR)
	TPDF_BENCH_SMOKE=1 TPDF_BENCH_ONLY=$(SMOKE_ONLY) TPDF_BENCH_DIR=$(SMOKE_DIR) \
	  dune exec bench/main.exe
	TPDF_BENCH_SMOKE=1 dune exec bench/main.exe -- check $(SMOKE_DIR)/*.json

# Telemetry smoke: the E20 bench smoke, plus the critical-path analyzer
# on both case studies — it exits non-zero if the observed period beats
# the proven MCR bound or drifts from the throughput prediction.
obs-smoke:
	$(MAKE) bench-smoke SMOKE_ONLY=E20
	dune exec bin/tpdf_tool.exe -- analyze-trace ofdm-tpdf -p beta=2 -p N=8 -p L=1
	dune exec bin/tpdf_tool.exe -- analyze-trace edge -p W=8 -p H=8

check:
	sh ci/check.sh

# Seeded chaos runs on both case studies; exits non-zero on an
# unrecovered stall (same invocations as the CI smoke).
chaos:
	dune exec bin/tpdf_tool.exe -- chaos edge --seed 42 \
	  --faults 'fail:IDuplicate:0.8:2,jitter:*:0.2:0.5' --iterations 4
	dune exec bin/tpdf_tool.exe -- chaos ofdm-tpdf -p beta=2 -p N=8 -p L=1 \
	  --seed 42 --faults 'overrun:QAM:0.8:8,fail:FFT:0.3:4' \
	  --deadline QAM=0.05 --degrade-after 2 --iterations 6

# Crash-recovery smoke: kill a checkpointed chaos run mid-flight (exit
# 3), resume from the newest valid checkpoint, and require the resumed
# stdout to match the uninterrupted run byte for byte.
resume-smoke:
	@dir=$$(mktemp -d); \
	args="chaos ofdm-tpdf -p beta=2 -p N=8 -p L=1 --seed 42 \
	  --faults overrun:QAM:0.8:8,fail:FFT:0.3:4 --deadline QAM=0.05 \
	  --degrade-after 2 --iterations 6"; \
	dune exec bin/tpdf_tool.exe -- $$args > $$dir/golden && \
	{ dune exec bin/tpdf_tool.exe -- $$args --checkpoint-every 1 \
	    --checkpoint-dir $$dir/ckpts --kill-at-ms 3.0 > /dev/null; \
	  test $$? -eq 3; } && \
	dune exec bin/tpdf_tool.exe -- resume $$dir/ckpts \
	  > $$dir/resumed 2> /dev/null && \
	diff $$dir/golden $$dir/resumed && \
	rm -rf $$dir && echo "resume-smoke: OK"

# Serving smoke: daemon on a Unix socket, two tenants submitted and
# advanced, kill -9, restart on the same state dir — the continued
# session's responses must match an uninterrupted daemon's byte for
# byte.  See ci/serve_smoke.sh.
serve-smoke:
	sh ci/serve_smoke.sh

# Network-chaos smoke: kill -9 the source daemon mid-migration over real
# sockets, restart, resolve — the tenant must end up live on exactly one
# daemon with a byte-identical checkpoint; plus graceful drain and a
# fault-injecting socket layer round-trip.  See ci/netchaos_smoke.sh.
netchaos-smoke:
	sh ci/netchaos_smoke.sh

clean:
	dune clean
