.PHONY: all build test fmt smoke fuzz speed trace dse golden serve-bench ci clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting check; skipped (with a notice) when ocamlformat is not
# installed, since the container image does not ship it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Cheap end-to-end smoke of the experiment engine: Figure 2 on a
# reduced workload set, sequentially and on 4 workers.
smoke:
	T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=1 dune exec bench/main.exe -- f2
	T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=4 dune exec bench/main.exe -- f2

# Differential fuzzing of the whole extraction/selection/simulation
# pipeline against the reference interpreter, plus checkpoint
# corruption drills.  Deterministic: a failure prints the seed and a
# shrunk reproducer under _fuzz/.
fuzz:
	dune exec bin/t1000_cli.exe -- fuzz --seed 42 --cases 200

# Full engine timing: sequential vs parallel over every paper artifact
# and ablation; writes BENCH_engine.json.
speed:
	dune exec bench/main.exe -- speed

# Design-space exploration: Pareto frontier of (geomean speedup, LUT
# area, PFU count) over the 6-axis selective configuration space, with
# dominance pruning and checkpoint/resume; writes DSE.json.
dse:
	dune exec bin/t1000_cli.exe -- dse --budget 24 --json DSE.json

# Load benchmark of the selection-as-a-service daemon: throughput and
# latency percentiles at 1/8/64 concurrent clients plus a deliberate
# overload leg (queue depth 1); writes BENCH_serve.json.
serve-bench:
	dune exec bench/main.exe -- serve

# Re-record the golden artifact snapshots under test/golden/ after an
# intentional model or rendering change.
golden:
	T1000_PROMOTE=1 T1000_GOLDEN_DIR=test/golden dune exec test/test_golden.exe

# Traced Figure 2 on a reduced suite: writes trace.json (load it in
# Perfetto or chrome://tracing) and validates it.
trace:
	T1000_WORKLOADS=unepic,g721_dec dune exec bin/t1000_cli.exe -- \
	  experiment f2 --trace trace.json
	dune exec bin/t1000_cli.exe -- trace-check trace.json

ci:
	./ci.sh

clean:
	dune clean
	rm -rf _build_dev
