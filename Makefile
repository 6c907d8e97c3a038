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

# Cheap end-to-end smoke of the experiment engine on the golden suite:
# Figure 2 on 1 and 4 workers, then every artifact id, each diffed
# against its test/golden rendering (the same commands as ci.sh).
GOLDEN_IDS = f2 t41 f6 s52 f7 a1 a2 a3 a4 a5 a6 a7 a8 a9
EXPERIMENT = T1000_WORKLOADS=unepic,g721_dec dune exec bin/t1000_cli.exe -- experiment

smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(EXPERIMENT) -j 1 f2 > "$$d/f2_seq.out"; \
	$(EXPERIMENT) -j 4 f2 > "$$d/f2_par.out"; \
	diff "$$d/f2_seq.out" "$$d/f2_par.out"; \
	{ cat test/golden/f2.txt; echo; } | diff - "$$d/f2_seq.out"; \
	$(EXPERIMENT) $(GOLDEN_IDS) > "$$d/all.out"; \
	for id in $(GOLDEN_IDS); do cat "test/golden/$$id.txt"; echo; done \
	  | diff - "$$d/all.out"; \
	echo "smoke: experiment output matches test/golden"

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

# One pass of the benchmark's serve workload: a daemon under 2
# closed-loop clients with a fixed request mix; the last line is the
# JSON result ("correct", "failed", latency percentiles).
serve-bench:
	dune exec bench/suite/t1000_bench.exe -- once --workload serve --seconds 1 --trace 0

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
