#!/bin/sh
# Tier-1 gate for the T1000 repo: build, tests, dune-file formatting, a
# cheap smoke of the parallel experiment engine, and an end-to-end
# exercise of the robustness layer (fault isolation + checkpoint
# resume).  Every simulation-running step is wrapped in a hard timeout
# so a deadlocked simulator fails the gate instead of hanging it.
set -eu

echo "== build =="
dune build

echo "== build profile: release by default, lint as strict as dev =="
# dune-workspace selects the release profile, so ocamlopt runs without
# -opaque and inlines across modules; the root dune file restores the
# dev warning set and strictness flags that release would drop.
if dune rules _build/default/lib/ooo/.t1000_ooo.objs/native/t1000_ooo__Ruu.cmx \
    | grep -q -e '-opaque'; then
  echo "the default profile compiles with -opaque (no cross-module inlining)" >&2
  exit 1
fi
# Sim.run's hot path and the leaf libraries it calls on every simulated
# instruction compile with -inline 200 (DESIGN.md Section 5k); a dune
# edit must not drop it silently.
for cmx in lib/isa/.t1000_isa.objs/native/t1000_isa__Word.cmx \
    lib/machine/.t1000_machine.objs/native/t1000_machine__Interp.cmx \
    lib/cache/.t1000_cache.objs/native/t1000_cache__Cache.cmx \
    lib/ooo/.t1000_ooo.objs/native/t1000_ooo__Ruu.cmx; do
  dune rules "_build/default/$cmx" | tr -s ' \n' '  ' \
    | grep -q -e '-inline 200' || {
    echo "$cmx is no longer compiled with -inline 200" >&2
    exit 1
  }
done
dune printenv . | grep -q -e '-strict-sequence' || {
  echo "the default profile lost the strict lint flags" >&2
  exit 1
}

echo "== tests =="
timeout 900 dune runtest

echo "== tests: dev profile =="
# The fast incremental-edit path stays green too, in its own build dir
# so the release tree in _build is not rebuilt.
dune build --profile dev --build-dir _build_dev
timeout 900 dune runtest --profile dev --build-dir _build_dev

echo "== fmt =="
# dune-project formats dune files only (there is no .ocamlformat), so
# the check needs no ocamlformat.  bench/suite/dune is the one dune file
# left out: it is not in dune's format yet (ROADMAP.md).
dune build @@fmt @lib/fmt @bin/fmt @test/fmt @examples/fmt

CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT

echo "== smoke: experiment stdout is the golden renderings =="
# On the golden suite, `experiment ID` prints test/golden/ID.txt plus a
# newline: f2 the same on 1 and 4 workers, and all 14 artifact ids in
# one run, in paper order.
GOLDEN_IDS="f2 t41 f6 s52 f7 a1 a2 a3 a4 a5 a6 a7 a8 a9"
T1000_WORKLOADS=unepic,g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment -j 1 f2 > "$CKPT_DIR/f2_seq.out"
T1000_WORKLOADS=unepic,g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment -j 4 f2 > "$CKPT_DIR/f2_par.out"
diff "$CKPT_DIR/f2_seq.out" "$CKPT_DIR/f2_par.out" || {
  echo "experiment f2 differs between -j 1 and -j 4" >&2
  exit 1
}
{ cat test/golden/f2.txt; echo; } | diff - "$CKPT_DIR/f2_seq.out" || {
  echo "experiment f2 differs from test/golden/f2.txt" >&2
  exit 1
}
T1000_WORKLOADS=unepic,g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment $GOLDEN_IDS > "$CKPT_DIR/all.out"
for id in $GOLDEN_IDS; do cat "test/golden/$id.txt"; echo; done \
  | diff - "$CKPT_DIR/all.out" || {
  echo "experiment output differs from the concatenated goldens" >&2
  exit 1
}

echo "== smoke: fault isolation + checkpoint resume =="
# A penalty sweep where one workload faults mid-sweep must still emit
# the other workload's rows, report the fault, and exit 3; re-running
# with --resume against the journal must complete and reproduce the
# clean run's stdout byte for byte.
CLEAN_OUT="$CKPT_DIR/clean.out"
FAULT_OUT="$CKPT_DIR/faulted.out"
RESUMED_OUT="$CKPT_DIR/resumed.out"

T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment s52 > "$CLEAN_OUT"

set +e
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  T1000_CHECKPOINT_DIR="$CKPT_DIR" T1000_FAULT_INJECT=g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment s52 > "$FAULT_OUT" 2> "$CKPT_DIR/faulted.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "expected exit code 3 from the faulted sweep, got $rc" >&2
  cat "$CKPT_DIR/faulted.err" >&2
  exit 1
fi
grep -q "FAULT REPORT" "$CKPT_DIR/faulted.err" || {
  echo "faulted sweep did not print a fault report" >&2
  exit 1
}

T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  T1000_CHECKPOINT_DIR="$CKPT_DIR" \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment --resume s52 > "$RESUMED_OUT"

diff "$CLEAN_OUT" "$RESUMED_OUT" || {
  echo "resumed rows differ from the uninterrupted run" >&2
  exit 1
}

# The same sweep under self-check executes every cycle the simulator's
# dead-cycle skip would elide and audits each skipped span (DESIGN.md
# Section 5k); s52's reconfiguration stalls are where skipping matters
# most.  The audit must pass and must not change a byte.
AUDITED_OUT="$CKPT_DIR/audited.out"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 T1000_SELFCHECK=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment s52 > "$AUDITED_OUT"
diff "$CLEAN_OUT" "$AUDITED_OUT" || {
  echo "self-checked s52 differs from the skipping run" >&2
  exit 1
}

echo "== fuzz: differential oracle on a fixed seed =="
# Bounded smoke of the fuzz subsystem: 100 random programs through the
# whole pipeline against the reference interpreter, plus checkpoint
# corruption drills.  Fixed seed, so a failure here is reproducible.
FUZZ_DIR="$CKPT_DIR/fuzz"
timeout 900 dune exec bin/t1000_cli.exe -- fuzz \
  --seed 42 --cases 100 --drills 10 --out "$FUZZ_DIR"

echo "== fuzz: a chaos-perturbed sweep reports the calm result =="
# The sweep runs on the worker pool, so T1000_CHAOS injects faults
# into its cases; the pool's retries must absorb every one and the
# report must equal a calm run's, elapsed-time line aside.
timeout 900 dune exec bin/t1000_cli.exe -- fuzz \
  --seed 42 --cases 100 --drills 0 --out "$FUZZ_DIR" \
  | grep -v ' cases/s)' > "$CKPT_DIR/fuzz_calm.out"
T1000_CHAOS=0.3 T1000_CHAOS_SEED=5 T1000_BACKOFF_SCALE=0 \
  timeout 900 dune exec bin/t1000_cli.exe -- fuzz \
  --seed 42 --cases 100 --drills 0 --out "$FUZZ_DIR" \
  | grep -v ' cases/s)' > "$CKPT_DIR/fuzz_chaos.out"
diff "$CKPT_DIR/fuzz_calm.out" "$CKPT_DIR/fuzz_chaos.out" || {
  echo "chaotic fuzz sweep differs from the calm run" >&2
  exit 1
}

echo "== fuzz: 2000 self-checked programs through the RUU wake paths =="
# A second fixed seed, no drills: each case draws its PFU penalty
# (0/1/10/100) and branch predictor at random and runs Sim.run under
# self-check, so the scheduler's next-cycle list and heap are audited
# on every cycle of 2000 programs.
timeout 900 dune exec bin/t1000_cli.exe -- fuzz \
  --seed 7 --cases 2000 --drills 0 --out "$CKPT_DIR/fuzz_seed7"

echo "== fuzz: armed off-by-one is caught and shrunk =="
# With the deliberate commit-count bug armed the same sweep must fail
# (exit 3), write a reproducer artifact, and shrink it to a small
# program.
set +e
T1000_FAULT_INJECT=fuzz-oracle timeout 900 dune exec bin/t1000_cli.exe -- fuzz \
  --seed 42 --cases 60 --drills 0 --out "$FUZZ_DIR" \
  > "$CKPT_DIR/fuzz_armed.out" 2> "$CKPT_DIR/fuzz_armed.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "expected exit code 3 from the armed fuzz sweep, got $rc" >&2
  cat "$CKPT_DIR/fuzz_armed.err" >&2
  exit 1
fi
grep -q "reproducer:" "$CKPT_DIR/fuzz_armed.out" || {
  echo "armed fuzz sweep did not write a reproducer" >&2
  exit 1
}
SHRUNK=$(grep -o "shrunk to [0-9]* instructions" "$CKPT_DIR/fuzz_armed.out" \
  | grep -o "[0-9]*" | sort -n | head -1)
if [ -z "$SHRUNK" ] || [ "$SHRUNK" -gt 20 ]; then
  echo "expected a reproducer shrunk to <= 20 instructions, got '${SHRUNK:-none}'" >&2
  exit 1
fi
echo "smallest reproducer: $SHRUNK instructions"

echo "== chaos: stormy resume sweep is byte-identical to calm =="
# Under T1000_CHAOS the pool injects transient faults and kills worker
# domains; retries plus the checkpoint journal must still deliver every
# row, byte-identical to the chaos-free run above.
CHAOS_CKPT=$(mktemp -d)
CHAOS_OUT="$CKPT_DIR/chaos.out"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  T1000_CHECKPOINT_DIR="$CHAOS_CKPT" T1000_CHAOS=0.2 T1000_CHAOS_SEED=7 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment --resume s52 > "$CHAOS_OUT"
rm -rf "$CHAOS_CKPT"
diff "$CLEAN_OUT" "$CHAOS_OUT" || {
  echo "chaotic sweep differs from the calm run" >&2
  exit 1
}

echo "== obs: traced sweep is byte-identical to untraced, trace validates =="
# Telemetry is contractually observational: the same experiment with
# --trace must produce byte-identical stdout, and the written trace
# must be a well-formed Chrome trace carrying spans from the simulator,
# the worker pool and the experiment engine.
PLAIN_OUT="$CKPT_DIR/obs_plain.out"
TRACED_OUT="$CKPT_DIR/obs_traced.out"
TRACE_JSON="$CKPT_DIR/obs_trace.json"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment f2 > "$PLAIN_OUT"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 T1000_METRICS=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- \
  experiment f2 --trace "$TRACE_JSON" > "$TRACED_OUT" 2> "$CKPT_DIR/obs_traced.err"
diff "$PLAIN_OUT" "$TRACED_OUT" || {
  echo "traced sweep stdout differs from the untraced run" >&2
  exit 1
}
timeout 900 dune exec bin/t1000_cli.exe -- trace-check "$TRACE_JSON"
grep -q "pool.tasks" "$CKPT_DIR/obs_traced.err" || {
  echo "T1000_METRICS=1 did not dump a metric snapshot to stderr" >&2
  exit 1
}

echo "== bpred: perfect predictor is the identity, a9 smokes =="
# The front end's default predictor is perfect: an explicit --bpred
# perfect must be byte-identical to the flagless run (same sweep as the
# obs leg above), and the speculation ablation must complete on the
# reduced suite under a hard timeout.
BPRED_OUT="$CKPT_DIR/bpred_perfect.out"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  timeout 900 dune exec bin/t1000_cli.exe -- \
  experiment f2 --bpred perfect > "$BPRED_OUT"
diff "$PLAIN_OUT" "$BPRED_OUT" || {
  echo "--bpred perfect changed the experiment output" >&2
  exit 1
}
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment a9 \
  > "$CKPT_DIR/bpred_a9.out"
grep -q "gsh2k/sel" "$CKPT_DIR/bpred_a9.out" || {
  echo "ablation a9 did not print its predictor columns" >&2
  exit 1
}
# The same sweep under self-check audits the event-driven issue
# scheduler against the window-scan readiness predicate every cycle,
# on squash-heavy runs; the audit must pass and must not change a byte.
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 T1000_SELFCHECK=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- experiment a9 \
  > "$CKPT_DIR/bpred_a9_audited.out"
diff "$CKPT_DIR/bpred_a9.out" "$CKPT_DIR/bpred_a9_audited.out" || {
  echo "self-checked a9 differs from the unaudited run" >&2
  exit 1
}

echo "== bpred: experiment speedups are against a same-predictor baseline =="
# Under --bpred the figure drivers compare each PFU run with a no-PFU
# baseline on the same speculative front end: f6's g721_dec 2-PFU cell
# must equal the speedup `run` reports for that setup (flag ->
# T1000_BPRED -> Runner.setup, the path README advertises).
F6_CELL=$(T1000_WORKLOADS=g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- \
  experiment f6 -j 1 --bpred gshare@11 | awk '$1 == "g721_dec" && $2 == "1.000" { print $3 }')
RUN_SPEEDUP=$(T1000_WORKLOADS=g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- \
  run g721_dec -m selective -p 2 -r 10 --bpred gshare@11 | awk '$1 == "speedup:" { print $2 }')
if [ -z "$F6_CELL" ] || [ "$F6_CELL" != "$RUN_SPEEDUP" ]; then
  echo "f6 2-PFU cell under --bpred ($F6_CELL) differs from run's speedup ($RUN_SPEEDUP)" >&2
  exit 1
fi

echo "== bpred: pinned front-end statistics on every kernel =="
# One pass of the benchmark's kernels matrix (8 kernels x 3 setups x
# perfect/bimodal@11/gshare@11) must reproduce all 72 pinned statistics
# lines, mispredicts, squashed and fetch stalls included.
KERNELS_OUT="$CKPT_DIR/bench_kernels.out"
timeout 900 dune exec bench/suite/t1000_bench.exe -- \
  once --workload kernels --seconds 1 --trace 0 > "$KERNELS_OUT"
tail -n 1 "$KERNELS_OUT" | grep -q '"correct":true' || {
  echo "kernel statistics differ from bench/suite/expect/kernels.txt" >&2
  tail -n 1 "$KERNELS_OUT" >&2
  exit 1
}

echo "== verify: golden renderings under the post-simulation output check =="
# One pass of the benchmark's golden workload: all 15 renderings, each
# greedy/selective run checked against the profiling run's reference
# output, must match test/golden byte for byte with no failed operation.
GOLDEN_OUT="$CKPT_DIR/bench_golden.out"
timeout 900 dune exec bench/suite/t1000_bench.exe -- \
  once --workload golden --seconds 1 --trace 0 > "$GOLDEN_OUT"
tail -n 1 "$GOLDEN_OUT" | grep -q '"correct":true' \
  && tail -n 1 "$GOLDEN_OUT" | grep -q '"failed":0' || {
  echo "golden workload: renderings differ or an operation failed" >&2
  tail -n 1 "$GOLDEN_OUT" >&2
  exit 1
}

echo "== dse: frontier determinism across worker counts =="
# A tiny-budget design-space exploration on the reduced suite must
# print a byte-identical frontier sequentially and on 4 workers.
DSE_AXES="pfus=1,2,4:penalty=0,100,500:lut=75,150:repl=lru:gain=0.005:width=4"
DSE_SEQ="$CKPT_DIR/dse_seq.out"
DSE_PAR="$CKPT_DIR/dse_par.out"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 > "$DSE_SEQ"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=4 \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 > "$DSE_PAR"
diff "$DSE_SEQ" "$DSE_PAR" || {
  echo "dse frontier differs between njobs=1 and njobs=4" >&2
  exit 1
}

echo "== dse: shared runs under self-check =="
# On the reduced suite the gain thresholds 0.001/0.005/0.02 pick one
# table, so most points share a run through the input-keyed run memo.
# Self-check keys its runs apart and audits each: the frontier must not
# change.
DSE_GAIN_AXES="pfus=1,2:penalty=0,100:lut=75,150:repl=lru:gain=0.001,0.005,0.02:width=4"
T1000_WORKLOADS=unepic,g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_GAIN_AXES" --budget 24 \
  > "$CKPT_DIR/dse_gain.out"
T1000_WORKLOADS=unepic,g721_dec T1000_SELFCHECK=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_GAIN_AXES" --budget 24 \
  > "$CKPT_DIR/dse_gain_audited.out"
diff "$CKPT_DIR/dse_gain.out" "$CKPT_DIR/dse_gain_audited.out" || {
  echo "self-checked dse frontier differs from the unaudited run" >&2
  exit 1
}

echo "== dse: PFU-equivalent points under self-check =="
# A PFU count at or above the program's configuration count reads as the
# unlimited file in the run memo's key, under any replacement policy, and
# a one-PFU file has one victim under every policy, so it reads as the
# LRU file: such points share one simulation.  Self-check keys its runs
# apart and audits each: the frontier must not change, and the plain run
# must make fewer simulations than the exploration has simulation tasks.
DSE_PFU_AXES="pfus=1,2,4,8:penalty=0,100:lut=150:repl=lru,fifo,rand:gain=0.005:width=4"
T1000_WORKLOADS=unepic T1000_METRICS=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_PFU_AXES" --budget 24 \
  > "$CKPT_DIR/dse_pfu.out" 2> "$CKPT_DIR/dse_pfu.err"
T1000_WORKLOADS=unepic T1000_SELFCHECK=1 \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_PFU_AXES" --budget 24 \
  > "$CKPT_DIR/dse_pfu_audited.out"
diff "$CKPT_DIR/dse_pfu.out" "$CKPT_DIR/dse_pfu_audited.out" || {
  echo "self-checked PFU-axis dse frontier differs from the unaudited run" >&2
  exit 1
}
SIM_CALLS=$(awk '$1 == "phase.sim.calls" { print $2 }' "$CKPT_DIR/dse_pfu.err")
SIM_TASKS=$(awk '$1 == "dse.sim_tasks" { print $2 }' "$CKPT_DIR/dse_pfu.err")
if [ -z "$SIM_CALLS" ] || [ -z "$SIM_TASKS" ] || [ "$SIM_CALLS" -ge "$SIM_TASKS" ]; then
  echo "PFU-equivalent points did not share simulations: phase.sim.calls ${SIM_CALLS:-none}, dse.sim_tasks ${SIM_TASKS:-none}" >&2
  exit 1
fi
echo "PFU-axis dse: $SIM_CALLS simulations for $SIM_TASKS simulation tasks"

echo "== dse: interrupted exploration resumes byte-identically =="
# Kill the exploration mid-flight with an injected fault (exit 3), then
# --resume against the journal: the finished frontier must match the
# uninterrupted run byte for byte.
DSE_CKPT=$(mktemp -d)
set +e
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  T1000_CHECKPOINT_DIR="$DSE_CKPT" T1000_FAULT_INJECT=g721_dec \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 \
  > "$CKPT_DIR/dse_faulted.out" 2> "$CKPT_DIR/dse_faulted.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "expected exit code 3 from the faulted dse run, got $rc" >&2
  cat "$CKPT_DIR/dse_faulted.err" >&2
  exit 1
fi
DSE_RESUMED="$CKPT_DIR/dse_resumed.out"
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 \
  T1000_CHECKPOINT_DIR="$DSE_CKPT" \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 --resume \
  > "$DSE_RESUMED"
rm -rf "$DSE_CKPT"
diff "$DSE_SEQ" "$DSE_RESUMED" || {
  echo "resumed dse frontier differs from the uninterrupted run" >&2
  exit 1
}

echo "== dse: a torn journal append resumes byte-identically =="
# Records append to the journal one line each, so a kill mid-append
# leaves its last record torn.  Cut the journal inside that record:
# --resume must drop it (one diagnostic), compact the journal,
# recompute the point and print the uninterrupted frontier byte for
# byte; a second --resume must then find the journal clean.
DSE_TORN=$(mktemp -d)
T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 T1000_CHECKPOINT_DIR="$DSE_TORN" \
  timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 \
  > /dev/null
DSE_JOURNAL=$(ls "$DSE_TORN"/*.journal)
JOURNAL_BYTES=$(wc -c < "$DSE_JOURNAL")
LAST_LINE_BYTES=$(tail -n 1 "$DSE_JOURNAL" | wc -c)
head -c $((JOURNAL_BYTES - LAST_LINE_BYTES / 2)) "$DSE_JOURNAL" > "$DSE_TORN/cut"
mv "$DSE_TORN/cut" "$DSE_JOURNAL"
for round in torn clean; do
  T1000_WORKLOADS=unepic,g721_dec T1000_NJOBS=2 T1000_CHECKPOINT_DIR="$DSE_TORN" \
    timeout 900 dune exec bin/t1000_cli.exe -- dse --axes "$DSE_AXES" --budget 12 --resume \
    > "$CKPT_DIR/dse_$round.out" 2> "$CKPT_DIR/dse_$round.err"
  diff "$DSE_SEQ" "$CKPT_DIR/dse_$round.out" || {
    echo "dse frontier resumed from a $round journal differs from the uninterrupted run" >&2
    exit 1
  }
  DROPPED=$(grep -c "dropped corrupt checkpoint record" "$CKPT_DIR/dse_$round.err" || true)
  EXPECTED=$([ "$round" = torn ] && echo 1 || echo 0)
  if [ "$DROPPED" -ne "$EXPECTED" ]; then
    echo "$round journal: expected $EXPECTED dropped record(s), got $DROPPED" >&2
    cat "$CKPT_DIR/dse_$round.err" >&2
    exit 1
  fi
done
rm -rf "$DSE_TORN"

echo "== serve: byte-stable replies, graceful drain, shedding, chaos =="
# The selection-as-a-service daemon end to end: identical client output
# across two daemon lifetimes (cold vs fresh caches), SIGTERM mid-load
# drains gracefully (exit 0, reply still delivered, socket unlinked),
# a queue-depth-1 daemon sheds with typed replies instead of blocking,
# a chaos-soaked session answers every request, a supervised 3-replica
# tier survives kill -9 under load with byte-identical replies and
# drains on SIGTERM, and one pass of the benchmark's serve workload
# completes with every reply correct.
# The daemon binary is invoked directly (not via dune exec) so signals
# land on the daemon itself.
SERVE_DIR=$(mktemp -d)
SERVE_CLI=_build/default/bin/t1000_cli.exe

# SIGTERM a daemon and wait for the graceful drain, but bounded: a
# deadlocked drain fails the gate after 60 s instead of hanging it.
serve_stop() {
  kill -TERM "$1"
  i=0
  while kill -0 "$1" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
      echo "daemon did not drain within 60s" >&2
      kill -KILL "$1" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
  wait "$1"
}

# Wait for a daemon socket to appear (its process is $2, to fail fast).
serve_wait() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "daemon did not create $1" >&2
      exit 1
    fi
    kill -0 "$2" 2>/dev/null || { echo "daemon died during startup" >&2; exit 1; }
    sleep 0.1
  done
}

cat > "$SERVE_DIR/slow.s" <<'EOF'
    lui r2, 8
    addui r1, r0, 0
loop:
    addui r1, r1, 1
    bne r1, r2, loop
    halt
EOF

# The daemon runs under a generous T1000_MAX_CYCLES, which only caps
# cycle budgets: the --max-cycles 1 request must still time out.
for pass in 1 2; do
  SOCK="$SERVE_DIR/pass$pass.sock"
  T1000_MAX_CYCLES=1000000000 "$SERVE_CLI" serve --socket "$SOCK" -j 2 \
    > "$SERVE_DIR/daemon$pass.log" 2>&1 &
  SERVE_PID=$!
  serve_wait "$SOCK" "$SERVE_PID"
  {
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" --ping
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic -n 2
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic -m greedy
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" --asm "$SERVE_DIR/slow.s"
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" nonexistent-workload
    timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic --max-cycles 1 \
      | cut -d: -f1
  } > "$SERVE_DIR/replies$pass.txt"
  serve_stop "$SERVE_PID" || { echo "serve pass $pass did not drain cleanly" >&2; exit 1; }
  [ ! -S "$SOCK" ] || { echo "serve left its socket behind" >&2; exit 1; }
  grep -q '^error\[timeout\]' "$SERVE_DIR/replies$pass.txt" || {
    echo "serve pass $pass: a request's max_cycles did not time out" >&2
    exit 1
  }
done
diff "$SERVE_DIR/replies1.txt" "$SERVE_DIR/replies2.txt" || {
  echo "daemon replies differ between two identical sessions" >&2
  exit 1
}
grep -q "error\[overloaded\]" "$SERVE_DIR/replies1.txt" && {
  echo "unloaded daemon shed a request" >&2
  exit 1
}

echo "== serve: a daemon reply is the speedup run prints =="
# The daemon and the one-shot commands evaluate through the same
# Experiment ctx: a reply's speedup must equal what `run` prints for
# the same setup, like the f6-cell-vs-run leg above.
SOCK="$SERVE_DIR/same.sock"
"$SERVE_CLI" serve --socket "$SOCK" -j 1 > "$SERVE_DIR/same_daemon.log" 2>&1 &
SERVE_PID=$!
serve_wait "$SOCK" "$SERVE_PID"
DAEMON_SPEEDUP=$(timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" \
  unepic -m selective -p 2 -r 10 | sed -n 's/^speedup=\([^ ]*\) .*/\1/p')
serve_stop "$SERVE_PID" || { echo "daemon did not drain cleanly" >&2; exit 1; }
RUN_SPEEDUP=$(timeout 300 "$SERVE_CLI" run unepic -m selective -p 2 -r 10 \
  | awk '$1 == "speedup:" { print $2 }')
if [ -z "$DAEMON_SPEEDUP" ] || [ "$DAEMON_SPEEDUP" != "$RUN_SPEEDUP" ]; then
  echo "daemon speedup ($DAEMON_SPEEDUP) differs from run's ($RUN_SPEEDUP)" >&2
  exit 1
fi

echo "== cli: dot rejects an unknown WHAT =="
if timeout 60 "$SERVE_CLI" dot unepic bogus > /dev/null 2>&1; then
  echo "dot unepic bogus exited 0" >&2
  exit 1
fi

echo "== serve: SIGTERM mid-load is a graceful drain =="
SOCK="$SERVE_DIR/drain.sock"
"$SERVE_CLI" serve --socket "$SOCK" -j 1 \
  > "$SERVE_DIR/drain_daemon.log" 2>&1 &
SERVE_PID=$!
serve_wait "$SOCK" "$SERVE_PID"
timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" --asm "$SERVE_DIR/slow.s" \
  > "$SERVE_DIR/drain_reply.txt" &
CLIENT_PID=$!
sleep 0.3
kill -TERM "$SERVE_PID"
wait "$CLIENT_PID" || { echo "in-flight client failed during drain" >&2; exit 1; }
wait "$SERVE_PID" || { echo "drain exited non-zero" >&2; exit 1; }
grep -q "speedup=" "$SERVE_DIR/drain_reply.txt" || {
  echo "in-flight request was dropped by the drain" >&2
  exit 1
}
grep -q "drained" "$SERVE_DIR/drain_daemon.log" || {
  echo "daemon did not report a drain summary" >&2
  exit 1
}
[ ! -S "$SOCK" ] || { echo "drain left the socket behind" >&2; exit 1; }

echo "== serve: queue depth 1 sheds with typed replies =="
SOCK="$SERVE_DIR/shed.sock"
"$SERVE_CLI" serve --socket "$SOCK" -j 1 --queue 1 \
  > "$SERVE_DIR/shed_daemon.log" 2>&1 &
SERVE_PID=$!
serve_wait "$SOCK" "$SERVE_PID"
# Distinct kernels (comment salt changes the digest) so every request
# really simulates ~0.5 s instead of hitting the result cache.
for i in 1 2 3 4 5; do
  sed "1i\\
# storm $i" "$SERVE_DIR/slow.s" > "$SERVE_DIR/slow$i.s"
  timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" --asm "$SERVE_DIR/slow$i.s" \
    > "$SERVE_DIR/shed$i.txt" &
  eval "SHED_PID$i=\$!"
done
SHED_FAILURES=0
for i in 1 2 3 4 5; do
  eval "wait \$SHED_PID$i" || SHED_FAILURES=$((SHED_FAILURES + 1))
done
[ "$SHED_FAILURES" -eq 0 ] || {
  echo "$SHED_FAILURES storm clients got no reply (transport failure)" >&2
  exit 1
}
cat "$SERVE_DIR"/shed[1-5].txt > "$SERVE_DIR/storm.txt"
REPLIES=$(wc -l < "$SERVE_DIR/storm.txt")
[ "$REPLIES" -eq 5 ] || {
  echo "expected 5 storm replies, got $REPLIES" >&2
  exit 1
}
grep -q "error\[overloaded\]" "$SERVE_DIR/storm.txt" || {
  echo "queue-depth-1 daemon never shed under a 5-client storm" >&2
  cat "$SERVE_DIR/storm.txt" >&2
  exit 1
}
grep -q "speedup=" "$SERVE_DIR/storm.txt" || {
  echo "no storm request was actually served" >&2
  exit 1
}
serve_stop "$SERVE_PID" || { echo "shed daemon did not drain cleanly" >&2; exit 1; }

echo "== serve: chaos-soaked session answers every request =="
SOCK="$SERVE_DIR/chaos.sock"
T1000_CHAOS=0.25 T1000_CHAOS_SEED=42 T1000_BACKOFF_SCALE=0 \
  "$SERVE_CLI" serve --socket "$SOCK" -j 2 \
  > "$SERVE_DIR/chaos_daemon.log" 2>&1 &
SERVE_PID=$!
serve_wait "$SOCK" "$SERVE_PID"
timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic -n 4 \
  > "$SERVE_DIR/chaos_replies.txt"
timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic -m greedy -n 4 \
  >> "$SERVE_DIR/chaos_replies.txt"
CHAOS_REPLIES=$(wc -l < "$SERVE_DIR/chaos_replies.txt")
[ "$CHAOS_REPLIES" -eq 8 ] || {
  echo "chaos session dropped replies: expected 8, got $CHAOS_REPLIES" >&2
  exit 1
}
grep -q "error\[" "$SERVE_DIR/chaos_replies.txt" && {
  echo "chaos injections leaked past the retry envelope" >&2
  cat "$SERVE_DIR/chaos_replies.txt" >&2
  exit 1
}
serve_stop "$SERVE_PID" || { echo "chaos daemon did not drain cleanly" >&2; exit 1; }

echo "== supervise: crash drill — kill -9 a replica under load, zero drops =="
# Reference replies from a single daemon: the supervised tier must
# produce a byte-identical merged output.
SOCK="$SERVE_DIR/ref.sock"
"$SERVE_CLI" serve --socket "$SOCK" -j 2 > "$SERVE_DIR/ref_daemon.log" 2>&1 &
SERVE_PID=$!
serve_wait "$SOCK" "$SERVE_PID"
for i in 1 2 3 4 5 6; do
  timeout 300 "$SERVE_CLI" client -c "unix:$SOCK" unepic --penalty "$i"
done > "$SERVE_DIR/ref_replies.txt"
serve_stop "$SERVE_PID" || { echo "reference daemon did not drain" >&2; exit 1; }

SUP_DIR="$SERVE_DIR/sup"
# --queue reaches each replica as an argument (checked below); 48 still
# exceeds this leg's load, so nothing is shed.
"$SERVE_CLI" supervise --replicas 3 --socket-dir "$SUP_DIR" -j 2 \
  --health-ms 100 --queue 48 > "$SERVE_DIR/sup.log" 2>&1 &
SUP_PID=$!
for i in 0 1 2; do serve_wait "$SUP_DIR/replica$i.sock" "$SUP_PID"; done
ENDPOINTS="unix:$SUP_DIR/replica0.sock,unix:$SUP_DIR/replica1.sock,unix:$SUP_DIR/replica2.sock"
# Wait until every replica answers (socket existing != accepting yet).
i=0
until timeout 30 "$SERVE_CLI" client -c "$ENDPOINTS" --health \
    > /dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "replicas never became healthy" >&2; exit 1; }
  sleep 0.1
done
# Concurrent load through the failover client...
for i in 1 2 3 4 5 6; do
  timeout 300 "$SERVE_CLI" client -c "$ENDPOINTS" unepic --penalty "$i" \
    > "$SERVE_DIR/sup_reply$i.txt" &
  eval "LOAD_PID$i=\$!"
done
# ...and murder one replica outright while it runs.
VICTIM=$(pgrep -f "serve --socket $SUP_DIR/replica0.sock" | head -1)
[ -n "$VICTIM" ] || { echo "no replica0 daemon process found" >&2; exit 1; }
kill -KILL "$VICTIM"
LOAD_FAILURES=0
for i in 1 2 3 4 5 6; do
  eval "wait \$LOAD_PID$i" || LOAD_FAILURES=$((LOAD_FAILURES + 1))
done
[ "$LOAD_FAILURES" -eq 0 ] || {
  echo "$LOAD_FAILURES failover clients failed during the kill drill" >&2
  cat "$SERVE_DIR/sup.log" >&2
  exit 1
}
cat "$SERVE_DIR"/sup_reply[1-6].txt > "$SERVE_DIR/sup_merged.txt"
diff "$SERVE_DIR/ref_replies.txt" "$SERVE_DIR/sup_merged.txt" || {
  echo "supervised-tier replies differ from the single-daemon run" >&2
  exit 1
}
grep -q "error\[" "$SERVE_DIR/sup_merged.txt" && {
  echo "the kill drill leaked a typed error to a client" >&2
  exit 1
}
# The victim must be respawned (its socket answering again).
i=0
until timeout 10 "$SERVE_CLI" client -c "unix:$SUP_DIR/replica0.sock" --ping \
    > /dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -le 300 ] || {
    echo "replica0 was not respawned within 30s" >&2
    cat "$SERVE_DIR/sup.log" >&2
    exit 1
  }
  sleep 0.1
done
# Health fan-out across the full tier reports all three replicas.
timeout 300 "$SERVE_CLI" client -c "$ENDPOINTS" --health \
  > "$SERVE_DIR/sup_health.txt"
HEALTHY=$(grep -c "pid=" "$SERVE_DIR/sup_health.txt")
[ "$HEALTHY" -eq 3 ] || {
  echo "expected 3 healthy replicas after the respawn, saw $HEALTHY" >&2
  exit 1
}
# Every replica, the respawned one too, runs with supervise's --queue.
FORWARDED=$(grep -c "queue=[0-9]*/48 " "$SERVE_DIR/sup_health.txt")
[ "$FORWARDED" -eq 3 ] || {
  echo "expected 3 replicas with queue capacity 48, saw $FORWARDED" >&2
  cat "$SERVE_DIR/sup_health.txt" >&2
  exit 1
}

echo "== supervise: rolling SIGTERM drain =="
kill -TERM "$SUP_PID"
i=0
while kill -0 "$SUP_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "supervisor did not drain within 60s" >&2
    kill -KILL "$SUP_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
wait "$SUP_PID" || { echo "supervisor drain exited non-zero" >&2; exit 1; }
grep -q "restarting (1/" "$SERVE_DIR/sup.log" || {
  echo "supervisor never recorded the respawn" >&2
  cat "$SERVE_DIR/sup.log" >&2
  exit 1
}
grep -q "drained" "$SERVE_DIR/sup.log" || {
  echo "supervisor did not report a drain summary" >&2
  exit 1
}
pgrep -f "serve --socket $SUP_DIR" > /dev/null && {
  echo "drain left replica daemons running" >&2
  exit 1
}
for i in 0 1 2; do
  [ ! -S "$SUP_DIR/replica$i.sock" ] || {
    echo "drain left replica$i.sock behind" >&2
    exit 1
  }
done

echo "== serve: one pass of the benchmark's serve workload =="
# A serve daemon under closed-loop clients with the benchmark's fixed
# request mix: every reply must match and no request may fail.  The
# overload and kill -9 legs are the shed storm and crash drill above.
SERVE_BENCH_OUT="$SERVE_DIR/bench_serve.out"
timeout 900 dune exec bench/suite/t1000_bench.exe -- \
  once --workload serve --seconds 1 --trace 0 > "$SERVE_BENCH_OUT"
tail -n 1 "$SERVE_BENCH_OUT" | grep -q '"correct":true' \
  && tail -n 1 "$SERVE_BENCH_OUT" | grep -q '"failed":0' || {
  echo "serve workload: a reply differed or a request failed" >&2
  tail -n 1 "$SERVE_BENCH_OUT" >&2
  exit 1
}
rm -rf "$SERVE_DIR"

# Long soak (opt-in): many more cases, drills and an in-process chaos
# sweep.  Enable with T1000_SOAK=1.
if [ "${T1000_SOAK:-0}" = "1" ]; then
  echo "== soak: extended fuzz + chaos =="
  timeout 3600 dune exec bin/t1000_cli.exe -- fuzz \
    --seed 1337 --cases 2000 --drills 100 --chaos 0.2 --out "$FUZZ_DIR"
fi

echo "== ci ok =="
