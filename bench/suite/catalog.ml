(* Every workload and metric the benchmark reports, with the end-to-end
   metric and workload each per-layer metric is expected to move.
   BENCHMARK.json at the repository root must describe exactly these
   (the [check-config] subcommand verifies it). *)

type better = Lower | Higher

let better_string = function Lower -> "lower" | Higher -> "higher"

let workloads =
  [
    ( "golden",
      Golden.measure,
      "the 15 golden renderings on a fresh context, byte-compared: the \
       stall-heavy paper-reproduction path with verify and memo caches" );
    ( "kernels",
      Kernels.measure,
      "8 kernels x 3 setups x 3 predictors as direct Sim.run calls: the \
       dense simulator hot loop with no verify and no memo" );
    ( "dse",
      Dse.measure,
      "Engine.explore budget 64 with a fresh journal, then a resume from \
       it: DSE throughput and the journal write and read paths" );
    ( "serve",
      Serve.measure,
      "a serve daemon under 2 closed-loop clients with a fixed mix of memo \
       hits, cold simulations and tiny asm kernels: per-request latency" );
  ]

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* Bounds come from measured run-to-run spreads, after host-speed
   normalisation (speed.ml), of ten runs per workload on a shared 2-vCPU
   host: every time metric spread by 6-9 % between quartiles on some
   workload (serve's p95 by up to 15 %), so a bound of 0.25 keeps most
   spreads below a third of it; peak RSS spread by at most 3.8 %. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "ops_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "latency_p50_ms"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "latency_p95_ms"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "sim_minstr_per_s"; unit_ = "Minstr/s"; better = Higher; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.15 };
  ]

type layer = {
  lname : string;
  lunit : string;
  lbetter : better;
  moves : (string * string list) list;
      (** end-to-end metric, and the workloads where it should move;
          [[]] for counts that must stay identical *)
}

let l ?(moves = []) lname lunit lbetter = { lname; lunit; lbetter; moves }

let all = [ "golden"; "kernels"; "dse"; "serve" ]

let per_layer =
  [
    l "machine.interp_s" "s" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "machine.interp_minstr_per_s" "Minstr/s" Higher
      ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "ooo.sim_s" "s" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "ooo.timing_s" "s" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "ooo.ns_per_instr" "ns" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "ooo.ns_per_cycle" "ns" Lower ~moves:[ ("wall_s", [ "golden" ]) ];
    l "ooo.pfu_replay_s" "s" Lower ~moves:[ ("wall_s", [ "golden" ]) ];
    l "ooo.pfu_requests" "count" Lower;
    l "ooo.pfu_misses" "count" Lower;
    l "cache.replay_s" "s" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "cache.accesses" "count" Lower;
    l "cache.l1d_misses" "count" Lower;
    l "cache.l2_misses" "count" Lower;
    l "bpred.replay_s" "s" Lower ~moves:[ ("sim_minstr_per_s", [ "kernels" ]) ];
    l "bpred.branches" "count" Lower;
    l "bpred.mispredicts" "count" Lower;
    l "profile.analyze_s" "s" Lower
      ~moves:[ ("setup_s", [ "kernels" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "select.greedy_s" "s" Lower
      ~moves:[ ("setup_s", [ "kernels" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "select.selective_s" "s" Lower
      ~moves:[ ("setup_s", [ "kernels" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "select.rewrite_s" "s" Lower
      ~moves:[ ("setup_s", [ "kernels" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "core.verify_s" "s" Lower
      ~moves:[ ("wall_s", [ "golden" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "core.phase_sim_pct" "%" Lower ~moves:[ ("wall_s", [ "golden"; "dse" ]) ];
    l "core.phase_verify_pct" "%" Lower
      ~moves:[ ("wall_s", [ "golden" ]); ("latency_p50_ms", [ "serve" ]) ];
    l "core.phase_analyze_pct" "%" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
    l "core.phase_select_pct" "%" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
    l "core.sim_calls" "count" Lower ~moves:[ ("wall_s", [ "golden" ]) ];
    l "core.verify_calls" "count" Lower ~moves:[ ("wall_s", [ "golden" ]) ];
    l "core.memo_hit_ratio" "ratio" Higher ~moves:[ ("wall_s", [ "golden"; "dse" ]) ];
    l "core.journal_bytes" "bytes" Lower ~moves:[ ("ops_per_s", [ "dse" ]) ];
    l "core.checkpoint_load_ms" "ms" Lower ~moves:[ ("wall_s", [ "dse" ]) ];
    l "core.checkpoint_record_ms" "ms" Lower ~moves:[ ("ops_per_s", [ "dse" ]) ];
    l "dse.simulated" "count" Lower ~moves:[ ("ops_per_s", [ "dse" ]) ];
    l "dse.pruned" "count" Higher ~moves:[ ("ops_per_s", [ "dse" ]) ];
    l "dse.prune_ratio" "ratio" Higher ~moves:[ ("ops_per_s", [ "dse" ]) ];
    l "dse.resume_pct" "%" Lower ~moves:[ ("wall_s", [ "dse" ]) ];
    l "dse.resume_sim_tasks" "count" Lower ~moves:[ ("wall_s", [ "dse" ]) ];
  ]
  @ List.map
      (fun id ->
        l ("experiment." ^ id ^ "_pct") "%" Lower ~moves:[ ("wall_s", [ "golden" ]) ])
      Golden.ids
  @ [
      l "serve.hot_p50_pct" "%" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
      l "serve.cold_p50_pct" "%" Lower ~moves:[ ("latency_p95_ms", [ "serve" ]) ];
      l "serve.asm_p50_pct" "%" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
      l "serve.queue_wait_pct" "%" Lower ~moves:[ ("latency_p95_ms", [ "serve" ]) ];
      l "serve.service_pct" "%" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
      l "serve.cached_ratio" "ratio" Higher ~moves:[ ("ops_per_s", [ "serve" ]) ];
      l "serve.memo_evictions" "count" Lower ~moves:[ ("latency_p50_ms", [ "serve" ]) ];
    ]
  @ List.map
      (fun n ->
        if n = "ipc" then l "model.ipc" "ratio" Higher
        else l ("model." ^ n) "count" Lower)
      [
        "cycles"; "committed"; "ipc"; "pfu_misses"; "pfu_stalls";
        "ruu_full_stalls"; "mispredicts"; "squashed_instrs";
        "fetch_stall_cycles";
      ]
  @ [
      l "trace.overhead_pct" "%" Lower ~moves:[ ("wall_s", all) ];
      l "host.reference_ms" "ms" Lower;
    ]
