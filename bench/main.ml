(* Benchmark harness: regenerates every table and figure of the paper
   (Figure 2, the Section 4.1 statistics, Figure 6, the Section 5.2
   penalty sensitivity, Figure 7) plus the DESIGN.md ablations A1-A7,
   and runs Bechamel micro-benchmarks of the system's own hot kernels.

   Usage:
     dune exec bench/main.exe              # all paper artifacts + ablations
     dune exec bench/main.exe -- f2        # one artifact (f2 t41 f6 s52 f7)
     dune exec bench/main.exe -- a1        # one ablation  (a1..a5)
     dune exec bench/main.exe -- paper     # paper artifacts only
     dune exec bench/main.exe -- perf      # Bechamel micro-benchmarks
     dune exec bench/main.exe -- speed     # engine timing -> BENCH_engine.json
     dune exec bench/main.exe -- serve     # daemon load    -> BENCH_serve.json

   Environment:
     T1000_NJOBS      worker count for the experiment engine (1 = serial)
     T1000_WORKLOADS  comma-separated subset of the benchmark suite,
                      e.g. T1000_WORKLOADS=unepic,epic for a smoke run *)

open T1000

let suite_workloads () =
  match Sys.getenv_opt "T1000_WORKLOADS" with
  | None -> T1000_workloads.Registry.all
  | Some s ->
      let names =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun n -> n <> "")
      in
      if names = [] then T1000_workloads.Registry.all
      else
        List.map
          (fun n ->
            match T1000_workloads.Registry.find n with
            | Some w -> w
            | None ->
                Format.eprintf "unknown workload %S (known: %s)@." n
                  (String.concat ", " T1000_workloads.Registry.names);
                exit 2)
          names

let ctx = lazy (Experiment.create_ctx ~workloads:(suite_workloads ()) ())

let banner title = Format.printf "@.==== %s ====@.@." title

let run_f2 () =
  banner "F2: Figure 2 (greedy)";
  Format.printf "%a@." Report.pp_figure2 (Experiment.figure2 (Lazy.force ctx))

let run_t41 () =
  banner "T4.1: greedy instruction statistics";
  Format.printf "%a@." Report.pp_table41 (Experiment.table41 (Lazy.force ctx))

let run_f6 () =
  banner "F6: Figure 6 (selective)";
  Format.printf "%a@." Report.pp_figure6 (Experiment.figure6 (Lazy.force ctx))

let run_s52 () =
  banner "S5.2: reconfiguration-penalty sensitivity";
  Format.printf "%a@." Report.pp_penalty_sweep
    (Experiment.penalty_sweep (Lazy.force ctx))

let run_f7 () =
  banner "F7: Figure 7 (LUT cost distribution)";
  Format.printf "%a@." Report.pp_figure7 (Experiment.figure7 (Lazy.force ctx))

let run_a1 () =
  banner "A1: PFU-count sweep (selective)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"selective speedup vs number of PFUs")
    (Experiment.pfu_count_sweep (Lazy.force ctx))

let run_a2 () =
  banner "A2: bitwidth-threshold sweep (greedy, unlimited)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"greedy-unlimited speedup vs width threshold")
    (Experiment.width_threshold_sweep (Lazy.force ctx))

let run_a3 () =
  banner "A3: gain-threshold sweep (selective, 2 PFUs)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"selective speedup vs gain-ratio threshold")
    (Experiment.gain_threshold_sweep (Lazy.force ctx))

let run_a4 () =
  banner "A4: PFU replacement policy (selective, 2 PFUs)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"selective speedup vs replacement policy")
    (Experiment.replacement_sweep (Lazy.force ctx))

let run_a5 () =
  banner "A5: machine-width sensitivity (selective, 4 PFUs)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"speedup vs machine width (per-width baseline)")
    (Experiment.machine_sweep (Lazy.force ctx))

let run_a6 () =
  banner "A6: PFU delay model (selective, 4 PFUs)";
  Format.printf "%a@."
    (Report.pp_sweep
       ~title:"speedup: single-cycle PFU vs LUT-level delay model")
    (Experiment.latency_model_sweep (Lazy.force ctx))

let run_a7 () =
  banner "A7: branch prediction (selective, 4 PFUs, per-predictor baseline)";
  Format.printf "%a@."
    (Report.pp_sweep ~title:"speedup: perfect vs bimodal branch prediction")
    (Experiment.branch_predictor_sweep (Lazy.force ctx))

let run_a8 () =
  banner "A8: configuration prefetching (selective, 2 PFUs)";
  Format.printf "%a@."
    (Report.pp_sweep
       ~title:"speedup with/without cfgld preheader prefetch hints")
    (Experiment.prefetch_sweep (Lazy.force ctx))

let run_a9 () =
  banner "A9: speculative front end (2 PFUs, per-predictor baseline)";
  Format.printf "%a@."
    (Report.pp_sweep
       ~title:"greedy vs selective speedup per front-end branch predictor")
    (Experiment.speculation_sweep (Lazy.force ctx))

(* Small budget: each design point simulates the whole suite, so this
   leg is the frontier of the coarse corner of the default space, not
   an exhaustive sweep — `t1000 dse` is the full-fat entry point. *)
let dse_budget = 8

let run_dse () =
  banner "DSE: design-space Pareto frontier (coarse, small budget)";
  Format.printf "%a@." T1000_dse.Engine.pp_frontier
    (T1000_dse.Engine.explore ~budget:dse_budget (Lazy.force ctx)
       T1000_dse.Space.default)

(* ---- Bechamel micro-benchmarks of the system's own hot paths ---- *)

let perf_tests () =
  let open Bechamel in
  let w =
    match T1000_workloads.Registry.find "epic" with
    | Some w -> w
    | None -> assert false
  in
  let analysis = Runner.analyze w in
  let program = w.T1000_workloads.Workload.program in
  let small_interp () =
    let mem = T1000_machine.Memory.create () in
    let regs = T1000_machine.Regfile.create () in
    w.T1000_workloads.Workload.init mem regs;
    let i = T1000_machine.Interp.create ~mem ~regs program in
    ignore (T1000_machine.Interp.run ~max_steps:50_000_000 i)
  in
  let timing_sim () =
    ignore
      (T1000_ooo.Sim.run
         ~init:(fun mem regs -> w.T1000_workloads.Workload.init mem regs)
         program)
  in
  let greedy_select () =
    ignore
      (T1000_select.Greedy.select analysis.Runner.cfg analysis.Runner.live
         analysis.Runner.profile)
  in
  let selective_select () =
    ignore
      (T1000_select.Selective.select ~n_pfus:(Some 2) analysis.Runner.cfg
         analysis.Runner.loops analysis.Runner.live analysis.Runner.profile)
  in
  let lut_cost () =
    let r =
      T1000_select.Greedy.select analysis.Runner.cfg analysis.Runner.live
        analysis.Runner.profile
    in
    List.iter
      (fun e -> ignore (T1000_hwcost.Lut.cost e.T1000_select.Extinstr.dfg))
      (T1000_select.Extinstr.entries r.T1000_select.Greedy.table)
  in
  let cache_sim () =
    let c =
      T1000_cache.Cache.create ~name:"bench" ~sets:256 ~ways:2 ~line_bytes:32
    in
    for i = 0 to 99_999 do
      ignore
        (T1000_cache.Cache.access c ~addr:(i * 48 land 0xFFFFF) ~write:false)
    done
  in
  [
    Test.make ~name:"interp/epic-run" (Staged.stage small_interp);
    Test.make ~name:"ooo-sim/epic-run" (Staged.stage timing_sim);
    Test.make ~name:"select/greedy" (Staged.stage greedy_select);
    Test.make ~name:"select/selective-2pfu" (Staged.stage selective_select);
    Test.make ~name:"hwcost/lut-table" (Staged.stage lut_cost);
    Test.make ~name:"cache/100k-accesses" (Staged.stage cache_sim);
  ]

let run_perf () =
  banner "PERF: Bechamel micro-benchmarks";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let tests = Test.make_grouped ~name:"t1000" ~fmt:"%s %s" (perf_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-32s %12.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
    results

(* ---- engine speed benchmark (the `speed` target) ----

   Times the full paper-artifact suite twice -- once sequentially
   (T1000_NJOBS=1) and once on the worker pool -- with a fresh
   experiment context per leg so every leg pays the full analysis,
   selection and simulation cost, and writes BENCH_engine.json so the
   perf trajectory survives across PRs. *)

let speed_artifacts : (string * (Experiment.ctx -> unit)) list =
  [
    ("f2", fun c -> ignore (Experiment.figure2 c));
    ("t41", fun c -> ignore (Experiment.table41 c));
    ("f6", fun c -> ignore (Experiment.figure6 c));
    ("s52", fun c -> ignore (Experiment.penalty_sweep c));
    ("f7", fun c -> ignore (Experiment.figure7 c));
    ("a1", fun c -> ignore (Experiment.pfu_count_sweep c));
    ("a2", fun c -> ignore (Experiment.width_threshold_sweep c));
    ("a3", fun c -> ignore (Experiment.gain_threshold_sweep c));
    ("a4", fun c -> ignore (Experiment.replacement_sweep c));
    ("a5", fun c -> ignore (Experiment.machine_sweep c));
    ("a6", fun c -> ignore (Experiment.latency_model_sweep c));
    ("a7", fun c -> ignore (Experiment.branch_predictor_sweep c));
    ("a8", fun c -> ignore (Experiment.prefetch_sweep c));
    ("a9", fun c -> ignore (Experiment.speculation_sweep c));
  ]

(* Per-leg phase breakdown from the Obs accumulators Runner and
   Experiment feed ("<phase>.seconds" + "<phase>.calls"); time_suite
   resets the metrics first, so the snapshot covers that leg alone. *)
let leg_phases () =
  let s = Obs.Metrics.snapshot () in
  List.filter_map
    (fun (name, secs) ->
      match Filename.chop_suffix_opt ~suffix:".seconds" name with
      | None -> None
      | Some base ->
          let calls =
            Option.value ~default:0
              (List.assoc_opt (base ^ ".calls") s.Obs.Metrics.counters)
          in
          Some (base, secs, calls))
    s.Obs.Metrics.fcounters

let time_suite ~njobs =
  Unix.putenv "T1000_NJOBS" (string_of_int njobs);
  Obs.Metrics.reset ();
  let ctx = Experiment.create_ctx ~workloads:(suite_workloads ()) () in
  let timings =
    List.map
      (fun (name, f) ->
        let t0 = Unix.gettimeofday () in
        f ctx;
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "  njobs=%-2d %-4s %8.2f s@." njobs name dt;
        (name, dt))
      speed_artifacts
  in
  ( List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 timings,
    timings,
    leg_phases () )

let json_of_leg oc ~njobs ~total timings phases =
  Printf.fprintf oc
    "{ \"njobs\": %d, \"total_s\": %.3f, \"artifacts\": { %s }, \"phases\": \
     { %s } }"
    njobs total
    (String.concat ", "
       (List.map
          (fun (name, dt) -> Printf.sprintf "\"%s\": %.3f" name dt)
          timings))
    (String.concat ", "
       (List.map
          (fun (name, secs, calls) ->
            Printf.sprintf "\"%s\": { \"seconds\": %.3f, \"calls\": %d }" name
              secs calls)
          phases))

let run_speed () =
  banner "SPEED: experiment-engine wall clock (sequential vs parallel)";
  let saved_njobs = Sys.getenv_opt "T1000_NJOBS" in
  let par_njobs =
    match saved_njobs with
    | Some s when (try int_of_string (String.trim s) > 1 with _ -> false) ->
        int_of_string (String.trim s)
    | Some _ | None -> Domain.recommended_domain_count ()
  in
  let seq_total, seq_timings, seq_phases = time_suite ~njobs:1 in
  (* On a single-core machine a "parallel" leg would just re-time the
     sequential engine (or worse, pay domain overhead) and report a
     bogus slowdown as "speedup"; skip it and record null instead. *)
  let par =
    if par_njobs <= 1 then begin
      Format.printf "  (1 domain available: parallel leg skipped)@.";
      None
    end
    else Some (time_suite ~njobs:par_njobs)
  in
  (match saved_njobs with
  | Some s -> Unix.putenv "T1000_NJOBS" s
  | None -> Unix.putenv "T1000_NJOBS" "")
  ;
  let fuzz =
    let dir = Filename.temp_file "t1000_bench_fuzz" "" in
    Sys.remove dir;
    let o = T1000_fuzz.Fuzz.run_cases ~out_dir:dir ~seed:42 ~cases:100 () in
    Format.printf "  fuzz     100 cases %8.2f s  (%.0f cases/s)@."
      o.T1000_fuzz.Fuzz.elapsed_s o.T1000_fuzz.Fuzz.cases_per_s;
    o
  in
  let dse =
    let t0 = Unix.gettimeofday () in
    let ctx = Experiment.create_ctx ~workloads:(suite_workloads ()) () in
    let r =
      T1000_dse.Engine.explore ~budget:dse_budget ctx T1000_dse.Space.default
    in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf
      "  dse      budget=%d %8.2f s  (%d evaluated, %d pruned, frontier %d)@."
      dse_budget dt
      (List.length r.T1000_dse.Engine.measured)
      (List.length r.T1000_dse.Engine.pruned)
      (List.length r.T1000_dse.Engine.frontier);
    (r, dt)
  in
  let bpred =
    (* speculation overhead: selective 2-PFU suite simulation per
       front-end predictor.  A warm-up pass pays the shared analysis
       and selection cost up front so the timed legs are
       simulation-dominated; it must not simulate, or the ctx's run
       memo would serve the timed perfect leg.  The cycle deltas are
       the model cost of wrong-path fetch, the Minstr/s deltas its
       engine cost. *)
    let module Bp = T1000_bpred.Predictor in
    let ctx = Experiment.create_ctx ~workloads:(suite_workloads ()) () in
    let setup_for bp =
      let machine =
        { T1000_ooo.Mconfig.default with T1000_ooo.Mconfig.bpred = bp }
      in
      { (Runner.setup ~n_pfus:(Some 2) Runner.Selective) with Runner.machine }
    in
    List.iter
      (fun w ->
        ignore (Experiment.selection_table ctx w (setup_for Bp.Perfect)))
      (suite_workloads ());
    List.map
      (fun (label, bp) ->
        let s = setup_for bp in
        let t0 = Unix.gettimeofday () in
        let cycles, committed =
          List.fold_left
            (fun (cy, co) w ->
              let r = Experiment.run_setup ctx w s in
              ( cy + r.Runner.stats.T1000_ooo.Stats.cycles,
                co + r.Runner.stats.T1000_ooo.Stats.committed ))
            (0, 0) (suite_workloads ())
        in
        let dt = Unix.gettimeofday () -. t0 in
        let mips =
          if dt > 0.0 then float_of_int committed /. dt /. 1e6 else 0.0
        in
        Format.printf
          "  bpred    %-10s %8.2f s  (%d cycles, %.1f Minstr/s)@." label dt
          cycles mips;
        (label, cycles, committed, dt, mips))
      [
        ("perfect", Bp.Perfect);
        ("bimodal@11", Bp.Bimodal 11);
        ("gshare@11", Bp.Gshare 11);
      ]
  in
  let parallel_speedup =
    match par with
    | Some (par_total, _, _) when par_total > 0.0 ->
        Some (seq_total /. par_total)
    | Some _ | None -> None
  in
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    "{\n\
    \  \"generated_by\": \"dune exec bench/main.exe -- speed\",\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"workloads\": [ %s ],\n\
    \  \"sequential\": "
    (Domain.recommended_domain_count ())
    (String.concat ", "
       (List.map
          (fun (w : T1000_workloads.Workload.t) ->
            Printf.sprintf "\"%s\"" w.T1000_workloads.Workload.name)
          (suite_workloads ())));
  json_of_leg oc ~njobs:1 ~total:seq_total seq_timings seq_phases;
  Printf.fprintf oc ",\n  \"parallel\": ";
  (match par with
  | None -> Printf.fprintf oc "null"
  | Some (par_total, par_timings, par_phases) ->
      json_of_leg oc ~njobs:par_njobs ~total:par_total par_timings par_phases);
  Printf.fprintf oc
    ",\n\
    \  \"fuzz\": { \"cases\": %d, \"seconds\": %.3f, \"cases_per_s\": %.1f, \
     \"failures\": %d }"
    fuzz.T1000_fuzz.Fuzz.cases fuzz.T1000_fuzz.Fuzz.elapsed_s
    fuzz.T1000_fuzz.Fuzz.cases_per_s
    (List.length fuzz.T1000_fuzz.Fuzz.failures);
  (let r, dt = dse in
   Printf.fprintf oc
     ",\n\
     \  \"dse\": { \"budget\": %d, \"evaluated\": %d, \"pruned\": %d, \
      \"frontier\": %d, \"rounds\": %d, \"seconds\": %.3f }"
     dse_budget
     (List.length r.T1000_dse.Engine.measured)
     (List.length r.T1000_dse.Engine.pruned)
     (List.length r.T1000_dse.Engine.frontier)
     r.T1000_dse.Engine.rounds dt);
  (let perfect_mips =
     match bpred with (_, _, _, _, m) :: _ -> m | [] -> 0.0
   in
   Printf.fprintf oc ",\n  \"bpred\": [ %s ]"
     (String.concat ", "
        (List.map
           (fun (label, cycles, committed, dt, mips) ->
             Printf.sprintf
               "{ \"predictor\": \"%s\", \"cycles\": %d, \"committed\": %d, \
                \"seconds\": %.3f, \"minstr_per_s\": %.2f, \
                \"throughput_vs_perfect\": %s }"
               label cycles committed dt mips
               (if perfect_mips > 0.0 then
                  Printf.sprintf "%.3f" (mips /. perfect_mips)
                else "null"))
           bpred)));
  Printf.fprintf oc ",\n  \"parallel_speedup\": %s\n}\n"
    (match parallel_speedup with
    | None -> "null"
    | Some s -> Printf.sprintf "%.3f" s);
  close_out oc;
  (match (par, parallel_speedup) with
  | Some (par_total, _, _), Some s ->
      Format.printf
        "@.sequential %.2f s | parallel (njobs=%d) %.2f s | speedup %.2fx@."
        seq_total par_njobs par_total s
  | _ ->
      Format.printf "@.sequential %.2f s | parallel leg skipped@." seq_total);
  Format.printf "wrote BENCH_engine.json@."

(* ---- serve daemon load benchmark (the `serve` target) ----

   Throughput and latency of the selection-as-a-service daemon at 1, 8
   and 64 concurrent clients, plus a deliberate-overload leg (one
   worker, queue depth 1) measuring the shed rate.  Requests carry
   distinct penalties so every one simulates (the analysis/baseline/
   table caches stay warm — the realistic multi-tenant pattern), and
   the results land in BENCH_serve.json. *)

module Sproto = T1000_serve.Protocol
module Sserver = T1000_serve.Server
module Sclient = T1000_serve.Client

let serve_bench_requests () =
  match Sys.getenv_opt "T1000_SERVE_BENCH_REQUESTS" with
  | None | Some "" -> 8
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          Format.eprintf
            "T1000_SERVE_BENCH_REQUESTS must be a positive integer@.";
          exit 2)

(* ~8k loop iterations: a simulation in the low tens of milliseconds,
   so a load leg exercises queueing rather than one giant sim. *)
let serve_bench_kernel =
  Sproto.Asm
    {
      name = "bench";
      text =
        "    addui r2, r0, 8192\n\
        \    addui r1, r0, 0\n\
         loop:\n\
        \    addui r1, r1, 1\n\
        \    bne r1, r2, loop\n\
        \    halt\n";
    }

let serve_leg ~clients ~requests ~queue ~njobs kernel =
  let path = Filename.temp_file "t1000_serve_bench" ".sock" in
  Sys.remove path;
  let srv =
    Sserver.create
      {
        Sserver.addrs = [ Sserver.Unix_sock path ];
        queue_depth = queue;
        njobs;
        default_deadline_ms = None;
        retries = None;
        max_steps = 10_000_000;
        memo_cap = T1000.Memo.default_cap;
      }
  in
  let th = Thread.create Sserver.run srv in
  let latencies = Array.make (clients * requests) 0.0 in
  let ok = Atomic.make 0 and shed = Atomic.make 0 and errors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            match Sclient.connect (Sserver.Unix_sock path) with
            | Error m ->
                Format.eprintf "serve bench: %s@." m;
                exit 1
            | Ok c ->
                for r = 0 to requests - 1 do
                  let i = (ci * requests) + r in
                  let sel =
                    {
                      Sproto.kernel;
                      method_ = `Selective;
                      pfus = Some 2;
                      penalty = i (* unique: defeat the result cache *);
                      max_cycles = None;
                      deadline_ms = None;
                    }
                  in
                  let s = Unix.gettimeofday () in
                  (match Sclient.request c sel with
                  | Ok (`Outcome _) -> Atomic.incr ok
                  | Ok (`Error (Sproto.Overloaded, _)) -> Atomic.incr shed
                  | Ok _ | Error _ -> Atomic.incr errors);
                  latencies.(i) <- (Unix.gettimeofday () -. s) *. 1e3
                done;
                Sclient.close c)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Sserver.stop srv;
  Thread.join th;
  (try Sys.remove path with Sys_error _ -> ());
  Array.sort compare latencies;
  let pct p =
    let n = Array.length latencies in
    latencies.(max 0 (min (n - 1) (int_of_float (p /. 100. *. float_of_int n))))
  in
  ( elapsed,
    Atomic.get ok,
    Atomic.get shed,
    Atomic.get errors,
    pct 50.,
    pct 95.,
    latencies.(Array.length latencies - 1) )

(* Supervised tier under fire: [replicas] real child daemons behind the
   failover client, one replica SIGKILLed mid-load.  The numbers that
   matter: zero dropped requests, the restart count, and how little the
   tail latency moves while a third of the tier is being respawned. *)
let supervised_leg ~replicas ~clients ~requests kernel =
  let cli_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "t1000_cli.exe"))
  in
  let cfg =
    {
      T1000_serve.Supervisor.exe = cli_exe;
      replicas;
      socket_dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "t1000-bench-sup-%d" (Unix.getpid ()));
      restarts = 5;
      health_period_s = 0.2;
      health_timeout_s = 1.0;
      wedged_after = 100;
      drain_grace_s = 10.0;
      serve_args = [ "--jobs"; "2"; "--queue"; "128" ];
    }
  in
  let sup = T1000_serve.Supervisor.create cfg in
  let th = Thread.create T1000_serve.Supervisor.run sup in
  (match T1000_serve.Supervisor.wait_ready ~timeout_s:30.0 sup with
  | Ok () -> ()
  | Error m ->
      Format.eprintf "serve bench: supervised tier not ready: %s@." m;
      exit 1);
  let addrs = T1000_serve.Supervisor.sockets sup in
  let latencies = Array.make (clients * requests) 0.0 in
  let ok = Atomic.make 0 and shed = Atomic.make 0 and errors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let fo = T1000_serve.Client.Failover.create ~cycles:8 addrs in
            Fun.protect
              ~finally:(fun () -> T1000_serve.Client.Failover.close fo)
            @@ fun () ->
            for r = 0 to requests - 1 do
              let i = (ci * requests) + r in
              let sel =
                {
                  Sproto.kernel;
                  method_ = `Selective;
                  pfus = Some 2;
                  penalty = i (* unique: defeat the result cache *);
                  max_cycles = None;
                  deadline_ms = None;
                }
              in
              let s = Unix.gettimeofday () in
              (match T1000_serve.Client.Failover.request fo sel with
              | Ok (`Outcome _) -> Atomic.incr ok
              | Ok (`Error (Sproto.Overloaded, _)) -> Atomic.incr shed
              | Ok _ | Error _ -> Atomic.incr errors);
              latencies.(i) <- (Unix.gettimeofday () -. s) *. 1e3
            done)
          ())
  in
  (* Let the load ramp, then murder one replica outright. *)
  Thread.delay 0.05;
  let killed =
    match T1000_serve.Supervisor.pids sup with
    | pid :: _ when pid > 0 ->
        Unix.kill pid Sys.sigkill;
        true
    | _ -> false
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Give the monitor a moment to observe the kill, so the reported
     restart count reflects the respawn even on very short runs. *)
  if killed then begin
    let deadline = Unix.gettimeofday () +. 5.0 in
    while
      T1000_serve.Supervisor.restarts_total sup = 0
      && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.02
    done
  end;
  T1000_serve.Supervisor.stop sup;
  Thread.join th;
  let restarts = T1000_serve.Supervisor.restarts_total sup in
  Array.sort compare latencies;
  let pct p =
    let n = Array.length latencies in
    latencies.(max 0 (min (n - 1) (int_of_float (p /. 100. *. float_of_int n))))
  in
  ( elapsed,
    Atomic.get ok,
    Atomic.get shed,
    Atomic.get errors,
    restarts,
    pct 50.,
    pct 95.,
    latencies.(Array.length latencies - 1) )

let run_serve () =
  banner "SERVE: daemon load benchmark";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let requests = serve_bench_requests () in
  let njobs = Pool.default_njobs () in
  let levels = [ 1; 8; 64 ] in
  let legs =
    List.map
      (fun clients ->
        let elapsed, ok, shed, errors, p50, p95, pmax =
          serve_leg ~clients ~requests ~queue:128 ~njobs serve_bench_kernel
        in
        let total = clients * requests in
        Format.printf
          "  %3d clients x %d req: %6.2f s  %7.1f req/s  p50 %6.1f ms  p95 \
           %6.1f ms  (ok %d, shed %d, errors %d)@."
          clients requests elapsed
          (float_of_int total /. elapsed)
          p50 p95 ok shed errors;
        (clients, total, elapsed, ok, shed, errors, p50, p95, pmax))
      levels
  in
  (* Overload: one worker, queue depth 1, everyone at once — the point
     is the shed rate, not throughput. *)
  let o_clients = 16 and o_requests = max 1 (requests / 4) in
  let o_elapsed, o_ok, o_shed, o_errors, _, _, _ =
    serve_leg ~clients:o_clients ~requests:o_requests ~queue:1 ~njobs:1
      serve_bench_kernel
  in
  let o_total = o_clients * o_requests in
  let o_rate = float_of_int o_shed /. float_of_int o_total in
  Format.printf
    "  overload %d clients x %d req (queue 1, 1 worker): %6.2f s  shed \
     %d/%d (%.0f%%), ok %d, errors %d@."
    o_clients o_requests o_elapsed o_shed o_total (100. *. o_rate) o_ok
    o_errors;
  (* Supervised tier with a mid-load SIGKILL: the crash drill as a
     benchmark.  Zero errors is the pass condition; the restart count
     and tail latencies quantify the blast radius. *)
  let s_replicas = 3 and s_clients = 8 in
  let s_requests = max 2 (requests / 2) in
  let s_elapsed, s_ok, s_shed, s_errors, s_restarts, s_p50, s_p95, s_pmax =
    supervised_leg ~replicas:s_replicas ~clients:s_clients
      ~requests:s_requests serve_bench_kernel
  in
  let s_total = s_clients * s_requests in
  Format.printf
    "  supervised %d replicas, %d clients x %d req + SIGKILL: %6.2f s  \
     %7.1f req/s  p50 %6.1f ms  p95 %6.1f ms  (ok %d, shed %d, errors %d, \
     restarts %d)@."
    s_replicas s_clients s_requests s_elapsed
    (float_of_int s_total /. s_elapsed)
    s_p50 s_p95 s_ok s_shed s_errors s_restarts;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"generated_by\": \"dune exec bench/main.exe -- serve\",\n\
    \  \"njobs\": %d,\n\
    \  \"requests_per_client\": %d,\n\
    \  \"levels\": [" njobs requests;
  List.iteri
    (fun i (clients, total, elapsed, ok, shed, errors, p50, p95, pmax) ->
      Printf.fprintf oc
        "%s\n\
        \    { \"clients\": %d, \"requests\": %d, \"seconds\": %.3f, \
         \"throughput_rps\": %.1f, \"ok\": %d, \"shed\": %d, \"errors\": \
         %d, \"latency_ms\": { \"p50\": %.2f, \"p95\": %.2f, \"max\": %.2f \
         } }"
        (if i = 0 then "" else ",")
        clients total elapsed
        (float_of_int total /. elapsed)
        ok shed errors p50 p95 pmax)
    legs;
  Printf.fprintf oc
    "\n\
    \  ],\n\
    \  \"overload\": { \"clients\": %d, \"requests\": %d, \"queue_depth\": \
     1, \"njobs\": 1, \"seconds\": %.3f, \"ok\": %d, \"shed\": %d, \
     \"errors\": %d, \"shed_rate\": %.3f },\n\
    \  \"supervised\": { \"replicas\": %d, \"clients\": %d, \"requests\": \
     %d, \"sigkill_mid_load\": true, \"seconds\": %.3f, \"ok\": %d, \
     \"shed\": %d, \"errors\": %d, \"restarts\": %d, \"latency_ms\": { \
     \"p50\": %.2f, \"p95\": %.2f, \"max\": %.2f } }\n\
     }\n"
    o_clients o_total o_elapsed o_ok o_shed o_errors o_rate s_replicas
    s_clients s_total s_elapsed s_ok s_shed s_errors s_restarts s_p50 s_p95
    s_pmax;
  close_out oc;
  Format.printf "wrote BENCH_serve.json@."

let paper () =
  run_f2 ();
  run_t41 ();
  run_f6 ();
  run_s52 ();
  run_f7 ()

let ablations () =
  run_a1 ();
  run_a2 ();
  run_a3 ();
  run_a4 ();
  run_a5 ();
  run_a6 ();
  run_a7 ();
  run_a8 ();
  run_a9 ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      paper ();
      ablations ()
  | _ ->
      List.iter
        (function
          | "f2" -> run_f2 ()
          | "t41" -> run_t41 ()
          | "f6" -> run_f6 ()
          | "s52" -> run_s52 ()
          | "f7" -> run_f7 ()
          | "a1" -> run_a1 ()
          | "a2" -> run_a2 ()
          | "a3" -> run_a3 ()
          | "a4" -> run_a4 ()
          | "a5" -> run_a5 ()
          | "a6" -> run_a6 ()
          | "a7" -> run_a7 ()
          | "a8" -> run_a8 ()
          | "a9" -> run_a9 ()
          | "dse" -> run_dse ()
          | "paper" -> paper ()
          | "ablations" -> ablations ()
          | "perf" -> run_perf ()
          | "speed" -> run_speed ()
          | "serve" -> run_serve ()
          | other ->
              Format.eprintf
                "unknown experiment %S (expected f2 t41 f6 s52 f7 a1-a9 dse \
                 paper ablations perf speed serve)@."
                other;
              exit 2)
        args
