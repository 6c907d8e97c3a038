(* `dune exec bench/main.exe -- speed`: times every artifact of Report's
   table sequentially (T1000_NJOBS=1) and on the worker pool, each leg
   on a fresh experiment context, then a fuzz, a DSE and a front-end
   predictor leg, and writes BENCH_engine.json.  T1000_NJOBS sets the
   parallel leg's worker count (default: the recommended domain count),
   T1000_WORKLOADS a subset of the suite.  The artifacts themselves are
   printed by `t1000_cli experiment ID`. *)

open T1000

let suite_workloads () =
  match T1000_workloads.Registry.of_env () with
  | Ok ws -> ws
  | Error msg ->
      Format.eprintf "main.exe: %s@." msg;
      exit 2

(* Small budget: each design point simulates the whole suite, so this
   leg is the frontier of the coarse corner of the default space, not
   an exhaustive sweep -- `t1000_cli dse` is the full-fat entry point. *)
let dse_budget = 8

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

(* A faulted point withholds its workload's row, so a leg with a fault
   timed less work than a clean one: report it and exit 3 rather than
   record its time. *)
let time_suite workloads ~njobs =
  Unix.putenv "T1000_NJOBS" (string_of_int njobs);
  Obs.Metrics.reset ();
  let ctx = Experiment.create_ctx ~workloads () in
  let timings =
    List.map
      (fun id ->
        let t0 = Unix.gettimeofday () in
        let _, faults = Option.get (Report.render ctx id) in
        let dt = Unix.gettimeofday () -. t0 in
        if faults <> [] then begin
          Format.eprintf "speed: %s faulted@.%a@." id Report.pp_faults faults;
          exit 3
        end;
        Format.printf "  njobs=%-2d %-4s %8.2f s@." njobs id dt;
        (id, dt))
      Report.artifact_ids
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
  let workloads = suite_workloads () in
  Format.printf
    "@.==== SPEED: experiment-engine wall clock (sequential vs parallel) \
     ====@.@.";
  let saved_njobs = Sys.getenv_opt "T1000_NJOBS" in
  let par_njobs =
    match saved_njobs with
    | Some s when (try int_of_string (String.trim s) > 1 with _ -> false) ->
        int_of_string (String.trim s)
    | Some _ | None -> Domain.recommended_domain_count ()
  in
  let seq_total, seq_timings, seq_phases = time_suite workloads ~njobs:1 in
  (* On a single-core machine a "parallel" leg would just re-time the
     sequential engine (or worse, pay domain overhead) and report a
     bogus slowdown as "speedup"; skip it and record null instead. *)
  let par =
    if par_njobs <= 1 then begin
      Format.printf "  (1 domain available: parallel leg skipped)@.";
      None
    end
    else Some (time_suite workloads ~njobs:par_njobs)
  in
  Unix.putenv "T1000_NJOBS" (Option.value ~default:"" saved_njobs);
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
    let ctx = Experiment.create_ctx ~workloads () in
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
    let ctx = Experiment.create_ctx ~workloads () in
    let setup_for bp =
      let machine =
        { T1000_ooo.Mconfig.default with T1000_ooo.Mconfig.bpred = bp }
      in
      { (Runner.setup ~n_pfus:(Some 2) Runner.Selective) with Runner.machine }
    in
    List.iter
      (fun w ->
        ignore (Experiment.selection_table ctx w (setup_for Bp.Perfect)))
      workloads;
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
            (0, 0) workloads
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
          workloads));
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

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "speed" ] -> run_speed ()
  | _ ->
      Format.eprintf
        "usage: main.exe speed  (the paper artifacts and ablations are \
         `t1000_cli experiment ID`)@.";
      exit 2
