(* golden: every committed golden rendering (the paper figures, the
   ablations and the DSE frontier) on the two-workload golden suite,
   with a fresh experiment context per pass, byte-compared against
   test/golden.  This is the paper-reproduction path a user waits on. *)

open T1000
open Harness

let suite = [ "unepic"; "g721_dec" ]

let workloads () =
  List.map
    (fun n ->
      match T1000_workloads.Registry.find n with
      | Some w -> w
      | None -> failwith ("golden: unknown workload " ^ n))
    suite

let sweep title rows = Format.asprintf "%a" (Report.pp_sweep ~title) rows

(* The renderings test/test_golden.ml snapshots, in the same order. *)
let artifacts : (string * (Experiment.ctx -> string)) list =
  [
    ("f2", fun c -> Format.asprintf "%a" Report.pp_figure2 (Experiment.figure2 c));
    ("t41", fun c -> Format.asprintf "%a" Report.pp_table41 (Experiment.table41 c));
    ("f6", fun c -> Format.asprintf "%a" Report.pp_figure6 (Experiment.figure6 c));
    ( "s52",
      fun c ->
        Format.asprintf "%a" Report.pp_penalty_sweep (Experiment.penalty_sweep c)
    );
    ("f7", fun c -> Format.asprintf "%a" Report.pp_figure7 (Experiment.figure7 c));
    ( "a1",
      fun c ->
        sweep "selective speedup vs number of PFUs"
          (Experiment.pfu_count_sweep c) );
    ( "a2",
      fun c ->
        sweep "greedy-unlimited speedup vs width threshold"
          (Experiment.width_threshold_sweep c) );
    ( "a3",
      fun c ->
        sweep "selective speedup vs gain-ratio threshold"
          (Experiment.gain_threshold_sweep c) );
    ( "a4",
      fun c ->
        sweep "selective speedup vs replacement policy"
          (Experiment.replacement_sweep c) );
    ( "a5",
      fun c ->
        sweep "speedup vs machine width (per-width baseline)"
          (Experiment.machine_sweep c) );
    ( "a6",
      fun c ->
        sweep "speedup: single-cycle PFU vs LUT-level delay model"
          (Experiment.latency_model_sweep c) );
    ( "a7",
      fun c ->
        sweep "speedup: perfect vs bimodal branch prediction"
          (Experiment.branch_predictor_sweep c) );
    ( "a8",
      fun c ->
        sweep "speedup with/without cfgld preheader prefetch hints"
          (Experiment.prefetch_sweep c) );
    ( "a9",
      fun c ->
        sweep "greedy vs selective speedup per front-end branch predictor"
          (Experiment.speculation_sweep c) );
    ( "dse",
      fun c ->
        let space =
          match
            T1000_dse.Space.of_spec
              "pfus=1,2,4:penalty=0,100,500:lut=150:repl=lru:gain=0.005:width=4"
          with
          | Ok s -> s
          | Error e -> failwith ("golden dse space: " ^ e)
        in
        Format.asprintf "%a" T1000_dse.Engine.pp_frontier
          (T1000_dse.Engine.explore ~budget:12 c space) );
  ]

let ids = List.map fst artifacts

let measure env =
  let expected =
    List.map
      (fun id -> (id, read_file (Filename.concat "test/golden" (id ^ ".txt"))))
      ids
  in
  (* Set-up: a fresh context with both workloads profiled and analysed. *)
  let setup () =
    let ctx = Experiment.create_ctx ~workloads:(workloads ()) () in
    List.iter
      (fun w -> ignore (Experiment.analysis ctx w))
      (Experiment.workloads ctx);
    ctx
  in
  let first, setup_s = setups setup in
  let per_id = Hashtbl.create 16 in
  let failed = ref 0 and attempted = ref 0 and ops = ref [] in
  Metrics.reset ();
  let pass ctx =
    List.iter
      (fun (id, render) ->
        let out, dt = time (fun () -> span "experiment" id (fun () -> render ctx)) in
        incr attempted;
        if out <> List.assoc id expected then begin
          incr failed;
          Printf.eprintf "golden: %s differs from test/golden/%s.txt\n%!" id id
        end;
        ops := (dt *. 1e3) :: !ops;
        Hashtbl.replace per_id id
          (dt +. Option.value ~default:0.0 (Hashtbl.find_opt per_id id)))
      artifacts
  in
  let pass_s, raw_s =
    passes ~seconds:env.seconds ~first ~prepare:setup pass in
  let timed_s = sum pass_s in
  let layers =
    List.map
      (fun id ->
        ( "experiment." ^ id ^ "_pct",
          100.0 *. ratio (Hashtbl.find per_id id) timed_s ))
      ids
    @ Obs_layers.local ~base_s:raw_s
  in
  {
    attempted = !attempted;
    failed = !failed;
    setup_s;
    pass_s;
    ops = List.length !ops;
    op_ms = !ops;
    timed_s;
    committed = Metrics.get "sim.committed";
    rss_mb = peak_rss_mb None;
    layers;
    probe_kernels = suite;
  }
