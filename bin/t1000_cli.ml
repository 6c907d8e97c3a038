(* Command-line driver for the T1000 toolchain.

   t1000_cli list                     list the benchmark suite
   t1000_cli disasm WORKLOAD          disassemble a kernel
   t1000_cli profile WORKLOAD         hottest instructions + widths
   t1000_cli mine WORKLOAD [opts]     show the selected extended instrs
   t1000_cli run WORKLOAD [opts]      simulate and report speedup
   t1000_cli experiment ID...         regenerate paper artifacts
   t1000_cli stats WORKLOAD [opts]    run with telemetry on, dump metrics
   t1000_cli trace-check FILE         validate a --trace output file *)

open Cmdliner

(* Map the fault taxonomy onto process exit codes (2 = misconfigured
   run, 3 = simulation fault / partial results) instead of dying with a
   raw OCaml backtrace. *)
let with_faults f =
  try f () with
  | T1000.Fault.Error fault ->
      Format.eprintf "t1000_cli: %s@." (T1000.Fault.to_string fault);
      exit (T1000.Fault.exit_code fault)
  | ( T1000_ooo.Sim.Sim_stuck _ | T1000_ooo.Sim.Selfcheck_violation _
    | T1000_machine.Interp.Fault _ ) as e ->
      let fault = T1000.Fault.of_exn e in
      Format.eprintf "t1000_cli: %s@." (T1000.Fault.to_string fault);
      exit (T1000.Fault.exit_code fault)

(* Surface a bad T1000_* environment variable as a one-line error (exit
   code 2) before any command runs, instead of an exception mid-sweep. *)
let validate_env () =
  try
    ignore (T1000.Pool.default_njobs ());
    ignore (T1000_ooo.Sim.env_max_cycles ());
    ignore (T1000.Fault.getenv_bool "T1000_SELFCHECK");
    ignore (T1000_bpred.Predictor.env_spec ());
    ignore (T1000.Pool.env_chaos ());
    ignore (T1000.Pool.env_chaos_seed ());
    ignore (T1000.Pool.env_retries ());
    ignore (T1000.Fault.getenv_bool "T1000_METRICS");
    ignore (T1000.Checkpoint.default_dir_validated ());
    ignore (T1000.Pool.env_backoff_scale ());
    ignore (T1000_serve.Server.env_queue_depth ());
    ignore (T1000_serve.Server.env_deadline_ms ());
    ignore (T1000_serve.Server.env_addr ());
    ignore (T1000.Memo.env_cap ());
    ignore (T1000_serve.Supervisor.env_replicas ());
    ignore (T1000_serve.Supervisor.env_restarts ());
    ignore (T1000_serve.Supervisor.env_health_ms ());
    Result.iter_error invalid_arg (T1000_workloads.Registry.of_env ())
  with
  | Invalid_argument msg ->
      Format.eprintf "t1000_cli: %s@." msg;
      exit 2
  | T1000.Fault.Error fault ->
      Format.eprintf "t1000_cli: %s@." (T1000.Fault.to_string fault);
      exit 2

(* --trace FILE: switch the span tracer on and write the Chrome trace
   at process exit.  Registered via at_exit, not Fun.protect, so the
   trace still lands on the fault paths that call [exit 2]/[exit 3]. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span traces and write a Chrome trace-event JSON file \
           (loadable in Perfetto or chrome://tracing) at exit.  Strictly \
           observational: stdout is byte-identical with and without this \
           flag.")

let setup_trace = function
  | None -> ()
  | Some path ->
      T1000.Obs.Tracer.set_enabled true;
      at_exit (fun () ->
          T1000.Obs.Tracer.write_chrome path;
          Format.eprintf "t1000_cli: trace written to %s@." path)

(* The suite the experiment engine runs on: all workloads, or the
   T1000_WORKLOADS subset, which validate_env has already checked. *)
let suite_workloads () = Result.get_ok (T1000_workloads.Registry.of_env ())

let find_workload name =
  match T1000_workloads.Registry.find name with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (try: %s)" name
           (String.concat ", " T1000_workloads.Registry.names))

let workload_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (find_workload s)),
      fun ppf w ->
        Format.pp_print_string ppf w.T1000_workloads.Workload.name )

let workload_arg =
  Arg.(
    required
    & pos 0 (some workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (see $(b,list)).")

let method_arg =
  let parse = function
    | "baseline" -> Ok T1000.Runner.Baseline
    | "greedy" -> Ok T1000.Runner.Greedy
    | "selective" -> Ok T1000.Runner.Selective
    | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | T1000.Runner.Baseline -> "baseline"
      | T1000.Runner.Greedy -> "greedy"
      | T1000.Runner.Selective -> "selective")
  in
  let method_conv = Arg.conv (parse, print) in
  Arg.(
    value
    & opt method_conv T1000.Runner.Selective
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Selection algorithm: baseline, greedy or selective.")

let pfus_arg =
  let parse = function
    | "unlimited" -> Ok None
    | s -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok (Some n)
        | Some _ | None -> Error (`Msg "PFUS must be a count or 'unlimited'"))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "unlimited"
    | Some n -> Format.pp_print_int ppf n
  in
  let pfus_conv = Arg.conv (parse, print) in
  Arg.(
    value
    & opt pfus_conv (Some 2)
    & info [ "p"; "pfus" ] ~docv:"PFUS"
        ~doc:"Number of PFUs, or 'unlimited'.")

let penalty_arg =
  Arg.(
    value & opt int 10
    & info [ "r"; "penalty" ] ~docv:"CYCLES"
        ~doc:"PFU reconfiguration penalty in cycles.")

let selfcheck_arg =
  Arg.(
    value & flag
    & info [ "selfcheck" ]
        ~doc:
          "Audit the simulator's RUU/PFU-file invariants at every commit \
           and cross-validate architectural results against the \
           functional interpreter (also: $(b,T1000_SELFCHECK=1)).")

let setup_of ?selfcheck method_ pfus penalty =
  T1000.Runner.setup ~n_pfus:pfus ~penalty ?selfcheck method_

(* Only force self-check on when the flag is given; otherwise leave the
   T1000_SELFCHECK environment default in charge. *)
let selfcheck_opt flag = if flag then Some true else None

(* --bpred KIND[:BITS]: parsed here rather than by a cmdliner
   converter so a bad value exits 2 (misconfiguration), then exported
   as T1000_BPRED so Runner.setup — in this process and in every
   worker domain — picks it up. *)
let bpred_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bpred" ] ~docv:"KIND[:BITS]"
        ~doc:
          "Branch predictor for the speculative front end: 'perfect' \
           (default: exact trace-driven fetch), 'static', \
           'bimodal[:BITS]' or 'gshare[:BITS]' (also: \
           $(b,T1000_BPRED)).  Non-perfect predictors fetch down the \
           predicted path and squash wrong-path work on resolution.")

let apply_bpred = function
  | None -> ()
  | Some s -> (
      match T1000_bpred.Predictor.spec_of_string s with
      | Ok spec ->
          Unix.putenv "T1000_BPRED" (T1000_bpred.Predictor.spec_to_string spec)
      | Error e ->
          Format.eprintf "t1000_cli: --bpred: %s@." e;
          exit 2)

(* -j/--jobs for the engine-driven commands (experiment, dse, fuzz),
   exported as T1000_NJOBS like --bpred.  serve and supervise keep their
   own -j: it feeds Server.config, which validates it. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (overrides $(b,T1000_NJOBS); 1 = sequential).")

let apply_jobs = function
  | Some n when n < 1 ->
      Format.eprintf "t1000_cli: -j/--jobs must be >= 1, got %d@." n;
      exit 2
  | Some n -> Unix.putenv "T1000_NJOBS" (string_of_int n)
  | None -> ()

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the checkpoint journal in $(b,T1000_CHECKPOINT_DIR) \
           instead of starting it afresh: already-recorded results are \
           reused, only the rest are recomputed.")

(* The journal for [run] in T1000_CHECKPOINT_DIR, if that is set.  A
   plain (non --resume) run starts it afresh so stale records never leak
   into new results; --resume without a directory exits 2. *)
let open_journal ~resume ~run =
  match T1000.Checkpoint.default_dir () with
  | None ->
      if resume then begin
        Format.eprintf
          "t1000_cli: --resume needs %s to point at the journal directory@."
          T1000.Checkpoint.env_var;
        exit 2
      end;
      None
  | Some dir ->
      let j = T1000.Checkpoint.create ~fresh:(not resume) ~dir ~run () in
      List.iter
        (Format.eprintf "t1000_cli: dropped corrupt checkpoint record: %s@.")
        (T1000.Checkpoint.corrupt j);
      Some j

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Format.printf "%-10s  %s@." w.T1000_workloads.Workload.name
          w.T1000_workloads.Workload.description)
      T1000_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite.")
    Term.(const run $ const ())

(* ---- disasm ---- *)

let disasm_cmd =
  let run w =
    Format.printf "%a@." T1000_asm.Program.pp
      w.T1000_workloads.Workload.program
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a kernel.")
    Term.(const run $ workload_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run w =
    let a = T1000.Runner.analyze w in
    Format.printf "%d dynamic instructions, serial weight %d@."
      (T1000_profile.Profile.total_instrs a.T1000.Runner.profile)
      (T1000_profile.Profile.total_weight a.T1000.Runner.profile);
    Format.printf "dynamic instruction mix:@.%a@.@." T1000_profile.Mix.pp
      (T1000_profile.Mix.dynamic_mix a.T1000.Runner.profile);
    Format.printf "%a@."
      (T1000_profile.Profile.pp_hot ~limit:25)
      a.T1000.Runner.profile
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Profile a kernel (counts and bitwidths).")
    Term.(const run $ workload_arg)

(* ---- mine ---- *)

let mine_cmd =
  let run w method_ pfus penalty bpred save =
    with_faults @@ fun () ->
    apply_bpred bpred;
    let r =
      T1000.Runner.run ~analysis:(T1000.Runner.analyze w) w
        (setup_of method_ pfus penalty)
    in
    Format.printf "%a@." T1000_select.Extinstr.pp r.T1000.Runner.table;
    List.iter
      (fun e ->
        Format.printf "@.ext#%d (%d LUTs, %d occurrence(s)):@.%a@."
          e.T1000_select.Extinstr.eid e.T1000_select.Extinstr.lut_cost
          (List.length e.T1000_select.Extinstr.occs)
          T1000_dfg.Dfg.pp e.T1000_select.Extinstr.dfg)
      (T1000_select.Extinstr.entries r.T1000.Runner.table);
    match save with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (T1000_select.Extinstr.to_text r.T1000.Runner.table);
        close_out oc;
        Format.printf "@.table saved to %s@." path
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "save" ] ~docv:"FILE"
          ~doc:"Write the selection as an extended-instruction table file.")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Show the extended instructions a selection algorithm chooses.")
    Term.(const run $ workload_arg $ method_arg $ pfus_arg $ penalty_arg $ bpred_arg $ save)

(* ---- replay ---- *)

let replay_cmd =
  let run w path pfus penalty bpred =
    with_faults @@ fun () ->
    apply_bpred bpred;
    let text = In_channel.with_open_text path In_channel.input_all in
    match T1000_select.Extinstr.of_text text with
    | Error msg ->
        Format.eprintf "cannot load %s: %s@." path msg;
        exit 1
    | Ok table ->
        let rw = T1000_select.Rewrite.apply w.T1000_workloads.Workload.program table in
        T1000.Runner.verify_outputs w table rw.T1000_select.Rewrite.program;
        (* Runner.setup validates the PFU flags and picks up the
           T1000_BPRED predictor *)
        let s = setup_of T1000.Runner.Selective pfus penalty in
        let machine =
          T1000_ooo.Mconfig.with_pfus ~penalty pfus s.T1000.Runner.machine
        in
        let ext_latency eid =
          (T1000_select.Extinstr.get table eid).T1000_select.Extinstr.latency
        in
        let stats =
          T1000_ooo.Sim.run ~mconfig:machine ~ext_latency
            ~ext_eval:(T1000_select.Extinstr.eval table)
            ~init:(fun mem regs -> w.T1000_workloads.Workload.init mem regs)
            rw.T1000_select.Rewrite.program
        in
        Format.printf
          "replayed %d configurations (%d sites collapsed, outputs \
           verified)@.%a@."
          (T1000_select.Extinstr.count table)
          rw.T1000_select.Rewrite.collapsed T1000_ooo.Stats.pp stats
  in
  let path =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"TABLE" ~doc:"Extended-instruction table file.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Rewrite and simulate a workload with a previously saved \
          extended-instruction table (the paper's second input file).")
    Term.(const run $ workload_arg $ path $ pfus_arg $ penalty_arg $ bpred_arg)

(* ---- run ---- *)

let run_cmd =
  let run w method_ pfus penalty selfcheck bpred trace =
    with_faults @@ fun () ->
    setup_trace trace;
    apply_bpred bpred;
    let selfcheck = selfcheck_opt selfcheck in
    let analysis = T1000.Runner.analyze w in
    let baseline =
      T1000.Runner.run ~analysis w
        (T1000.Runner.setup ?selfcheck T1000.Runner.Baseline)
    in
    let r =
      T1000.Runner.run ~analysis w (setup_of ?selfcheck method_ pfus penalty)
    in
    Format.printf "baseline:@.%a@.@." T1000_ooo.Stats.pp
      baseline.T1000.Runner.stats;
    Format.printf "with PFUs:@.%a@.@." T1000_ooo.Stats.pp
      r.T1000.Runner.stats;
    Format.printf "speedup: %.3f@." (T1000.Runner.speedup ~baseline r)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a workload and report the speedup.")
    Term.(
      const run $ workload_arg $ method_arg $ pfus_arg $ penalty_arg
      $ selfcheck_arg $ bpred_arg $ trace_arg)

(* ---- dot ---- *)

let dot_cmd =
  let run w what =
    match what with
    | "cfg" ->
        print_string
          (T1000_asm.Cfg.to_dot
             (T1000_asm.Cfg.of_program w.T1000_workloads.Workload.program))
    | "ext" ->
        let r =
          T1000.Runner.run ~analysis:(T1000.Runner.analyze w) w
            (T1000.Runner.setup ~n_pfus:(Some 4) T1000.Runner.Selective)
        in
        List.iter
          (fun e ->
            print_string
              (T1000_dfg.Dfg.to_dot
                 ~name:(Printf.sprintf "ext%d" e.T1000_select.Extinstr.eid)
                 e.T1000_select.Extinstr.dfg))
          (T1000_select.Extinstr.entries r.T1000.Runner.table)
    | other -> Format.eprintf "expected 'cfg' or 'ext', got %S@." other
  in
  let what =
    Arg.(
      value
      & pos 1 string "cfg"
      & info [] ~docv:"WHAT" ~doc:"What to render: cfg or ext.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a kernel's CFG or its mined DFGs.")
    Term.(const run $ workload_arg $ what)

(* ---- experiment ---- *)

let experiment_cmd =
  let run jobs resume selfcheck bpred trace ids =
    (match
       List.filter (fun id -> not (List.mem id T1000.Report.artifact_ids)) ids
     with
    | [] -> ()
    | unknown ->
        Format.eprintf "t1000_cli: unknown experiment %s (known: %s)@."
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
          (String.concat " " T1000.Report.artifact_ids);
        exit 2);
    setup_trace trace;
    apply_bpred bpred;
    apply_jobs jobs;
    if selfcheck then Unix.putenv "T1000_SELFCHECK" "1";
    let ctx = T1000.Experiment.create_ctx ~workloads:(suite_workloads ()) () in
    let faults = ref [] in
    let dispatch id =
      (* one journal file per experiment id *)
      let journal = open_journal ~resume ~run:id in
      let text, fs = Option.get (T1000.Report.render ?journal ctx id) in
      faults := !faults @ fs;
      Format.printf "%s@." text
    in
    with_faults (fun () -> List.iter dispatch ids);
    match !faults with
    | [] -> ()
    | fs ->
        Format.eprintf "%a@." T1000.Report.pp_faults fs;
        exit 3
  in
  let ids =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids: f2 t41 f6 s52 f7, or ablations a1-a9.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate paper tables/figures.")
    Term.(
      const run $ jobs_arg $ resume_arg $ selfcheck_arg $ bpred_arg $ trace_arg
      $ ids)

(* ---- dse ---- *)

let dse_cmd =
  let run jobs resume budget axes full json trace =
    setup_trace trace;
    apply_jobs jobs;
    if budget < 1 then begin
      Format.eprintf "t1000_cli: --budget must be >= 1, got %d@." budget;
      exit 2
    end;
    let space =
      match axes with
      | None -> T1000_dse.Space.default
      | Some spec -> (
          match T1000_dse.Space.of_spec spec with
          | Ok s -> s
          | Error msg ->
              Format.eprintf "t1000_cli: bad --axes: %s@." msg;
              exit 2)
    in
    with_faults @@ fun () ->
    let journal = open_journal ~resume ~run:"dse" in
    let ctx = T1000.Experiment.create_ctx ~workloads:(suite_workloads ()) () in
    let r =
      T1000_dse.Engine.explore ?journal ~budget
        ~sample:(if full then `Full else `Coarse)
        ctx space
    in
    Format.printf "%a@." T1000_dse.Engine.pp_frontier r;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (T1000.Obs.Json.to_string (T1000_dse.Engine.to_json r));
        output_string oc "\n";
        close_out oc;
        Format.eprintf "t1000_cli: dse report written to %s@." path);
    match r.T1000_dse.Engine.faults with
    | [] -> ()
    | fs ->
        Format.eprintf "%a@." T1000.Report.pp_faults fs;
        exit 3
  in
  let budget =
    Arg.(
      value
      & opt int T1000_dse.Engine.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum number of configurations to evaluate.")
  in
  let axes =
    Arg.(
      value
      & opt (some string) None
      & info [ "axes" ] ~docv:"SPEC"
          ~doc:
            "Override the default 7-axis space: colon-separated \
             $(i,axis)=$(i,v,v,...) groups over pfus, penalty, lut, repl \
             (lru/fifo/rand), gain, width and bpred (perfect, static, \
             bimodal@N, gshare@N), e.g. \
             $(b,pfus=1,2,4:penalty=0,100:bpred=perfect,gshare@12).  \
             Omitted axes keep their defaults.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Enumerate the space exhaustively (up to the budget) instead \
             of the coarse-grid + successive-halving refinement sampler; \
             dominance pruning still applies.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the machine-readable exploration report (space, \
             counters, every measured point, frontier membership, faults).")
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Multi-objective design-space exploration: Pareto frontier of \
          (geomean speedup, LUT area, PFU count) over the PFU-count x \
          penalty x LUT-budget x replacement x gain x machine-width space, \
          with dominance pruning, checkpoint/resume and worker-pool fan-out.")
    Term.(
      const run $ jobs_arg $ resume_arg $ budget $ axes $ full $ json
      $ trace_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run w method_ pfus penalty bpred =
    with_faults @@ fun () ->
    apply_bpred bpred;
    T1000.Obs.Metrics.reset ();
    T1000.Obs.Tracer.reset ();
    T1000.Obs.Tracer.set_enabled true;
    let analysis = T1000.Runner.analyze w in
    let baseline =
      T1000.Runner.run ~analysis w (T1000.Runner.setup T1000.Runner.Baseline)
    in
    let r =
      T1000.Runner.run ~analysis w (setup_of method_ pfus penalty)
    in
    Format.printf "speedup: %.3f@.@." (T1000.Runner.speedup ~baseline r);
    Format.printf "metrics:@.%a@." T1000.Obs.Metrics.pp
      (T1000.Obs.Metrics.snapshot ());
    Format.printf "spans:@.%a@." T1000.Obs.Tracer.pp_summary ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload (baseline, then the chosen method) with telemetry \
          on, and dump the merged metric snapshot and span summary \
          (under $(b,--bpred), includes the sim.bpred.* speculation \
          counters).")
    Term.(
      const run $ workload_arg $ method_arg $ pfus_arg $ penalty_arg
      $ bpred_arg)

(* ---- trace-check ---- *)

let trace_check_cmd =
  let run path cats =
    let s = In_channel.with_open_bin path In_channel.input_all in
    match T1000.Obs.Tracer.validate_chrome ~require_cats:cats s with
    | Ok n -> Format.printf "%s: valid Chrome trace, %d event(s)@." path n
    | Error msg ->
        Format.eprintf "t1000_cli: %s: %s@." path msg;
        exit 1
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Chrome trace-event JSON file.")
  in
  let cats =
    Arg.(
      value
      & opt (list string) [ "sim"; "pool"; "experiment" ]
      & info [ "require" ] ~docv:"CATS"
          ~doc:
            "Comma-separated span categories the trace must contain at \
             least one event of.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event file written by $(b,--trace): \
          well-formed JSON, complete-event shape, required categories \
          present.")
    Term.(const run $ path $ cats)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run jobs seed cases chaos drills out_dir =
    apply_jobs jobs;
    with_faults @@ fun () ->
    Format.printf "fuzz: seed %d, %d differential case(s), %d drill(s)%s@."
      seed cases drills
      (match chaos with
      | None -> ""
      | Some p -> Printf.sprintf ", chaos soak p=%g" p);
    let o = T1000_fuzz.Fuzz.run_cases ~out_dir ~seed ~cases () in
    Format.printf "fuzz: %d case(s) in %.1f s (%.1f cases/s), %d failure(s)@."
      o.T1000_fuzz.Fuzz.cases o.T1000_fuzz.Fuzz.elapsed_s
      o.T1000_fuzz.Fuzz.cases_per_s
      (List.length o.T1000_fuzz.Fuzz.failures);
    List.iter
      (fun f -> Format.printf "%a@." T1000_fuzz.Fuzz.pp_failure f)
      o.T1000_fuzz.Fuzz.failures;
    let drill_failures =
      if drills > 0 then T1000_fuzz.Fuzz.corruption_drills ~seed ~rounds:drills ()
      else []
    in
    if drills > 0 then
      Format.printf "fuzz: %d corruption drill(s), %d failure(s)@." drills
        (List.length drill_failures);
    List.iter (Format.printf "drill failure: %s@.") drill_failures;
    let soak_failures =
      match chaos with
      | None -> []
      | Some p -> (
          match T1000_fuzz.Fuzz.chaos_soak ~p ~seed () with
          | Ok () ->
              Format.printf "fuzz: chaos soak (p=%g) byte-identical to calm@."
                p;
              []
          | Error msg ->
              Format.printf "chaos soak failure: %s@." msg;
              [ msg ])
    in
    if
      o.T1000_fuzz.Fuzz.failures <> [] || drill_failures <> []
      || soak_failures <> []
    then begin
      Format.eprintf
        "fuzz: FAILURES (reproduce any case with --seed %d; reproducer \
         artifacts under %s)@."
        seed out_dir;
      exit 3
    end
    else Format.printf "fuzz: clean@."
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Run seed; every case and drill derives from it.")
  in
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N"
          ~doc:"Number of differential oracle cases to run.")
  in
  let chaos =
    Arg.(
      value
      & opt (some float) None
      & info [ "chaos" ] ~docv:"P"
          ~doc:
            "Also run the chaos soak: a small experiment sweep under \
             $(b,T1000_CHAOS)=$(docv) must lose zero rows and match a calm \
             run exactly.")
  in
  let drills =
    Arg.(
      value & opt int 25
      & info [ "drills" ] ~docv:"N"
          ~doc:"Checkpoint-journal corruption drills to run (0 disables).")
  in
  let out_dir =
    Arg.(
      value & opt string "_fuzz"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk reproducer artifacts.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random kernels and configurations through \
          the whole pipeline against the functional interpreter, with \
          shrinking, checkpoint corruption drills and an optional chaos \
          soak.")
    Term.(const run $ jobs_arg $ seed $ cases $ chaos $ drills $ out_dir)

(* ---- serve / client ---- *)

let addr_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (T1000_serve.Server.parse_addr s)),
      fun ppf a ->
        Format.pp_print_string ppf (T1000_serve.Server.addr_to_string a) )

let serve_cmd =
  let run socket tcp queue jobs deadline retries max_steps trace =
    with_faults @@ fun () ->
    setup_trace trace;
    (* A client that disconnects mid-reply must not kill the daemon. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let base = T1000_serve.Server.default_config () in
    let addrs =
      (match socket with
      | Some p -> [ T1000_serve.Server.Unix_sock p ]
      | None -> [])
      @ (match tcp with Some a -> [ a ] | None -> [])
    in
    let addrs =
      if addrs <> [] then addrs else base.T1000_serve.Server.addrs
    in
    let cfg =
      {
        T1000_serve.Server.addrs;
        queue_depth =
          Option.value queue ~default:base.T1000_serve.Server.queue_depth;
        njobs = Option.value jobs ~default:base.T1000_serve.Server.njobs;
        default_deadline_ms =
          (match deadline with
          | Some _ -> deadline
          | None -> base.T1000_serve.Server.default_deadline_ms);
        retries =
          (match retries with
          | Some _ -> retries
          | None -> base.T1000_serve.Server.retries);
        max_steps =
          Option.value max_steps ~default:base.T1000_serve.Server.max_steps;
        memo_cap = base.T1000_serve.Server.memo_cap;
      }
    in
    let t = T1000_serve.Server.create cfg in
    List.iter
      (fun a ->
        Format.printf "t1000 serve: listening on %s@."
          (T1000_serve.Server.addr_to_string a))
      (T1000_serve.Server.bound_addrs t);
    let stop _ = T1000_serve.Server.stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    T1000_serve.Server.run t;
    Format.printf "t1000 serve: drained, %d replies sent@."
      (T1000_serve.Server.answered t)
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "tcp" ] ~docv:"ADDR"
          ~doc:
            "Listen on $(docv) (tcp:HOST:PORT; port 0 binds an ephemeral \
             port, printed at startup).")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue depth; a full queue sheds with a typed \
             'overloaded' reply (also: $(b,T1000_SERVE_QUEUE)).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (also: $(b,T1000_NJOBS)).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Default per-request wall-clock deadline in milliseconds, for \
             requests that carry none (also: $(b,T1000_SERVE_DEADLINE_MS)).")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Transient-fault retries per request (also: \
             $(b,T1000_RETRIES)).")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Functional-execution step cap for client-submitted kernels \
             (a non-halting program becomes a typed error).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the selection-as-a-service daemon: length-prefixed framed \
          requests over Unix/TCP sockets, bounded admission with typed \
          shedding, per-request deadlines, fault isolation, and graceful \
          drain on SIGTERM.")
    Term.(
      const run $ socket $ tcp $ queue $ jobs $ deadline $ retries
      $ max_steps $ trace_arg)

let supervise_cmd =
  let run replicas socket_dir restarts health_ms grace queue jobs deadline
      max_steps trace =
    with_faults @@ fun () ->
    setup_trace trace;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let base = T1000_serve.Supervisor.default_config () in
    let serve_args =
      (match queue with
      | Some n -> [ "--queue"; string_of_int n ]
      | None -> [])
      @ (match jobs with
        | Some n -> [ "--jobs"; string_of_int n ]
        | None -> [])
      @ (match deadline with
        | Some d -> [ "--deadline"; Printf.sprintf "%g" d ]
        | None -> [])
      @
      match max_steps with
      | Some n -> [ "--max-steps"; string_of_int n ]
      | None -> []
    in
    let cfg =
      {
        base with
        T1000_serve.Supervisor.replicas =
          Option.value replicas
            ~default:base.T1000_serve.Supervisor.replicas;
        socket_dir =
          Option.value socket_dir
            ~default:base.T1000_serve.Supervisor.socket_dir;
        restarts =
          Option.value restarts
            ~default:base.T1000_serve.Supervisor.restarts;
        health_period_s =
          (match health_ms with
          | Some ms -> ms /. 1000.0
          | None -> base.T1000_serve.Supervisor.health_period_s);
        drain_grace_s =
          Option.value grace
            ~default:base.T1000_serve.Supervisor.drain_grace_s;
        serve_args;
      }
    in
    let sup = T1000_serve.Supervisor.create cfg in
    List.iter
      (fun a ->
        Format.printf "t1000 supervise: replica on %s@."
          (T1000_serve.Server.addr_to_string a))
      (T1000_serve.Supervisor.sockets sup);
    let stop _ = T1000_serve.Supervisor.stop sup in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    T1000_serve.Supervisor.run sup;
    let faults = T1000_serve.Supervisor.faults sup in
    List.iter
      (fun f ->
        Format.eprintf "t1000 supervise: %s@." (T1000.Fault.to_string f))
      faults;
    Format.printf
      "t1000 supervise: drained, %d restart(s), %d supervisor event(s)@."
      (T1000_serve.Supervisor.restarts_total sup)
      (List.length faults);
    if T1000_serve.Supervisor.gave_up sup then exit 3
  in
  let replicas =
    Arg.(
      value
      & opt (some int) None
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Child daemons to supervise (also: \
             $(b,T1000_SUPERVISE_REPLICAS); default 3).")
  in
  let socket_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the replicas' Unix sockets (replica<i>.sock) \
             and logs (replica<i>.log); created if missing.")
  in
  let restarts =
    Arg.(
      value
      & opt (some int) None
      & info [ "restarts" ] ~docv:"N"
          ~doc:
            "Per-replica restart budget before the supervisor gives up on \
             it (also: $(b,T1000_SUPERVISE_RESTARTS); default 5).")
  in
  let health_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "health-ms" ] ~docv:"MS"
          ~doc:
            "Health-probe period per replica (also: \
             $(b,T1000_SUPERVISE_HEALTH_MS); default 500).")
  in
  let grace =
    Arg.(
      value
      & opt (some float) None
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain allowance per replica on shutdown before \
             escalating to SIGKILL (default 5).")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue depth passed to every replica.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains per replica.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:"Default per-request deadline passed to every replica.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Functional-execution step cap passed to every replica.")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run a supervised multi-daemon serving tier: N $(b,t1000 serve) \
          replicas on per-replica Unix sockets, restarted on crash or \
          wedge (capped backoff, per-replica restart budget), health-probed \
          via the queue-bypassing health request, and rolling-drained on \
          SIGTERM.  Exit code 3 if any replica exhausted its restart \
          budget.")
    Term.(
      const run $ replicas $ socket_dir $ restarts $ health_ms $ grace
      $ queue $ jobs $ deadline $ max_steps $ trace_arg)

(* -c/--connect accepts a comma-separated endpoint list; more than one
   endpoint switches the client into failover mode (round-robin with
   retry against the next replica on transport failure or shed). *)
let addrs_conv =
  Arg.conv
    ( (fun s ->
        let parts =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun p -> p <> "")
        in
        if parts = [] then Error (`Msg "empty address list")
        else
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | p :: rest -> (
                match T1000_serve.Server.parse_addr p with
                | Ok a -> go (a :: acc) rest
                | Error e -> Error (`Msg e))
          in
          go [] parts),
      fun ppf addrs ->
        Format.pp_print_string ppf
          (String.concat ","
             (List.map T1000_serve.Server.addr_to_string addrs)) )

let client_cmd =
  let run connect ping health timeout_ms asm kernel method_ pfus penalty
      max_cycles deadline count show_cached =
    with_faults @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let addrs =
      match connect with
      | Some l -> l
      | None -> (
          match T1000_serve.Server.env_addr () with
          | Some a -> [ a ]
          | None ->
              T1000.Fault.invalid_config
                "no daemon address: give --connect or set T1000_SERVE_ADDR")
    in
    let timeout_s = Option.map (fun ms -> ms /. 1000.0) timeout_ms in
    let print_reply = function
      | Ok (`Outcome o) ->
          (* [cached] is opt-in output: the default stays byte-stable
             between a cold and a warm daemon, which CI diffs. *)
          Format.printf "speedup=%.3f cycles=%d baseline=%d ext=%d lut=%d%s@."
            o.T1000_serve.Protocol.speedup o.T1000_serve.Protocol.cycles
            o.T1000_serve.Protocol.baseline_cycles
            o.T1000_serve.Protocol.ext_count
            o.T1000_serve.Protocol.lut_cost
            (if show_cached then
               Printf.sprintf " cached=%b" o.T1000_serve.Protocol.cached
             else "")
      | Ok (`Error (code, msg)) ->
          (* Typed errors are in-band data (a shed or timed-out request
             is a valid daemon answer), not a client failure. *)
          Format.printf "error[%s] %s@."
            (T1000_serve.Protocol.string_of_code code)
            msg
      | Ok `Pong -> Format.printf "pong@."
      | Ok (`Health h) ->
          Format.printf "%a@." T1000_serve.Protocol.pp_health h
      | Error msg ->
          Format.eprintf "t1000 client: %s@." msg;
          exit 1
    in
    if health then begin
      (* Probe each endpoint individually: --health is a per-replica
         liveness report, not a failover request. *)
      let failures =
        List.fold_left
          (fun acc addr ->
            let label = T1000_serve.Server.addr_to_string addr in
            match T1000_serve.Client.connect ?timeout_s addr with
            | Error msg ->
                Format.printf "%s: unreachable (%s)@." label msg;
                acc + 1
            | Ok c -> (
                Fun.protect
                  ~finally:(fun () -> T1000_serve.Client.close c)
                @@ fun () ->
                match T1000_serve.Client.health c with
                | Ok h ->
                    Format.printf "%s:@.  @[<v>%a@]@." label
                      T1000_serve.Protocol.pp_health h;
                    acc
                | Error msg ->
                    Format.printf "%s: %s@." label msg;
                    acc + 1))
          0 addrs
      in
      if failures > 0 then exit 1
    end
    else if ping then (
      match addrs with
      | [ addr ] -> (
          match T1000_serve.Client.connect ?timeout_s addr with
          | Error msg ->
              Format.eprintf "t1000 client: %s@." msg;
              exit 1
          | Ok c -> (
              Fun.protect
                ~finally:(fun () -> T1000_serve.Client.close c)
              @@ fun () ->
              match T1000_serve.Client.ping c with
              | Ok () -> Format.printf "pong@."
              | Error msg ->
                  Format.eprintf "t1000 client: %s@." msg;
                  exit 1))
      | addrs -> (
          let fo = T1000_serve.Client.Failover.create ?timeout_s addrs in
          Fun.protect
            ~finally:(fun () -> T1000_serve.Client.Failover.close fo)
          @@ fun () ->
          match T1000_serve.Client.Failover.ping fo with
          | Ok () -> Format.printf "pong@."
          | Error msg ->
              Format.eprintf "t1000 client: %s@." msg;
              exit 1))
    else begin
      let kernel =
        match (asm, kernel) with
        | Some path, None ->
            let text =
              try In_channel.with_open_text path In_channel.input_all
              with Sys_error msg ->
                T1000.Fault.invalid_config "cannot read %s: %s" path msg
            in
            T1000_serve.Protocol.Asm
              { name = Filename.remove_extension (Filename.basename path);
                text }
        | None, Some name -> T1000_serve.Protocol.Named name
        | None, None ->
            T1000.Fault.invalid_config
              "give a workload name or --asm FILE (or --ping)"
        | Some _, Some _ ->
            T1000.Fault.invalid_config
              "give either a workload name or --asm FILE, not both"
      in
      let method_ =
        match method_ with
        | T1000.Runner.Baseline -> `Baseline
        | T1000.Runner.Greedy -> `Greedy
        | T1000.Runner.Selective -> `Selective
      in
      let sel =
        {
          T1000_serve.Protocol.kernel;
          method_;
          pfus;
          penalty;
          max_cycles;
          deadline_ms = deadline;
        }
      in
      match addrs with
      | [ addr ] -> (
          (* One endpoint: plain blocking client, byte-identical output
             and semantics to the single-daemon tier. *)
          match T1000_serve.Client.connect ?timeout_s addr with
          | Error msg ->
              Format.eprintf "t1000 client: %s@." msg;
              exit 1
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> T1000_serve.Client.close c)
              @@ fun () ->
              for _ = 1 to count do
                print_reply (T1000_serve.Client.request c sel)
              done)
      | addrs ->
          let fo = T1000_serve.Client.Failover.create ?timeout_s addrs in
          Fun.protect
            ~finally:(fun () -> T1000_serve.Client.Failover.close fo)
          @@ fun () ->
          for _ = 1 to count do
            print_reply (T1000_serve.Client.Failover.request fo sel)
          done
    end
  in
  let connect =
    Arg.(
      value
      & opt (some addrs_conv) None
      & info [ "c"; "connect" ] ~docv:"ADDRS"
          ~doc:
            "Daemon address(es): comma-separated unix:PATH or \
             tcp:HOST:PORT (also: $(b,T1000_SERVE_ADDR)).  More than one \
             endpoint enables round-robin failover: a request moves to \
             the next replica when one is down, sheds, or times out.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just ping the daemon.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print each endpoint's liveness snapshot (uptime, queue, \
             in-flight, memo sizes, chaos counters) and exit; non-zero if \
             any endpoint is unreachable.  Health requests bypass the \
             daemon's admission queue, so this works on a saturated \
             tier.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:
            "Socket send/receive timeout; bounds every blocking call \
             against a wedged daemon.")
  in
  let asm =
    Arg.(
      value
      & opt (some string) None
      & info [ "asm" ] ~docv:"FILE"
          ~doc:"Submit assembler source from $(docv) instead of a named \
                workload.")
  in
  let kernel =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Benchmark name (resolved by the daemon; see $(b,list)).")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:
            "Per-request simulator watchdog budget; exceeding it returns a \
             typed timeout reply carrying the RUU/PFU diagnostic snapshot.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:"Per-request wall-clock deadline in milliseconds.")
  in
  let count =
    Arg.(
      value & opt int 1
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:"Submit the request $(docv) times on one connection.")
  in
  let show_cached =
    Arg.(
      value & flag
      & info [ "show-cached" ]
          ~doc:"Also print whether each reply came from the daemon's \
                cross-request result cache.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit selection requests to a running $(b,t1000 serve) daemon \
          and print the replies (typed daemon errors are printed in-band; \
          only transport failures exit non-zero).")
    Term.(
      const run $ connect $ ping $ health $ timeout $ asm $ kernel
      $ method_arg $ pfus_arg
      $ penalty_arg $ max_cycles $ deadline $ count $ show_cached)

let () =
  let doc =
    "T1000: configurable extended instructions on a superscalar core"
  in
  validate_env ();
  (* T1000_METRICS=1: dump the merged metric snapshot to stderr when the
     process ends, whatever command ran and however it exits. *)
  if T1000.Fault.getenv_bool "T1000_METRICS" then
    at_exit (fun () ->
        Format.eprintf "t1000_cli: metrics:@.%a@." T1000.Obs.Metrics.pp
          (T1000.Obs.Metrics.snapshot ()));
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "t1000_cli" ~doc)
          [
            list_cmd; disasm_cmd; profile_cmd; mine_cmd; replay_cmd;
            run_cmd; dot_cmd; experiment_cmd; dse_cmd; stats_cmd;
            trace_check_cmd; fuzz_cmd; serve_cmd; supervise_cmd; client_cmd;
          ]))
