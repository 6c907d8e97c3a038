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
    ignore (T1000.Memo.env_cap ());
    Result.iter_error invalid_arg (T1000_workloads.Registry.of_env ())
  with
  | Invalid_argument msg ->
      Format.eprintf "t1000_cli: %s@." msg;
      exit 2
  | T1000.Fault.Error fault ->
      Format.eprintf "t1000_cli: %s@." (T1000.Fault.to_string fault);
      exit 2

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

(* The one-shot commands evaluate through an Experiment ctx, the path
   the figure drivers and the serve daemon take. *)
let one_shot w = T1000.Experiment.create_ctx ~workloads:[ w ] ()

(* The no-PFU baseline on the setup's own machine, then the setup. *)
let evaluate w s =
  let ctx = one_shot w in
  let baseline =
    T1000.Experiment.baseline_for ctx w s.T1000.Runner.machine
  in
  (baseline, T1000.Experiment.run_setup ctx w s)

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
    Term.(const run $ Opts.workload)

(* ---- profile ---- *)

let profile_cmd =
  let run () w =
    Opts.with_faults @@ fun () ->
    let a = T1000.Experiment.analysis (one_shot w) w in
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
    Term.(const run $ Opts.env $ Opts.workload)

(* ---- mine ---- *)

let mine_cmd =
  let run w s save =
    Opts.with_faults @@ fun () ->
    let r = T1000.Experiment.run_setup (one_shot w) w s in
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
    Term.(const run $ Opts.workload $ Opts.setup $ save)

(* ---- replay ---- *)

let replay_cmd =
  let run w path s =
    Opts.with_faults @@ fun () ->
    let text = In_channel.with_open_text path In_channel.input_all in
    match T1000_select.Extinstr.of_text text with
    | Error msg ->
        Format.eprintf "cannot load %s: %s@." path msg;
        exit 1
    | Ok table ->
        (* Runner.run checks the rewritten program's output against
           the original's, as for a table it selected itself. *)
        let r = T1000.Runner.run ~table w s in
        let collapsed =
          Array.fold_left
            (fun n -> function T1000_isa.Instr.Ext _ -> n + 1 | _ -> n)
            0
            (T1000_asm.Program.instrs r.T1000.Runner.program)
        in
        Format.printf
          "replayed %d configurations (%d sites collapsed, outputs \
           verified)@.%a@."
          (T1000_select.Extinstr.count table)
          collapsed T1000_ooo.Stats.pp r.T1000.Runner.stats
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
    Term.(
      const run $ Opts.workload $ path
      $ Opts.setup_with (Term.const T1000.Runner.Selective))

(* ---- run ---- *)

let run_cmd =
  let run w s =
    Opts.with_faults @@ fun () ->
    let baseline, r = evaluate w s in
    Format.printf "baseline:@.%a@.@." T1000_ooo.Stats.pp
      baseline.T1000.Runner.stats;
    Format.printf "with PFUs:@.%a@.@." T1000_ooo.Stats.pp
      r.T1000.Runner.stats;
    Format.printf "speedup: %.3f@." (T1000.Runner.speedup ~baseline r)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a workload and report the speedup.")
    Term.(const run $ Opts.workload $ Opts.setup)

(* ---- dot ---- *)

let dot_cmd =
  let run () w what =
    match what with
    | `Cfg ->
        print_string
          (T1000_asm.Cfg.to_dot
             (T1000_asm.Cfg.of_program w.T1000_workloads.Workload.program))
    | `Ext ->
        Opts.with_faults @@ fun () ->
        let r =
          T1000.Experiment.run_setup (one_shot w) w
            (T1000.Runner.setup ~n_pfus:(Some 4) T1000.Runner.Selective)
        in
        List.iter
          (fun e ->
            print_string
              (T1000_dfg.Dfg.to_dot
                 ~name:(Printf.sprintf "ext%d" e.T1000_select.Extinstr.eid)
                 e.T1000_select.Extinstr.dfg))
          (T1000_select.Extinstr.entries r.T1000.Runner.table)
  in
  let what =
    Arg.(
      value
      & pos 1 (enum [ ("cfg", `Cfg); ("ext", `Ext) ]) `Cfg
      & info [] ~docv:"WHAT" ~doc:"What to render: cfg or ext.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a kernel's CFG or its mined DFGs.")
    Term.(const run $ Opts.env $ Opts.workload $ what)

(* ---- experiment ---- *)

let experiment_cmd =
  let run () resume ids =
    (match
       List.filter (fun id -> not (List.mem id T1000.Report.artifact_ids)) ids
     with
    | [] -> ()
    | unknown ->
        Format.eprintf "t1000_cli: unknown experiment %s (known: %s)@."
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
          (String.concat " " T1000.Report.artifact_ids);
        exit 2);
    let ctx =
      T1000.Experiment.create_ctx ~workloads:(Opts.suite_workloads ()) ()
    in
    let faults = ref [] in
    let dispatch id =
      (* one journal file per experiment id *)
      let journal = open_journal ~resume ~run:id in
      let text, fs = Option.get (T1000.Report.render ?journal ctx id) in
      faults := !faults @ fs;
      Format.printf "%s@." text
    in
    Opts.with_faults (fun () -> List.iter dispatch ids);
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
    Term.(const run $ Opts.env $ resume_arg $ ids)

(* ---- dse ---- *)

let dse_cmd =
  let run () resume budget axes full json =
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
    Opts.with_faults @@ fun () ->
    let journal = open_journal ~resume ~run:"dse" in
    let ctx =
      T1000.Experiment.create_ctx ~workloads:(Opts.suite_workloads ()) ()
    in
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
    Term.(const run $ Opts.env $ resume_arg $ budget $ axes $ full $ json)

(* ---- stats ---- *)

let stats_cmd =
  let run w s =
    Opts.with_faults @@ fun () ->
    T1000.Obs.Metrics.reset ();
    T1000.Obs.Tracer.reset ();
    T1000.Obs.Tracer.set_enabled true;
    let baseline, r = evaluate w s in
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
    Term.(const run $ Opts.workload $ Opts.setup)

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
  let run () seed cases chaos drills out_dir =
    Opts.with_faults @@ fun () ->
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
    Term.(const run $ Opts.env $ seed $ cases $ chaos $ drills $ out_dir)

(* ---- serve / client ---- *)

let addr_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (T1000_serve.Server.parse_addr s)),
      fun ppf a ->
        Format.pp_print_string ppf (T1000_serve.Server.addr_to_string a) )

let serve_cmd =
  let run base socket tcp =
    Opts.with_faults @@ fun () ->
    (* A client that disconnects mid-reply must not kill the daemon. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let addrs =
      Option.to_list
        (Option.map (fun p -> T1000_serve.Server.Unix_sock p) socket)
      @ Option.to_list tcp
    in
    let t = T1000_serve.Server.create { base with T1000_serve.Server.addrs } in
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
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the selection-as-a-service daemon: length-prefixed framed \
          requests over Unix/TCP sockets, bounded admission with typed \
          shedding, per-request deadlines, fault isolation, and graceful \
          drain on SIGTERM.")
    Term.(const run $ Opts.daemon $ socket $ tcp)

let supervise_cmd =
  let run (daemon : T1000_serve.Server.config) replicas socket_dir restarts
      health_ms grace =
    Opts.with_faults @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* Every replica's Server.create checks the values forwarded below;
       checking them here too makes a bad one exit 2 before any replica
       starts, not a restart loop. *)
    T1000_serve.Server.validate daemon;
    let base = T1000_serve.Supervisor.default_config () in
    let cfg =
      {
        base with
        T1000_serve.Supervisor.replicas =
          Option.value replicas ~default:base.replicas;
        socket_dir = Option.value socket_dir ~default:base.socket_dir;
        restarts = Option.value restarts ~default:base.restarts;
        health_period_s =
          Option.fold health_ms ~none:base.health_period_s ~some:(fun ms ->
              ms /. 1000.0);
        drain_grace_s = Option.value grace ~default:base.drain_grace_s;
        (* The replicas inherit the environment, and with it every flag
           of [Opts.env]; the [Opts.daemon] values travel as arguments. *)
        serve_args =
          [
            "--queue"; string_of_int daemon.queue_depth;
            "--max-steps"; string_of_int daemon.max_steps;
          ]
          @ Option.fold daemon.default_deadline_ms ~none:[] ~some:(fun ms ->
                [ "--deadline"; Printf.sprintf "%.17g" ms ]);
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
          ~doc:"Child daemons to supervise (default 3).")
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
             it (default 5).")
  in
  let health_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "health-ms" ] ~docv:"MS"
          ~doc:"Health-probe period per replica (default 500).")
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
      const run $ Opts.daemon $ replicas $ socket_dir $ restarts $ health_ms
      $ grace)

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
  let run addrs ping health timeout_ms asm kernel method_ pfus penalty
      max_cycles deadline count show_cached =
    Opts.with_faults @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
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
    (* One endpoint: the plain blocking client, byte-identical output
       and semantics to the single-daemon tier; several: the failover
       client.  [f] gets the session's ping and request calls. *)
    let session f =
      match addrs with
      | [ addr ] -> (
          match T1000_serve.Client.connect ?timeout_s addr with
          | Error msg ->
              Format.eprintf "t1000 client: %s@." msg;
              exit 1
          | Ok c ->
              Fun.protect ~finally:(fun () -> T1000_serve.Client.close c)
              @@ fun () ->
              f
                (fun () -> T1000_serve.Client.ping c)
                (T1000_serve.Client.request c))
      | addrs ->
          let fo = T1000_serve.Client.Failover.create ?timeout_s addrs in
          Fun.protect ~finally:(fun () -> T1000_serve.Client.Failover.close fo)
          @@ fun () ->
          f
            (fun () -> T1000_serve.Client.Failover.ping fo)
            (T1000_serve.Client.Failover.request fo)
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
    else if ping then
      session (fun ping _ -> print_reply (Result.map (fun () -> `Pong) (ping ())))
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
      session (fun _ request ->
          for _ = 1 to count do
            print_reply (request sel)
          done)
    end
  in
  let connect =
    Arg.(
      required
      & opt (some addrs_conv) None
      & info [ "c"; "connect" ] ~docv:"ADDRS"
          ~doc:
            "Daemon address(es): comma-separated unix:PATH or \
             tcp:HOST:PORT.  More than one \
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
      $ Opts.method_ $ Opts.pfus
      $ Opts.penalty $ max_cycles $ deadline $ count $ show_cached)

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
