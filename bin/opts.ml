(* The command-line terms every t1000_cli command shares.

   [env] is the one term for the host settings.  Each of its flags
   except --trace is the twin of a T1000_* variable: the flag is
   exported with putenv and then re-read by that variable's own
   validating reader, so a value means the same, and fails the same way
   (exit 2), whether it came from the flag or the environment.  The
   pool reads the variables in this process, in its worker domains and
   in the daemons `supervise` starts.

   [machine] yields the values of --bpred (a bad one exits 2) and
   --selfcheck, which reach the library as arguments.  [setup] is the
   evaluation setup (-m/-p/-r) on that machine.

   [daemon] is the serve tier's Server.config (--queue, --deadline,
   --max-steps and the machine), for `serve` and `supervise` only.  Its
   flags have no environment twin: the values go straight into the
   record, and Server.validate is their one check. *)

open Cmdliner

(* Map the fault taxonomy onto process exit codes (2 = misconfigured
   run, 3 = simulation fault / partial results) instead of dying with a
   raw OCaml backtrace. *)
let with_faults f =
  try f () with
  | ( T1000.Fault.Error _ | T1000_ooo.Sim.Sim_stuck _
    | T1000_ooo.Sim.Selfcheck_violation _ | T1000_machine.Interp.Fault _ ) as e
    ->
      let fault = T1000.Fault.of_exn e in
      Format.eprintf "t1000_cli: %s@." (T1000.Fault.to_string fault);
      exit (T1000.Fault.exit_code fault)

(* ---- the env-twin term ---- *)

let twin ~flag var ~read value =
  Option.iter
    (fun v ->
      Unix.putenv var (string_of_int v);
      try ignore (read ()) with
      | Invalid_argument msg | T1000.Fault.Error (T1000.Fault.Invalid_config msg)
        ->
          Format.eprintf "t1000_cli: %s: %s@." flag msg;
          exit 2)
    value

let bpred =
  Arg.(
    value
    & opt (some string) None
    & info [ "bpred" ] ~docv:"KIND[:BITS]"
        ~doc:
          "Branch predictor for the speculative front end: 'perfect' \
           (default: exact trace-driven fetch), 'static', \
           'bimodal[:BITS]' or 'gshare[:BITS]'.  Non-perfect predictors \
           fetch down the predicted path and squash wrong-path work on \
           resolution.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains: the experiment engine's pool, or a serve \
           daemon's request workers (also: $(b,T1000_NJOBS); 1 = \
           sequential).")

let selfcheck =
  Arg.(
    value & flag
    & info [ "selfcheck" ]
        ~doc:
          "Audit the simulator's RUU/PFU-file invariants at every commit \
           and cross-validate architectural results against the \
           functional interpreter.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span traces and write a Chrome trace-event JSON file \
           (loadable in Perfetto or chrome://tracing) at exit.  Strictly \
           observational: stdout is byte-identical with and without this \
           flag.")

let retries =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Transient-fault retries per task or request (also: \
           $(b,T1000_RETRIES)).")

(* --trace FILE: switch the span tracer on and write the Chrome trace
   at process exit.  Registered via at_exit, not Fun.protect, so the
   trace still lands on the fault paths that call [exit 2]/[exit 3]. *)
let setup_trace = function
  | None -> ()
  | Some path ->
      T1000.Obs.Tracer.set_enabled true;
      at_exit (fun () ->
          T1000.Obs.Tracer.write_chrome path;
          Format.eprintf "t1000_cli: trace written to %s@." path)

let apply jobs trace retries =
  twin ~flag:"-j" "T1000_NJOBS" ~read:T1000.Pool.default_njobs jobs;
  twin ~flag:"--retries" "T1000_RETRIES" ~read:T1000.Pool.env_retries retries;
  setup_trace trace

let env = Term.(const apply $ jobs $ trace $ retries)

(* ---- the machine term ---- *)

type machine = { bpred : T1000_bpred.Predictor.spec; selfcheck : bool }

let machine =
  let make bpred selfcheck =
    let module Bp = T1000_bpred.Predictor in
    match Option.fold bpred ~none:(Ok Bp.Perfect) ~some:Bp.spec_of_string with
    | Ok bpred -> { bpred; selfcheck }
    | Error msg ->
        Format.eprintf "t1000_cli: --bpred: %s@." msg;
        exit 2
  in
  Term.(const make $ bpred $ selfcheck)

(* ---- the setup term ---- *)

let method_ =
  Arg.(
    value
    & opt
        (enum
           [
             ("baseline", T1000.Runner.Baseline);
             ("greedy", T1000.Runner.Greedy);
             ("selective", T1000.Runner.Selective);
           ])
        T1000.Runner.Selective
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Selection algorithm: baseline, greedy or selective.")

let pfus =
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
  Arg.(
    value
    & opt (conv (parse, print)) (Some 2)
    & info [ "p"; "pfus" ] ~docv:"PFUS"
        ~doc:"Number of PFUs, or 'unlimited'.")

let penalty =
  Arg.(
    value & opt int 10
    & info [ "r"; "penalty" ] ~docv:"CYCLES"
        ~doc:"PFU reconfiguration penalty in cycles.")

(* [Runner.setup] validates the fields (exit 2 on a bad one). *)
let setup_with method_ =
  Term.(
    const (fun () m method_ n_pfus penalty ->
        with_faults (fun () ->
            T1000.Runner.setup ~n_pfus ~penalty ~bpred:m.bpred
              ~selfcheck:m.selfcheck method_))
    $ env $ machine $ method_ $ pfus $ penalty)

let setup = setup_with method_

(* ---- the serve-tier term ---- *)

let queue =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "A serve daemon's admission queue depth; a full queue sheds with \
           a typed 'overloaded' reply.")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "A serve daemon's default per-request wall-clock deadline in \
           milliseconds, for requests that carry none.")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "A serve daemon's functional-execution step cap for \
           client-submitted kernels (a non-halting program becomes a typed \
           error).")

(* Built after [env] has applied -j, which the worker count reads. *)
let daemon =
  Term.(
    const (fun () m queue deadline max_steps ->
        let base = T1000_serve.Server.default_config () in
        {
          base with
          queue_depth = Option.value queue ~default:base.queue_depth;
          default_deadline_ms =
            (if deadline = None then base.default_deadline_ms else deadline);
          max_steps = Option.value max_steps ~default:base.max_steps;
          bpred = m.bpred;
          selfcheck = m.selfcheck;
        })
    $ env $ machine $ queue $ deadline $ max_steps)

(* ---- workloads ---- *)

let workload =
  let by_name =
    List.map
      (fun w -> (w.T1000_workloads.Workload.name, w))
      T1000_workloads.Registry.all
  in
  Arg.(
    required
    & pos 0 (some (enum by_name)) None
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (see $(b,list)).")

(* The ctx the batch commands run on: all workloads, or the
   T1000_WORKLOADS subset, which the CLI has already validated. *)
let suite_ctx ?bpred selfcheck =
  T1000.Experiment.create_ctx
    ~workloads:(Result.get_ok (T1000_workloads.Registry.of_env ()))
    ?bpred ~selfcheck ()
