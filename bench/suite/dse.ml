(* dse: the design-space explorer's throughput.  [Engine.explore
   ~budget:64] over the default 1620-point space on the golden suite,
   recording a fresh checkpoint journal (the journal write path), then a
   second explore on a fresh context that resumes from that journal (the
   read path) and must simulate nothing.  Inputs are fixed: the
   frontier is the committed contract in expect/dse.txt. *)

open T1000
open Harness
module Engine = T1000_dse.Engine

let expect_file = "bench/suite/expect/dse.txt"
let budget = 64

let fresh_ctx () =
  let ctx = Experiment.create_ctx ~workloads:(Golden.workloads ()) () in
  List.iter
    (fun w -> ignore (Experiment.analysis ctx w))
    (Experiment.workloads ctx);
  ctx

let frontier r = Format.asprintf "%a" Engine.pp_frontier r

let promote () =
  write_file expect_file
    (frontier (Engine.explore ~budget (fresh_ctx ()) T1000_dse.Space.default))

let measure env =
  let expected = read_file expect_file in
  let n = ref 0 in
  (* Set-up: a profiled context and an empty journal directory. *)
  let setup () =
    incr n;
    let dir = Filename.concat env.work (Printf.sprintf "dse-%d" !n) in
    (fresh_ctx (), dir)
  in
  let first, setup_s = setups setup in
  let attempted = ref 0 and failed = ref 0 in
  let explore_ms = ref [] and resume_s = ref 0.0 and resume_tasks = ref 0 in
  let points = ref 0 and journal_bytes = ref 0 in
  let check what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      Printf.eprintf "dse: %s\n%!" what
    end
  in
  Metrics.reset ();
  let pass (ctx, dir) =
    let journal = Checkpoint.create ~fresh:true ~dir ~run:"dse" () in
    let fresh, dt =
      time (fun () ->
          span "dse" "dse.explore" (fun () ->
              Engine.explore ~journal ~budget ctx T1000_dse.Space.default))
    in
    explore_ms := (dt *. 1e3) :: !explore_ms;
    points := !points + List.length fresh.Engine.measured;
    journal_bytes := (Unix.stat (Checkpoint.path journal)).Unix.st_size;
    check "fresh frontier differs from expect/dse.txt" (frontier fresh = expected);
    let before = Metrics.get "dse.sim_tasks" in
    let resumed, dt =
      time (fun () ->
          span "dse" "dse.resume" (fun () ->
              let journal = Checkpoint.create ~dir ~run:"dse" () in
              Engine.explore ~journal ~budget (Experiment.create_ctx
                ~workloads:(Golden.workloads ()) ())
                T1000_dse.Space.default))
    in
    resume_s := !resume_s +. dt;
    resume_tasks := !resume_tasks + Metrics.get "dse.sim_tasks" - before;
    check "resumed frontier differs from the fresh one"
      (frontier resumed = frontier fresh)
  in
  let pass_s, raw_s =
    passes ~seconds:env.seconds ~first ~prepare:setup pass in
  let timed_s = sum pass_s in
  {
    attempted = !attempted;
    failed = !failed;
    setup_s;
    pass_s;
    ops = !points;
    op_ms = !explore_ms;
    timed_s;
    committed = Metrics.get "sim.committed";
    rss_mb = peak_rss_mb None;
    layers =
      [
        ("dse.resume_pct", 100.0 *. ratio !resume_s timed_s);
        ("dse.resume_sim_tasks", float_of_int !resume_tasks);
        ("core.journal_bytes", float_of_int !journal_bytes);
      ]
      @ Obs_layers.local ~base_s:raw_s;
    probe_kernels = Golden.suite;
  }
