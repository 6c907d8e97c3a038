(* One measured run of one workload — what the [once] subcommand does and
   what [run] spawns per (run, workload).  The last line of stdout is the
   result object; the lines before it name every metric with its unit. *)

open Harness

let e2e (s : sample) =
  let secs = s.timed_s in
  let values =
    [
      ("setup_s", s.setup_s);
      ("wall_s", median s.pass_s);
      ("ops_per_s", ratio (float_of_int s.ops) secs);
      ("latency_p50_ms", median s.op_ms);
      ("latency_p95_ms", percentile 0.95 s.op_ms);
      ("sim_minstr_per_s", ratio (float_of_int s.committed) secs /. 1e6);
      ("peak_rss_mb", s.rss_mb);
    ]
  in
  List.map
    (fun (e : Catalog.e2e) -> (e.name, e.unit_, List.assoc e.name values))
    Catalog.end_to_end

(* A layer a workload does not exercise reads 0. *)
let layer_metrics values =
  List.map
    (fun (x : Catalog.layer) ->
      (x.lname, x.lunit, Option.value ~default:0.0 (List.assoc_opt x.lname values)))
    Catalog.per_layer

(* A traced run measures the workload twice, untraced then traced, so the
   tracer's cost is read against the same work; the layer probe then
   runs with the tracer still on. *)
let traced ~measure ~workload ~trace_dir env =
  let plain = measure env in
  Tracer.reset ();
  Tracer.set_enabled true;
  let s = measure env in
  let layers = s.layers @ Probe.run ~work:env.work s.probe_kernels in
  Tracer.set_enabled false;
  let overhead =
    100.0 *. ((median s.pass_s /. median plain.pass_s) -. 1.0)
  in
  let values =
    layers
    @ [
        ("trace.overhead_pct", overhead);
        ("host.reference_ms", Speed.reference_ms ());
      ]
  in
  let metrics = layer_metrics values in
  Option.iter
    (fun dir ->
      mkdir_p dir;
      let trace = Filename.concat dir "trace.json" in
      Tracer.write_chrome trace;
      (match Tracer.validate_chrome ~require_cats:Probe.layer_cats (read_file trace) with
      | Ok _ -> ()
      | Error m -> failwith (workload ^ ": invalid trace: " ^ m));
      write_file
        (Filename.concat dir "layers.json")
        (Json.to_string
           (Json.Obj
              (List.map (fun (n, u, v) -> (n, num_metric u v)) metrics))
        ^ "\n"))
    trace_dir;
  (plain.attempted + s.attempted, plain.failed + s.failed, metrics)

let run ~workload ~seed ~seconds ~trace ~trace_dir =
  let measure =
    match List.find_opt (fun (n, _, _) -> n = workload) Catalog.workloads with
    | Some (_, m, _) -> m
    | None -> failwith ("unknown workload " ^ workload)
  in
  (* The batch workloads run on one thread, like [T1000_NJOBS=1]. *)
  Unix.putenv "T1000_NJOBS" "1";
  let work =
    Filename.concat ".t1000_bench" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  mkdir_p work;
  let env = { seed; seconds; work } in
  Speed.set_tracking true;
  let attempted, failed, metrics =
    Fun.protect ~finally:(fun () ->
        rm_rf work;
        try Sys.rmdir (Filename.dirname work) with Sys_error _ -> ())
    @@ fun () ->
    if trace then traced ~measure ~workload ~trace_dir env
    else
      let s = measure env in
      (s.attempted, s.failed, e2e s)
  in
  List.iter
    (fun (n, u, v) -> Printf.printf "%-10s %-30s %14.6g %s\n" workload n v u)
    metrics;
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
