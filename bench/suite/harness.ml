(* Shared plumbing of the benchmark: clocks, order statistics, the
   set-up and pass loops every workload runs, and what one measured run
   hands back to [Once]. *)

module Json = T1000_obs.Json
module Metrics = T1000_obs.Metrics
module Tracer = T1000_obs.Tracer

let now = Unix.gettimeofday

let raw_time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every duration the benchmark reports is host-speed normalised. *)
let time f =
  let r, dt, _ = Speed.time f in
  (r, dt)

(* ---- order statistics ---- *)

let sorted xs = List.sort compare xs |> Array.of_list

(* Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
   the quartiles printed here match the ones an outside checker
   computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median = Speed.median

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.percentile: no values"
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- what a workload measures ---- *)

(** One workload's measurement in one process.  [Once] derives the
    end-to-end metrics from the common fields; [layers] carries the
    workload's own per-layer observations, and [probe_kernels] names the
    kernels the uniform layer probe replays afterwards. *)
type sample = {
  attempted : int;  (** operations attempted, output checks included *)
  failed : int;  (** operations that failed or whose output was wrong *)
  setup_s : float;  (** median of the repeated set-ups *)
  pass_s : float list;  (** wall time of each pass *)
  ops : int;  (** operations completed in the timed region *)
  op_ms : float list;  (** latency of each operation *)
  timed_s : float;  (** the whole timed region *)
  committed : int;  (** simulated instructions committed in it *)
  rss_mb : float;  (** peak resident set of the process doing the work *)
  layers : (string * float) list;
  probe_kernels : string list;
}

type env = {
  seed : int;
  seconds : float;
  work : string;  (** scratch directory of this run, removed at exit *)
}

(* Set up [k] times and report the median: one set-up is a few tens of
   milliseconds, too short to read reliably once. *)
let setups ?(k = 9) f =
  let rec go i last ts =
    if i = k then
      match last with
      | Some s -> (s, median ts)
      | None -> assert false
    else
      let s, dt = time f in
      go (i + 1) (Some s) (dt :: ts)
  in
  go 0 None []

(* Run whole passes while the next one is expected to fit in the time
   budget (at least one): every pass is a complete unit of the
   workload's work, so a run never reports a partial matrix.  The first
   pass runs on [first]; each later one on a fresh [prepare ()], which
   is not timed.  Returns the normalised pass times and the raw seconds
   of all passes, the base for shares of library timers. *)
let passes ~seconds ~first ~prepare f =
  let t0 = now () in
  let rec go st times raw =
    let ((), dt), raw_dt = raw_time (fun () -> time (fun () -> f st)) in
    let times = dt :: times and raw = raw_dt :: raw in
    if now () -. t0 +. median raw <= seconds then go (prepare ()) times raw
    else (List.rev times, List.fold_left ( +. ) 0.0 raw)
  in
  go first [] []

let sum = List.fold_left ( +. ) 0.0

let span cat name f = Tracer.with_span ~cat name f

(* ---- process helpers ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* VmHWM: the peak resident set of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* ---- the run result line ---- *)

let num_metric unit_ v =
  Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]

(* [Json.to_string] prints floats with %.17g, so every digit measured
   reaches the reader. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj (List.map (fun (n, u, v) -> (n, num_metric u v)) metrics) );
       ])
