(* Host-speed normalisation.

   The hosts this benchmark runs on are shared: the speed of the same
   single-threaded loop drifts by 10-20 % between 10-second windows, and
   process CPU time drifts with it, so raw seconds from two runs a
   minute apart do not compare.  Every duration the benchmark reports
   is therefore scaled by a reference loop timed alongside the work: a
   fixed, allocation-free loop over a private buffer, which no change to
   the program under test can speed up or slow down.  Of the
   loops tried, this strided read-modify-write over a 512 KiB array
   tracked the simulator's drift best: over four minutes of alternating
   samples, 20-second medians of simulation time spread by 7.6 %
   between quartiles raw, and by 0.8 % once divided by it.

   A reported duration reads "seconds on a host where the reference
   loop takes [nominal_s]": each stretch of work is multiplied by
   nominal / reference, the reference being the median of the samples
   near it.  Samples are taken around every timed interval and, while
   tracking is on, every [every_s] inside it; their own time is
   subtracted. *)

let nominal_s = 0.0028
let every_s = 0.1

let buf = Array.make 65536 1

let reference () =
  let x = ref 0 in
  for i = 1 to 2_000_000 do
    x := !x + buf.((i * 7919) land 65535);
    buf.(i land 65535) <- !x land 1023
  done;
  ignore (Sys.opaque_identity !x)

(* Every sample taken in this process: (start, duration). *)
let samples : (float * float) list ref = ref []

(* The timer's own samples must not land inside another sample. *)
let sample () =
  let blocked = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  let t0 = Unix.gettimeofday () in
  reference ();
  let d = Unix.gettimeofday () -. t0 in
  ignore (Unix.sigprocmask Unix.SIG_SETMASK blocked);
  samples := (t0, d) :: !samples

(* Inside an interval the reference is sampled from an interval timer,
   so long library calls are tracked.  Only for work done in this
   process: the handler takes the CPU from whatever runs, and the
   signal would interrupt the serve client's socket calls. *)
let set_tracking on =
  let period = if on then every_s else 0.0 in
  if on then Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period });
  if not on then Sys.set_signal Sys.sigalrm Sys.Signal_ignore

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Scaling is piecewise: each stretch of work between two samples is
   scaled by the median of the samples within [window_s] of it, so a
   long operation that runs partly on a contended host is corrected
   where it was slow, and one preempted sample cannot skew it. *)
let window_s = 0.5

(* Samples starting at or after [t], oldest first. *)
let rec since t acc = function
  | ((start, _) as x) :: tl when start >= t -> since t (x :: acc) tl
  | _ -> acc

(** [time ~probes f] runs [f ()] between [probes] reference samples on
    each side and returns its result, its normalised duration in
    seconds, and the mean scale factor applied (nominal over measured
    reference), which callers apply to latencies measured inside the
    interval. *)
let time ?(probes = 1) f =
  for _ = 1 to probes do
    sample ()
  done;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to probes do
    sample ()
  done;
  let around = since (t0 -. window_s) [] !samples in
  let scale a b =
    let mid = (a +. b) /. 2.0 in
    let near =
      List.filter_map
        (fun (s, d) -> if Float.abs (s -. mid) <= window_s then Some d else None)
        around
    in
    (b -. a) *. nominal_s /. median (if near = [] then List.map snd around else near)
  in
  let rec segments cursor acc = function
    | (s, d) :: tl when s < t1 -> segments (s +. d) (acc +. scale cursor s) tl
    | _ -> acc +. scale cursor t1
  in
  let inside = List.filter (fun (s, _) -> s >= t0) around in
  let norm = segments t0 0.0 inside in
  let own = List.fold_left (fun acc (s, d) -> if s < t1 then acc +. d else acc) 0.0 inside in
  (r, norm, norm /. Float.max 1e-9 (t1 -. t0 -. own))

(* Median of every sample so far, in milliseconds. *)
let reference_ms () = 1e3 *. median (List.map snd !samples)
