module Metrics = T1000_obs.Metrics
module Tracer = T1000_obs.Tracer

let default_njobs () =
  match Fault.getenv_int ~min:1 "T1000_NJOBS" with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()
  | exception Fault.Error (Fault.Invalid_config m) -> invalid_arg m

(* -------- chaos configuration (T1000_CHAOS) --------

   Chaos mode randomly injects transient faults into tasks and randomly
   "kills" worker domains mid-sweep (the dying worker requeues its task
   and spawns a replacement domain before exiting).  Every decision is a
   pure hash of (chaos seed, salt, task index, per-task counter), so
   the set of injected faults — and therefore the final per-task
   results — is identical at any worker count, and a chaos-free rerun
   with the same inputs returns byte-identical rows.  The salts keep
   the four decision streams apart: 1 injects and 2 kills in maps, 3
   injects into [run_result], 4 kills the serve daemon's workers. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Deterministic float in [0, 1) from (seed, salt, a, b). *)
let hash_unit ~seed ~salt ~a ~b =
  let open Int64 in
  let h = mix64 (add (of_int b) 0x9e3779b97f4a7c15L) in
  let h = mix64 (logxor h (of_int a)) in
  let h = mix64 (logxor h (of_int salt)) in
  let h = mix64 (logxor h (of_int seed)) in
  to_float (shift_right_logical h 11) /. 9007199254740992.0

let env_chaos () =
  Fault.getenv_float "T1000_CHAOS"
    ~ok:(fun p -> p >= 0.0 && p < 1.0)
    ~what:"a fault probability in [0, 1)"
  |> Option.value ~default:0.0

let env_chaos_seed () =
  Option.value (Fault.getenv_int "T1000_CHAOS_SEED") ~default:1

let env_retries () = Fault.getenv_int ~min:0 "T1000_RETRIES"

type chaos = { p : float; seed : int }

let chaos_config () =
  let p = env_chaos () in
  if p > 0.0 then Some { p; seed = env_chaos_seed () } else None

(* One chaos decision: fires with probability [p *. share]. *)
let draw chaos ~salt ~a ~b ~share =
  match chaos with
  | None -> false
  | Some { p; seed } -> hash_unit ~seed ~salt ~a ~b < p *. share

(* Cumulative chaos-event counters now live in [Obs.Metrics] (sharded
   per domain, merged on read) alongside the rest of the pool
   telemetry; this facade keeps the historical accessor so tests and
   the fault report read the same values as before. *)
let injected_counter = "pool.chaos.injected"
let killed_counter = "pool.chaos.killed"
let chaos_events () = (Metrics.get injected_counter, Metrics.get killed_counter)

(* T1000_BACKOFF_SCALE: a multiplier on the whole backoff schedule, so
   tests and CI chaos soaks do not spend wall-clock seconds sleeping
   between retries.  0 is explicitly allowed (no sleeping at all); the
   deterministic attempt sequence is unchanged either way, because the
   scale only stretches or compresses the delays, never the decisions. *)
let env_backoff_scale () =
  Fault.getenv_float "T1000_BACKOFF_SCALE"
    ~ok:(fun x -> x >= 0.0 && Float.is_finite x)
    ~what:"a non-negative finite float"
  |> Option.value ~default:1.0

(* Capped exponential backoff before retrying a transient fault: 1 ms,
   2 ms, 4 ms, ... capped at 50 ms, so even a long retry chain costs
   well under a second next to one simulation.  The 50 ms cap is load-
   bearing: at the default 10 retries under chaos an element sleeps at
   most 1+2+4+8+16+32+50*5 = 313 ms, and the serve daemon's per-request
   deadline math can treat retry backoff as bounded noise.  The whole
   schedule is scaled by T1000_BACKOFF_SCALE (0 = no sleeping). *)
let backoff_delay attempt =
  env_backoff_scale ()
  *. Float.min 0.05 (0.001 *. Float.of_int (1 lsl min attempt 16))


(* -------- the attempt envelope --------

   One task's whole life, shared by every element of
   [parallel_map_result] and every request of [run_result]: an
   injected or classified fault on each attempt, and an inline retry
   with backoff while the fault is transient and retries remain. *)

let resolve_retries chaos = function
  | Some r -> max 0 r
  | None -> (
      match env_retries () with
      | Some r -> r
      | None -> if chaos = None then 0 else 10)

let envelope ~chaos ~retries ~salt ~what ~index f =
  Metrics.incr "pool.tasks";
  let rec go attempt =
    if attempt > 0 then Metrics.incr "pool.retries";
    let r =
      if draw chaos ~salt ~a:index ~b:attempt ~share:1.0 then begin
        Metrics.incr injected_counter;
        Error
          (Fault.Injected
             (Printf.sprintf "chaos (T1000_CHAOS): %s %d attempt %d" what
                index attempt))
      end
      else
        match f () with
        | v -> Ok v
        | exception e ->
            let backtrace = Printexc.get_backtrace () in
            Error (Fault.of_exn ~backtrace e)
    in
    match r with
    | Error fault when Fault.transient fault && attempt < retries ->
        Unix.sleepf (backoff_delay attempt);
        go (attempt + 1)
    | r -> r
  in
  go 0

(* -------- the worker pool -------- *)

(* How many worker kills a single map tolerates; a replacement domain
   is spawned for each, so this only bounds spawn churn. *)
let kill_cap = 16

let parallel_map_result ?njobs ?retries ?on_result f xs =
  let njobs =
    match njobs with Some n -> max 1 n | None -> default_njobs ()
  in
  let chaos = chaos_config () in
  let retries = resolve_retries chaos retries in
  Tracer.with_span ~cat:"pool" "pool.map" @@ fun () ->
  let t_start = Unix.gettimeofday () in
  Metrics.incr "pool.maps";
  Metrics.set_gauge "pool.njobs" (float_of_int njobs);
  let input = Array.of_list xs in
  let n = Array.length input in
  let results = Array.make n None in
  let m = Mutex.create () in
  let cv = Condition.create () in
  (* Work items are (index, pops): [pops] counts how many times the
     item left the queue, so a killed worker's requeued task draws a
     fresh kill decision.  Retries run inline and never requeue. *)
  let queue = Queue.create () in
  Array.iteri (fun i _ -> Queue.add (i, 0) queue) input;
  let remaining = ref n in
  let spawned = ref [] in
  let kills = ref 0 in
  let notify_dead = ref false in
  (* At [njobs = 1] the caller is the only worker, so it never dies. *)
  let kill_here i pops =
    njobs > 1 && pops < 4 && !kills < kill_cap
    && draw chaos ~salt:2 ~a:i ~b:pops ~share:0.5
  in
  (* Queue wait is measured from map start to the task's start; busy
     time covers every attempt and the backoff between them, which
     holds the worker too.  Both are per-domain Metrics writes. *)
  let run_task i =
    Metrics.observe "pool.task_wait_ms"
      ((Unix.gettimeofday () -. t_start) *. 1e3);
    let t0 = Unix.gettimeofday () in
    let r =
      Tracer.with_span ~cat:"pool" "pool.task" @@ fun () ->
      envelope ~chaos ~retries ~salt:1 ~what:"task" ~index:i (fun () ->
          f input.(i))
    in
    Metrics.add_float "pool.busy_s" (Unix.gettimeofday () -. t0);
    r
  in
  (* Called with [m] held.  An exception escaping on_result (e.g. the
     journal's disk dying) does not abort the map: it surfaces as this
     element's Crashed fault, notifications stop, and every other task
     still completes. *)
  let notify i r =
    match on_result with
    | Some g when not !notify_dead -> (
        try
          g i r;
          r
        with e ->
          notify_dead := true;
          Error
            (Fault.Crashed
               {
                 exn = "on_result: " ^ Printexc.to_string e;
                 backtrace = Printexc.get_backtrace ();
               }))
    | _ -> r
  in
  let rec worker () =
    Mutex.lock m;
    loop ()
  (* Invariant: called with [m] held; releases it before returning. *)
  and loop () =
    if !remaining = 0 then begin
      Condition.broadcast cv;
      Mutex.unlock m
    end
    else
      match Queue.take_opt queue with
      | None ->
          (* Every unfinished task is in flight on some worker and will
             either finish (remaining hits 0 -> broadcast) or be
             requeued by a dying worker (-> signal), so this wait always
             ends. *)
          Condition.wait cv m;
          loop ()
      | Some (i, pops) when kill_here i pops ->
          (* This worker domain "dies" mid-sweep: requeue its task
             untouched, spawn a replacement, exit the loop.  The row is
             not lost — the replacement (or any surviving worker) picks
             it up. *)
          incr kills;
          Metrics.incr killed_counter;
          Queue.add (i, pops + 1) queue;
          spawned := Domain.spawn worker :: !spawned;
          Condition.signal cv;
          Mutex.unlock m
      | Some (i, _) ->
          Mutex.unlock m;
          let r = run_task i in
          Mutex.lock m;
          results.(i) <- Some (notify i r);
          decr remaining;
          loop ()
  in
  for _ = 2 to min njobs n do
    spawned := Domain.spawn worker :: !spawned
  done;
  worker ();
  (* Join every domain, including replacements spawned by chaos kills
     while we were already joining. *)
  let rec join_all () =
    Mutex.lock m;
    let ds = !spawned in
    spawned := [];
    Mutex.unlock m;
    match ds with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join_all ()
  in
  join_all ();
  Metrics.add_float "pool.wall_s" (Unix.gettimeofday () -. t_start);
  Array.to_list (Array.map Option.get results)

(* -------- request-level submission (the serve daemon) --------

   A long-running server does not map over a list: requests arrive one
   at a time, each with its own sequence number.  [run_result] runs one
   request through the same attempt envelope as a map element, keyed
   on the caller-supplied index, and [chaos_kill_worker] exposes the
   worker kill decision so long-lived worker loops (the daemon's
   domains) can die and respawn under T1000_CHAOS like map workers
   do. *)

let run_result ?(index = 0) ?retries f =
  let chaos = chaos_config () in
  envelope ~chaos
    ~retries:(resolve_retries chaos retries)
    ~salt:3 ~what:"request" ~index f

let chaos_kill_worker ~index ~pops =
  let kill = draw (chaos_config ()) ~salt:4 ~a:index ~b:pops ~share:0.5 in
  if kill then Metrics.incr killed_counter;
  kill
