module Metrics = T1000_obs.Metrics
module Tracer = T1000_obs.Tracer

let default_njobs () =
  match Fault.getenv_int ~min:1 "T1000_NJOBS" with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()
  | exception Fault.Error (Fault.Invalid_config m) -> invalid_arg m

let parallel_map ?njobs f xs =
  let njobs =
    match njobs with Some n -> max 1 n | None -> default_njobs ()
  in
  Tracer.with_span ~cat:"pool" "pool.map" @@ fun () ->
  match xs with
  | [] -> []
  | xs when njobs = 1 -> List.map f xs
  | xs ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      (* (index, exn) of every failed task; the lowest index wins so
         the surfaced exception does not depend on scheduling. *)
      let failures = Atomic.make [] in
      let record i e =
        let rec loop () =
          let old = Atomic.get failures in
          if not (Atomic.compare_and_set failures old ((i, e) :: old)) then
            loop ()
        in
        loop ();
        (* Abandon unclaimed tasks: workers drain on the next fetch. *)
        Atomic.set next n
      in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else
            match f input.(i) with
            | v -> results.(i) <- Some v
            | exception e -> record i e
        done
      in
      let domains =
        List.init (min njobs n - 1) (fun _ -> Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join domains;
      (match Atomic.get failures with
      | [] -> ()
      | fs ->
          let _, e =
            List.fold_left
              (fun (bi, be) (i, e) -> if i < bi then (i, e) else (bi, be))
              (List.hd fs) (List.tl fs)
          in
          raise e);
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

(* -------- chaos configuration (T1000_CHAOS) --------

   Chaos mode randomly injects transient faults into tasks and randomly
   "kills" worker domains mid-sweep (the dying worker requeues its task
   and spawns a replacement domain before exiting).  Every decision is a
   pure hash of (chaos seed, task index, per-task counter), so the set
   of injected faults — and therefore the final per-task results — is
   identical at any worker count and on the sequential path, and a
   chaos-free rerun with the same inputs returns byte-identical rows. *)

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

(* How many worker kills a single map tolerates; a replacement domain
   is spawned for each, so this only bounds spawn churn. *)
let kill_cap = 16

let parallel_map_result ?njobs ?retries ?on_result f xs =
  let njobs =
    match njobs with Some n -> max 1 n | None -> default_njobs ()
  in
  let chaos = chaos_config () in
  let retries =
    match retries with
    | Some r -> max 0 r
    | None -> (
        match env_retries () with
        | Some r -> r
        | None -> if chaos = None then 0 else 10)
  in
  Tracer.with_span ~cat:"pool" "pool.map" @@ fun () ->
  let t_start = Unix.gettimeofday () in
  Metrics.incr "pool.maps";
  Metrics.set_gauge "pool.njobs" (float_of_int njobs);
  let inject_here ~index ~attempt =
    match chaos with
    | None -> false
    | Some { p; seed } -> hash_unit ~seed ~salt:1 ~a:index ~b:attempt < p
  in
  let kill_here ~index ~pops =
    match chaos with
    | None -> false
    | Some { p; seed } ->
        pops < 4 && hash_unit ~seed ~salt:2 ~a:index ~b:pops < p /. 2.0
  in
  let wrap x =
    match f x with
    | v -> Ok v
    | exception e ->
        let backtrace = Printexc.get_backtrace () in
        Error (Fault.of_exn ~backtrace e)
  in
  (* Task-level telemetry: queue wait is measured from map start to the
     task's first evaluation attempt; busy time covers every attempt.
     Both are per-domain Metrics writes, so the hot path stays
     lock-free. *)
  let attempt_task ~index ~attempt x =
    if attempt = 0 then
      Metrics.observe "pool.task_wait_ms"
        ((Unix.gettimeofday () -. t_start) *. 1e3)
    else Metrics.incr "pool.retries";
    let t0 = Unix.gettimeofday () in
    let r =
      Tracer.with_span ~cat:"pool" "pool.task" @@ fun () ->
      if inject_here ~index ~attempt then begin
        Metrics.incr injected_counter;
        Error
          (Fault.Injected
             (Printf.sprintf "chaos (T1000_CHAOS): task %d attempt %d" index
                attempt))
      end
      else wrap x
    in
    Metrics.add_float "pool.busy_s" (Unix.gettimeofday () -. t0);
    r
  in
  let result =
    match xs with
  | [] -> []
  | xs when njobs = 1 ->
      (* Sequential path: same per-task attempt sequence (and therefore
         the same final results) as the pool, no kills, no domains. *)
      let notify_dead = ref false in
      List.mapi
        (fun i x ->
          let rec go attempt =
            match attempt_task ~index:i ~attempt x with
            | Error fault when Fault.transient fault && attempt < retries ->
                Unix.sleepf (backoff_delay attempt);
                go (attempt + 1)
            | r -> r
          in
          let r = go 0 in
          Metrics.incr "pool.tasks";
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
          | _ -> r)
        xs
  | xs ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let results = Array.make n None in
      let m = Mutex.create () in
      let cv = Condition.create () in
      (* Work items are (index, attempt, pops): [attempt] counts real
         evaluation attempts (bounded by [retries]); [pops] counts how
         many times the item left the queue, which keeps the kill
         decision deterministic yet different on every requeue. *)
      let queue = Queue.create () in
      Array.iteri (fun i _ -> Queue.add (i, 0, 0) queue) input;
      let remaining = ref n in
      let spawned = ref [] in
      let kills = ref 0 in
      let notify_dead = ref false in
      let rec worker () =
        Mutex.lock m;
        worker_loop ()
      (* Invariant: called with [m] held; releases it before returning. *)
      and worker_loop () =
        if !remaining = 0 then begin
          Condition.broadcast cv;
          Mutex.unlock m
        end
        else if Queue.is_empty queue then begin
          (* Every unfinished task is in flight on some worker and will
             either finalize (remaining hits 0 -> broadcast) or requeue
             (-> signal), so this wait always ends. *)
          Condition.wait cv m;
          worker_loop ()
        end
        else begin
          let i, attempt, pops = Queue.pop queue in
          if kill_here ~index:i ~pops && !kills < kill_cap then begin
            (* This worker domain "dies" mid-sweep: requeue its task
               untouched, spawn a replacement, exit the loop.  The row
               is not lost — the replacement (or any surviving worker)
               picks it up. *)
            incr kills;
            Metrics.incr killed_counter;
            Queue.add (i, attempt, pops + 1) queue;
            spawned := Domain.spawn worker :: !spawned;
            Condition.signal cv;
            Mutex.unlock m
          end
          else begin
            Mutex.unlock m;
            match attempt_task ~index:i ~attempt input.(i) with
            | Error fault when Fault.transient fault && attempt < retries ->
                Unix.sleepf (backoff_delay attempt);
                Mutex.lock m;
                Queue.add (i, attempt + 1, pops + 1) queue;
                Condition.signal cv;
                worker_loop ()
            | r ->
                Mutex.lock m;
                let r =
                  (* An exception escaping on_result (e.g. the journal's
                     disk dying) no longer aborts the map: it surfaces
                     as this element's Crashed fault, notifications stop,
                     and every other task still completes. *)
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
                Metrics.incr "pool.tasks";
                results.(i) <- Some r;
                decr remaining;
                if !remaining = 0 then Condition.broadcast cv;
                worker_loop ()
          end
        end
      in
      for _ = 2 to min njobs n do
        spawned := Domain.spawn worker :: !spawned
      done;
      worker ();
      (* Join every domain, including replacements spawned by chaos
         kills while we were already joining. *)
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
      Array.to_list
        (Array.map
           (function Some r -> r | None -> assert false)
           results)
  in
  Metrics.add_float "pool.wall_s" (Unix.gettimeofday () -. t_start);
  result

(* -------- request-level submission (the serve daemon) --------

   A long-running server does not map over a list: requests arrive one
   at a time, each with its own sequence number.  [run_result] gives a
   single task the same envelope as one element of
   [parallel_map_result] — fault classification, deterministic chaos
   injection keyed on the caller-supplied index, and transient-retry
   with capped backoff — and [chaos_kill_worker] exposes the worker
   kill decision so long-lived worker loops (the daemon's domains) can
   die and respawn under T1000_CHAOS exactly like map workers do. *)

let run_result ?(index = 0) ?retries f =
  let chaos = chaos_config () in
  let retries =
    match retries with
    | Some r -> max 0 r
    | None -> (
        match env_retries () with
        | Some r -> r
        | None -> if chaos = None then 0 else 10)
  in
  let inject ~attempt =
    match chaos with
    | None -> false
    | Some { p; seed } -> hash_unit ~seed ~salt:3 ~a:index ~b:attempt < p
  in
  let rec go attempt =
    if attempt > 0 then Metrics.incr "pool.retries";
    let r =
      if inject ~attempt then begin
        Metrics.incr injected_counter;
        Error
          (Fault.Injected
             (Printf.sprintf "chaos (T1000_CHAOS): request %d attempt %d"
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
  Metrics.incr "pool.tasks";
  go 0

let chaos_kill_worker ~index ~pops =
  match chaos_config () with
  | None -> false
  | Some { p; seed } ->
      let kill = hash_unit ~seed ~salt:4 ~a:index ~b:pops < p /. 2.0 in
      if kill then Metrics.incr killed_counter;
      kill
