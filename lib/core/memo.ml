type 'v cell =
  | Pending
  | Done of { v : 'v; mutable stamp : int }

type ('k, 'v) t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tbl : ('k, 'v cell) Hashtbl.t;
  cap : int option;  (* max completed bindings; None = unbounded *)
  mutable done_n : int;  (* completed bindings in [tbl] *)
  mutable clock : int;  (* strictly increasing LRU stamp source *)
  mutable evictions : int;
  hits : string option;  (* Obs.Metrics counter names, when labelled *)
  misses : string option;
  evict_c : string option;
  size_g : string option;
}

let env_var = "T1000_MEMO_CAP"

let env_cap () = Fault.getenv_int ~min:1 env_var

let default_cap = 1024

let create ?name ?cap n =
  (match cap with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Memo.create: capacity %d < 1" c)
  | _ -> ());
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create n;
    cap;
    done_n = 0;
    clock = 0;
    evictions = 0;
    hits = Option.map (fun n -> "memo." ^ n ^ ".hits") name;
    misses = Option.map (fun n -> "memo." ^ n ^ ".misses") name;
    evict_c = Option.map (fun n -> "memo." ^ n ^ ".evictions") name;
    size_g = Option.map (fun n -> "memo." ^ n ^ ".size") name;
  }

let count = Option.iter (fun name -> T1000_obs.Metrics.incr name)

(* All called with [t.mutex] held. *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let gauge_locked t =
  Option.iter
    (fun g -> T1000_obs.Metrics.set_gauge g (float_of_int t.done_n))
    t.size_g

(* Evict completed bindings, least-recently-used first, until the
   completed count is back under the capacity.  Pending slots are never
   evicted (a waiter is blocked on them); stamps are unique (the clock
   is strictly increasing under the lock), so the victim — and with it
   the recompute/hit pattern of any identical request stream — is
   deterministic. *)
let enforce_cap_locked t =
  match t.cap with
  | None -> ()
  | Some cap ->
      let rec evict () =
        if t.done_n > cap then begin
          let victim =
            Hashtbl.fold
              (fun k c best ->
                match (c, best) with
                | Pending, _ -> best
                | Done { stamp; _ }, None -> Some (k, stamp)
                | Done { stamp; _ }, Some (_, s) when stamp < s ->
                    Some (k, stamp)
                | Done _, Some _ -> best)
              t.tbl None
          in
          match victim with
          | None -> ()
          | Some (k, _) ->
              Hashtbl.remove t.tbl k;
              t.done_n <- t.done_n - 1;
              t.evictions <- t.evictions + 1;
              count t.evict_c;
              evict ()
        end
      in
      evict ()

let find_or_compute t k f =
  Mutex.lock t.mutex;
  let rec claim () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done d) ->
        d.stamp <- tick t;
        Mutex.unlock t.mutex;
        `Hit d.v
    | Some Pending ->
        Condition.wait t.cond t.mutex;
        claim ()
    | None ->
        Hashtbl.replace t.tbl k Pending;
        Mutex.unlock t.mutex;
        `Compute
  in
  match claim () with
  | `Hit v ->
      count t.hits;
      v
  | `Compute -> (
      count t.misses;
      match f () with
      | v ->
          Mutex.lock t.mutex;
          Hashtbl.replace t.tbl k (Done { v; stamp = tick t });
          t.done_n <- t.done_n + 1;
          enforce_cap_locked t;
          gauge_locked t;
          Condition.broadcast t.cond;
          Mutex.unlock t.mutex;
          v
      | exception e ->
          (* Clear the pending slot so waiters retry (and so a later
             call can attempt the computation again). *)
          Mutex.lock t.mutex;
          Hashtbl.remove t.tbl k;
          Condition.broadcast t.cond;
          Mutex.unlock t.mutex;
          raise e)

let find_opt t k =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done d) ->
        d.stamp <- tick t;
        Some d.v
    | Some Pending | None -> None
  in
  Mutex.unlock t.mutex;
  if Option.is_some r then count t.hits;
  r

let length t =
  Mutex.lock t.mutex;
  let n = t.done_n in
  Mutex.unlock t.mutex;
  n

let evictions t =
  Mutex.lock t.mutex;
  let n = t.evictions in
  Mutex.unlock t.mutex;
  n
