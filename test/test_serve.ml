(* Tests for the selection-as-a-service layer (lib/serve): the wire
   codec and its strict parser, framed I/O edge cases (truncation,
   oversized lengths, garbage version bytes, mid-frame disconnects),
   the bounded admission queue, the T1000_BACKOFF_SCALE knob, the
   bounds Server.create and Supervisor.create check, request-level
   pool submission — and end-to-end daemon sessions exercising the
   robustness envelope: shedding under overload, wall-clock and
   cycle-budget deadlines, fault isolation, chaos soak, and graceful
   drain. *)

module Fault = T1000.Fault
module Pool = T1000.Pool
module Memo = T1000.Memo
module Protocol = T1000_serve.Protocol
module Squeue = T1000_serve.Squeue
module Server = T1000_serve.Server
module Client = T1000_serve.Client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_env pairs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
        saved)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let invalid_config f =
  match f () with
  | _ -> Alcotest.fail "expected Fault.Error Invalid_config"
  | exception Fault.Error (Fault.Invalid_config _) -> ()

(* ---------- codec round-trips ---------- *)

let strip_prefix frame = String.sub frame 4 (String.length frame - 4)

let sel ?(kernel = Protocol.Named "unepic") ?(method_ = `Selective)
    ?(pfus = Some 2) ?(penalty = 10) ?max_cycles ?deadline_ms () =
  { Protocol.kernel; method_; pfus; penalty; max_cycles; deadline_ms }

let requests_equal (a : Protocol.request) (b : Protocol.request) = a = b

let test_request_roundtrip () =
  let cases =
    [
      { Protocol.id = 1; body = `Ping };
      { Protocol.id = 42; body = `Select (sel ()) };
      {
        Protocol.id = 7;
        body =
          `Select
            (sel ~kernel:(Protocol.Asm { name = "k"; text = "halt\n" })
               ~method_:`Greedy ~pfus:None ~penalty:0 ~max_cycles:5000
               ~deadline_ms:250.5 ());
      };
      { Protocol.id = 0; body = `Select (sel ~method_:`Baseline ()) };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_request (strip_prefix (Protocol.encode_request r)) with
      | Ok r' -> check_bool "request round-trips" true (requests_equal r r')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    cases

let test_reply_roundtrip () =
  let cases =
    [
      { Protocol.rid = 3; body = `Pong };
      {
        Protocol.rid = 9;
        body =
          `Outcome
            {
              Protocol.speedup = 1.25;
              cycles = 1000;
              baseline_cycles = 1250;
              ext_count = 3;
              lut_cost = 120;
              cached = true;
            };
      };
      { Protocol.rid = 1; body = `Error (Protocol.Overloaded, "queue full") };
      { Protocol.rid = 2; body = `Error (Protocol.Timeout, "50 ms") };
      { Protocol.rid = 4; body = `Error (Protocol.Malformed, "bad \"json\"") };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_reply (strip_prefix (Protocol.encode_reply r)) with
      | Ok r' -> check_bool "reply round-trips" true (r = r')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    cases

let test_strict_parse () =
  let rejects what payload =
    check_bool what true (Result.is_error (Protocol.decode_request payload))
  in
  rejects "empty payload" "";
  rejects "garbage version byte" "\x7f{\"id\":1,\"op\":\"ping\"}";
  rejects "version 0" "\x00{\"id\":1,\"op\":\"ping\"}";
  rejects "malformed JSON" "\x01{\"id\":";
  rejects "missing id" "\x01{\"op\":\"ping\"}";
  rejects "non-integer id" "\x01{\"id\":1.5,\"op\":\"ping\"}";
  rejects "missing op" "\x01{\"id\":1}";
  rejects "unknown op" "\x01{\"id\":1,\"op\":\"bogus\"}";
  rejects "select without kernel" "\x01{\"id\":1,\"op\":\"select\"}";
  rejects "kernel with both named and asm"
    "\x01{\"id\":1,\"op\":\"select\",\"kernel\":{\"named\":\"a\",\"asm\":\"halt\"},\"method\":\"greedy\"}";
  rejects "unknown method"
    "\x01{\"id\":1,\"op\":\"select\",\"kernel\":{\"named\":\"a\"},\"method\":\"magic\"}";
  rejects "ill-typed pfus"
    "\x01{\"id\":1,\"op\":\"select\",\"kernel\":{\"named\":\"a\"},\"method\":\"greedy\",\"pfus\":\"three\"}";
  rejects "ill-typed deadline"
    "\x01{\"id\":1,\"op\":\"select\",\"kernel\":{\"named\":\"a\"},\"method\":\"greedy\",\"deadline_ms\":\"soon\"}";
  let rejects_reply what payload =
    check_bool what true (Result.is_error (Protocol.decode_reply payload))
  in
  rejects_reply "reply: unknown status" "\x01{\"id\":1,\"status\":\"maybe\"}";
  rejects_reply "reply: unknown error code"
    "\x01{\"id\":1,\"status\":\"error\",\"code\":\"teapot\",\"message\":\"m\"}";
  rejects_reply "reply: ok without fields" "\x01{\"id\":1,\"status\":\"ok\"}";
  (* Defaults that must keep working: pfus/penalty omitted. *)
  match
    Protocol.decode_request
      "\x01{\"id\":1,\"op\":\"select\",\"kernel\":{\"named\":\"a\"},\"method\":\"selective\"}"
  with
  | Ok { Protocol.body = `Select s; _ } ->
      check_bool "default pfus" true (s.Protocol.pfus = Some 2);
      check_int "default penalty" 10 s.Protocol.penalty
  | Ok _ | Error _ -> Alcotest.fail "minimal select must decode"

(* ---------- framed I/O over a pipe ---------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    (fun () -> f r w)
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())

let write_all fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

let test_frame_io () =
  (* Clean round-trip. *)
  with_pipe (fun r w ->
      (match Protocol.output_frame w "\x01hello" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "output_frame: %s" m);
      match Protocol.input_frame r with
      | Ok p -> check_string "payload round-trips" "\x01hello" p
      | Error _ -> Alcotest.fail "input_frame failed");
  (* EOF at a frame boundary is a clean close. *)
  with_pipe (fun r w ->
      Unix.close w;
      check_bool "eof" true (Protocol.input_frame r = Error `Eof));
  (* Disconnect mid-header. *)
  with_pipe (fun r w ->
      write_all w "\x00\x00";
      Unix.close w;
      match Protocol.input_frame r with
      | Error (`Truncated _) -> ()
      | _ -> Alcotest.fail "expected `Truncated for a 2-byte header");
  (* Disconnect mid-payload. *)
  with_pipe (fun r w ->
      write_all w "\x00\x00\x00\x10partial";
      Unix.close w;
      match Protocol.input_frame r with
      | Error (`Truncated msg) ->
          check_bool "reports byte counts" true
            (msg = "disconnect after 7 of 16 payload bytes")
      | _ -> Alcotest.fail "expected `Truncated for a short payload");
  (* Oversized and zero length prefixes are rejected before allocating. *)
  with_pipe (fun r w ->
      write_all w "\x7f\xff\xff\xff";
      match Protocol.input_frame r with
      | Error (`Oversized n) -> check_int "oversized length" 0x7fffffff n
      | _ -> Alcotest.fail "expected `Oversized");
  with_pipe (fun r w ->
      write_all w "\x00\x00\x00\x00";
      match Protocol.input_frame r with
      | Error (`Oversized 0) -> ()
      | _ -> Alcotest.fail "expected `Oversized 0 for an empty frame")

(* ---------- bounded queue ---------- *)

let test_squeue () =
  let q = Squeue.create ~capacity:2 in
  check_bool "push 1" true (Squeue.try_push q 1);
  check_bool "push 2" true (Squeue.try_push q 2);
  check_bool "full queue sheds" false (Squeue.try_push q 3);
  check_int "length" 2 (Squeue.length q);
  (* push_front bypasses capacity (requeued items were already
     admitted) and is served first. *)
  Squeue.push_front q 0;
  check_int "front overflows capacity" 3 (Squeue.length q);
  check_bool "front first" true (Squeue.pop q = Some 0);
  check_bool "fifo 1" true (Squeue.pop q = Some 1);
  check_bool "fifo 2" true (Squeue.pop q = Some 2);
  (* pop blocks until push: hand an item over from another thread. *)
  let got = ref None in
  let th = Thread.create (fun () -> got := Squeue.pop q) () in
  Thread.delay 0.02;
  check_bool "late push accepted" true (Squeue.try_push q 9);
  Thread.join th;
  check_bool "blocked pop woke" true (!got = Some 9);
  (* close: rejects pushes, drains the backlog, then yields None. *)
  check_bool "push before close" true (Squeue.try_push q 7);
  Squeue.close q;
  check_bool "push after close sheds" false (Squeue.try_push q 8);
  check_bool "drains backlog" true (Squeue.pop q = Some 7);
  check_bool "then closed" true (Squeue.pop q = None);
  check_bool "capacity >= 1 enforced" true
    (match Squeue.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- environment knobs ---------- *)

let test_env_backoff_scale () =
  with_env [ ("T1000_BACKOFF_SCALE", "") ] (fun () ->
      check_bool "unset -> 1.0" true (Pool.env_backoff_scale () = 1.0));
  with_env [ ("T1000_BACKOFF_SCALE", "0") ] (fun () ->
      check_bool "zero allowed" true (Pool.env_backoff_scale () = 0.0);
      check_bool "zero disables sleeping" true (Pool.backoff_delay 5 = 0.0));
  with_env [ ("T1000_BACKOFF_SCALE", "2") ] (fun () ->
      check_bool "scales the schedule" true
        (Pool.backoff_delay 0 = 0.002);
      (* the 50 ms cap applies before the scale *)
      check_bool "cap then scale" true (Pool.backoff_delay 30 = 0.1));
  with_env [ ("T1000_BACKOFF_SCALE", "-0.5") ] (fun () ->
      invalid_config Pool.env_backoff_scale);
  with_env [ ("T1000_BACKOFF_SCALE", "fast") ] (fun () ->
      invalid_config Pool.env_backoff_scale);
  with_env [ ("T1000_BACKOFF_SCALE", "nan") ] (fun () ->
      invalid_config Pool.env_backoff_scale)

(* ---------- config validation ---------- *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "t1000-test-%d-%d.sock" (Unix.getpid ()) !n)

(* [create] is the one check of a config's values: the CLI's flags
   reach it unchecked.  Each bad field is rejected before a socket is
   bound. *)
let rejects create what cfg =
  check_bool what true
    (match create cfg with
    | exception Fault.Error (Fault.Invalid_config _) -> true
    | _ -> false)

let test_server_create_rejects () =
  let path = fresh_sock () in
  let base =
    { (Server.default_config ()) with Server.addrs = [ Server.Unix_sock path ] }
  in
  let rejects = rejects Server.create in
  rejects "no address" { base with Server.addrs = [] };
  rejects "queue_depth = 0" { base with Server.queue_depth = 0 };
  rejects "njobs = 0" { base with Server.njobs = 0 };
  List.iter
    (fun d ->
      rejects
        (Printf.sprintf "default deadline %g" d)
        { base with Server.default_deadline_ms = Some d })
    [ 0.0; Float.infinity; Float.nan ];
  rejects "max_steps = 0" { base with Server.max_steps = 0 };
  check_bool "nothing bound" false (Sys.file_exists path)

let test_supervisor_create_rejects () =
  let module Sup = T1000_serve.Supervisor in
  let base = Sup.default_config () in
  let rejects = rejects Sup.create in
  rejects "replicas < 1" { base with Sup.replicas = 0 };
  rejects "negative budget" { base with Sup.restarts = -1 };
  rejects "non-positive period" { base with Sup.health_period_s = 0.0 };
  rejects "wedged_after < 1" { base with Sup.wedged_after = 0 }

let test_parse_addr () =
  check_bool "unix" true
    (Server.parse_addr "unix:/run/t.sock" = Ok (Server.Unix_sock "/run/t.sock"));
  check_bool "tcp" true
    (Server.parse_addr "tcp:127.0.0.1:8080"
    = Ok (Server.Tcp ("127.0.0.1", 8080)));
  check_bool "tcp port 0" true
    (Server.parse_addr "tcp:localhost:0" = Ok (Server.Tcp ("localhost", 0)));
  let bad s = check_bool s true (Result.is_error (Server.parse_addr s)) in
  bad "nonsense";
  bad "unix:";
  bad "tcp:localhost";
  bad "tcp::8080";
  bad "tcp:localhost:70000";
  bad "tcp:localhost:a";
  check_bool "round-trip" true
    (Server.parse_addr (Server.addr_to_string (Server.Tcp ("h", 9)))
    = Ok (Server.Tcp ("h", 9)))

(* ---------- request-level pool submission ---------- *)

let calm_env =
  [
    ("T1000_CHAOS", "");
    ("T1000_CHAOS_SEED", "");
    ("T1000_RETRIES", "");
    ("T1000_BACKOFF_SCALE", "");
  ]

let test_run_result () =
  with_env calm_env (fun () ->
      check_bool "ok value" true (Pool.run_result (fun () -> 6 * 7) = Ok 42);
      (match Pool.run_result (fun () -> failwith "boom") with
      | Error (Fault.Crashed _) -> ()
      | _ -> Alcotest.fail "exception must classify as Crashed");
      match Pool.run_result (fun () -> Fault.invalid_config "bad") with
      | Error (Fault.Invalid_config _) -> ()
      | _ -> Alcotest.fail "faults must pass through")

let test_run_result_chaos_deterministic () =
  let fates () =
    List.init 32 (fun i ->
        match Pool.run_result ~index:i ~retries:0 (fun () -> i) with
        | Ok _ -> true
        | Error (Fault.Injected _) -> false
        | Error f -> Alcotest.failf "unexpected fault: %s" (Fault.to_string f))
  in
  with_env
    (("T1000_CHAOS", "0.4")
    :: ("T1000_CHAOS_SEED", "11")
    :: ("T1000_BACKOFF_SCALE", "0")
    :: List.remove_assoc "T1000_CHAOS"
         (List.remove_assoc "T1000_CHAOS_SEED"
            (List.remove_assoc "T1000_BACKOFF_SCALE" calm_env)))
    (fun () ->
      let a = fates () in
      let b = fates () in
      check_bool "same seed, same fates" true (a = b);
      check_bool "some injections at p=0.4" true (List.mem false a);
      check_bool "some survivals at p=0.4" true (List.mem true a);
      (* With retries, every transient injection is absorbed. *)
      let retried =
        List.init 32 (fun i ->
            Pool.run_result ~index:i ~retries:16 (fun () -> i) = Ok i)
      in
      check_bool "retries absorb injections" true
        (List.for_all Fun.id retried));
  with_env calm_env (fun () ->
      check_bool "kill decision off without chaos" true
        (not (Pool.chaos_kill_worker ~index:3 ~pops:0)))

let test_chaos_kill_deterministic () =
  with_env
    [
      ("T1000_CHAOS", "0.8");
      ("T1000_CHAOS_SEED", "5");
      ("T1000_BACKOFF_SCALE", "0");
    ]
    (fun () ->
      let draw () =
        List.init 64 (fun i -> Pool.chaos_kill_worker ~index:i ~pops:(i mod 3))
      in
      let a = draw () in
      check_bool "deterministic" true (a = draw ());
      check_bool "fires at p/2=0.4" true (List.mem true a);
      check_bool "spares at p/2=0.4" true (List.mem false a))

(* ---------- memo probe ---------- *)

(* The LRU bound: completed bindings beyond the capacity are evicted
   least-recently-used first, with recency bumped on every hit, so the
   eviction order — and the recompute pattern of an identical lookup
   stream — is deterministic. *)
let test_memo_lru () =
  let computes = ref 0 in
  let m = Memo.create ~cap:2 4 in
  let get k =
    Memo.find_or_compute m k (fun () ->
        incr computes;
        String.length k)
  in
  check_int "a" 1 (get "a");
  check_int "bb" 2 (get "bb");
  check_int "two computes" 2 !computes;
  check_int "both cached" 2 (Memo.length m);
  (* Third insert evicts the least-recently-used binding: "a". *)
  check_int "ccc" 3 (get "ccc");
  check_int "capped" 2 (Memo.length m);
  check_int "one eviction" 1 (Memo.evictions m);
  check_bool "a evicted" true (Memo.find_opt m "a" = None);
  check_bool "bb survives" true (Memo.find_opt m "bb" = Some 2);
  (* A hit bumps recency: touch "bb", insert "dddd" -> "ccc" evicted. *)
  check_int "bb hit" 2 (get "bb");
  check_int "hit does not compute" 3 !computes;
  check_int "dddd" 4 (get "dddd");
  check_bool "ccc evicted (bb was fresher)" true (Memo.find_opt m "ccc" = None);
  check_bool "bb still cached" true (Memo.find_opt m "bb" = Some 2);
  check_int "two evictions" 2 (Memo.evictions m);
  (* Recomputing an evicted key is an ordinary miss. *)
  check_int "a again" 1 (get "a");
  check_int "recompute counted" 5 !computes

let test_memo_lru_deterministic () =
  let run () =
    let computes = ref 0 in
    let m = Memo.create ~cap:3 8 in
    let keys = [ "a"; "b"; "c"; "d"; "a"; "b"; "e"; "c"; "d"; "a"; "f" ] in
    let sizes =
      List.map
        (fun k ->
          ignore
            (Memo.find_or_compute m k (fun () ->
                 incr computes;
                 0));
          Memo.length m)
        keys
    in
    (!computes, Memo.evictions m, sizes)
  in
  check_bool "identical lookup stream, identical evictions" true
    (run () = run ())

let test_memo_pending_not_evicted () =
  let m = Memo.create ~cap:1 4 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let slow =
    Thread.create
      (fun () ->
        ignore
          (Memo.find_or_compute m "slow" (fun () ->
               Mutex.lock gate;
               Mutex.unlock gate;
               99)))
      ()
  in
  (* Give the thread time to claim the pending slot, then overflow the
     table: only completed bindings may be evicted. *)
  Thread.delay 0.05;
  check_int "k1" 1 (Memo.find_or_compute m "k1" (fun () -> 1));
  check_int "k2" 2 (Memo.find_or_compute m "k2" (fun () -> 2));
  check_int "k1 evicted for k2" 1 (Memo.evictions m);
  Mutex.unlock gate;
  Thread.join slow;
  (* The pending computation completed and was inserted; the cap then
     evicted the older completed binding, not the fresh one. *)
  check_bool "slow survived its own insertion" true
    (Memo.find_opt m "slow" = Some 99);
  check_int "still capped" 1 (Memo.length m);
  check_int "k2 evicted on slow's completion" 2 (Memo.evictions m)

let test_memo_env_cap () =
  with_env [ (Memo.env_var, "") ] (fun () ->
      check_bool "unset -> None" true (Memo.env_cap () = None));
  with_env [ (Memo.env_var, "64") ] (fun () ->
      check_bool "set" true (Memo.env_cap () = Some 64));
  with_env [ (Memo.env_var, "0") ] (fun () -> invalid_config Memo.env_cap);
  with_env [ (Memo.env_var, "-4") ] (fun () -> invalid_config Memo.env_cap);
  with_env [ (Memo.env_var, "lots") ] (fun () -> invalid_config Memo.env_cap);
  check_bool "create rejects cap 0" true
    (match Memo.create ~cap:0 4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [find_opt] is the serve daemon's one cache probe: a hit counts one
   hit and refreshes recency, a miss counts nothing (the
   [find_or_compute] after it counts the lookup). *)
let test_memo_find_opt () =
  let m = Memo.create ~name:"test_find_opt" 4 in
  let counts () =
    ( T1000_obs.Metrics.get "memo.test_find_opt.hits",
      T1000_obs.Metrics.get "memo.test_find_opt.misses" )
  in
  let h0, m0 = counts () in
  let delta () =
    let h, m = counts () in
    (h - h0, m - m0)
  in
  check_bool "miss" true (Memo.find_opt m "k" = None);
  check_bool "a miss counts nothing" true (delta () = (0, 0));
  check_int "compute" 5 (Memo.find_or_compute m "k" (fun () -> 5));
  check_bool "the compute counts one miss" true (delta () = (0, 1));
  check_bool "hit after compute" true (Memo.find_opt m "k" = Some 5);
  check_bool "a hit counts one hit" true (delta () = (1, 1));
  check_bool "other key still misses" true (Memo.find_opt m "j" = None);
  check_bool "still one hit, one miss" true (delta () = (1, 1));
  (* A hit refreshes recency: probe "a", insert "c" -> "b" evicted. *)
  let m = Memo.create ~cap:2 4 in
  let put k = ignore (Memo.find_or_compute m k (fun () -> String.length k)) in
  put "a";
  put "b";
  check_bool "probe a" true (Memo.find_opt m "a" = Some 1);
  put "c";
  check_int "one eviction" 1 (Memo.evictions m);
  check_bool "b evicted" true (Memo.find_opt m "b" = None);
  check_bool "a kept" true (Memo.find_opt m "a" = Some 1);
  check_bool "c kept" true (Memo.find_opt m "c" = Some 1)

(* ---------- end-to-end daemon sessions ---------- *)

let with_server ?(queue = 8) ?(njobs = 2) ?default_deadline_ms
    ?(max_steps = 10_000_000) f =
  with_env calm_env @@ fun () ->
  let path = fresh_sock () in
  let cfg =
    {
      Server.addrs = [ Server.Unix_sock path ];
      queue_depth = queue;
      njobs;
      default_deadline_ms;
      max_steps;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  Fun.protect
    (fun () -> f srv (Server.Unix_sock path))
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      try Unix.unlink path with Unix.Unix_error _ -> ())

let connect_exn addr =
  match Client.connect addr with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let request_exn c s =
  match Client.request c s with
  | Ok body -> body
  | Error msg -> Alcotest.failf "request: %s" msg

let tiny_asm ?(salt = "") () =
  Protocol.Asm
    {
      name = "tiny";
      text =
        Printf.sprintf
          "# %s\n    addui r1, r0, 5\nloop:\n    subui r1, r1, 1\n    bgtz \
           r1, loop\n    halt\n"
          salt;
    }

(* ~0.5 s of simulation: [loops] * 2^16 loop iterations (2^19 by
   default).  [salt] defeats the cross-request result cache (the kernel
   digest keys it), so each use really simulates. *)
let slow_asm ?(salt = "") ?(loops = 8) () =
  Protocol.Asm
    {
      name = "slow";
      text =
        Printf.sprintf
          "# %s\n    lui r2, %d\n    addui r1, r0, 0\nloop:\n    addui r1, \
           r1, 1\n    bne r1, r2, loop\n    halt\n"
          salt loops;
    }

let test_e2e_basics () =
  with_server @@ fun srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.ping c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "ping: %s" m);
  (* Baseline method: no extended instructions, speedup exactly 1. *)
  (match request_exn c (sel ~method_:`Baseline ()) with
  | `Outcome o ->
      check_bool "baseline speedup" true (o.Protocol.speedup = 1.0);
      check_int "baseline ext" 0 o.Protocol.ext_count;
      check_int "baseline lut" 0 o.Protocol.lut_cost;
      check_int "baseline cycles" o.Protocol.baseline_cycles o.Protocol.cycles
  | _ -> Alcotest.fail "expected an outcome");
  (* Selective run, then the same request again: byte-identical numbers,
     served from the cross-request result cache the second time. *)
  let first = request_exn c (sel ()) in
  let second = request_exn c (sel ()) in
  (match (first, second) with
  | `Outcome a, `Outcome b ->
      check_bool "speedup > 1 on unepic" true (a.Protocol.speedup > 1.0);
      check_bool "cold" true (not a.Protocol.cached);
      check_bool "warm" true b.Protocol.cached;
      check_bool "identical numbers" true
        ({ a with Protocol.cached = false }
        = { b with Protocol.cached = false })
  | _ -> Alcotest.fail "expected outcomes");
  (* A client-submitted assembler kernel through the Asm_text front
     end. *)
  (match request_exn c (sel ~kernel:(tiny_asm ()) ~method_:`Greedy ()) with
  | `Outcome o -> check_int "tiny kernel cycles" 80 o.Protocol.cycles
  | _ -> Alcotest.fail "expected an outcome for the asm kernel");
  check_bool "served at least 4" true (Server.answered srv >= 4)

let test_e2e_fault_isolation () =
  with_server @@ fun _srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Poisoned requests: each yields a typed error reply, and the daemon
     keeps serving on the same connection. *)
  (match request_exn c (sel ~kernel:(Protocol.Named "nosuch") ()) with
  | `Error (Protocol.Invalid, msg) ->
      check_bool "names the workload" true
        (contains ~affix:"nosuch" msg
        || String.length msg > 0)
  | _ -> Alcotest.fail "unknown workload must be Invalid");
  (match
     request_exn c
       (sel ~kernel:(Protocol.Asm { name = "bad"; text = "florble r1\n" }) ())
   with
  | `Error (Protocol.Invalid, _) -> ()
  | _ -> Alcotest.fail "unparsable asm must be Invalid");
  (match request_exn c (sel ~penalty:(-4) ()) with
  | `Error (Protocol.Invalid, _) -> ()
  | _ -> Alcotest.fail "negative penalty must be Invalid");
  (match request_exn c (sel ~max_cycles:0 ()) with
  | `Error (Protocol.Invalid, _) -> ()
  | _ -> Alcotest.fail "max_cycles 0 must be Invalid");
  (* A non-halting kernel trips the functional step cap, not a wedged
     worker. *)
  (match
     request_exn c
       (sel
          ~kernel:
            (Protocol.Asm { name = "spin"; text = "loop:\n    j loop\n" })
          ())
   with
  | `Error (Protocol.Faulted, _) -> ()
  | _ -> Alcotest.fail "non-halting kernel must be a typed fault");
  (* ...and the daemon still answers. *)
  match request_exn c (sel ~kernel:(tiny_asm ()) ()) with
  | `Outcome _ -> ()
  | _ -> Alcotest.fail "daemon must keep serving after poisoned requests"

(* A cycle budget far below what unepic needs: the sim watchdog trips
   and its RUU/PFU diagnostic snapshot rides back in the reply.
   [T1000_MAX_CYCLES] only caps budgets, so a daemon started under a
   generous one still honours the request's own. *)
let test_e2e_sim_budget_timeout () =
  let budget_timeout () =
    with_server @@ fun _srv addr ->
    let c = connect_exn addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match request_exn c (sel ~max_cycles:500 ()) with
    | `Error (Protocol.Timeout, msg) ->
        check_bool "carries the watchdog diagnosis" true
          (contains ~affix:"stuck" msg);
        check_bool "carries RUU occupancy" true
          (contains ~affix:"RUU" msg
          || contains ~affix:"ruu" msg)
    | `Error (c', m) ->
        Alcotest.failf "expected Timeout, got %s: %s"
          (Protocol.string_of_code c') m
    | _ -> Alcotest.fail "expected a typed timeout"
  in
  budget_timeout ();
  with_env [ ("T1000_MAX_CYCLES", "1000000000") ] budget_timeout

let test_e2e_deadline () =
  with_server @@ fun _srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match
    request_exn c (sel ~kernel:(slow_asm ~salt:"deadline" ()) ~deadline_ms:40.0 ())
  with
  | `Error (Protocol.Timeout, msg) ->
      let waited = (Unix.gettimeofday () -. t0) *. 1e3 in
      check_bool "deadline reply text" true
        (contains ~affix:"deadline" msg);
      (* The server answered from its timer, not after the ~500 ms
         simulation finished. *)
      check_bool "answered near the deadline" true (waited < 400.0)
  | `Error (c', m) ->
      Alcotest.failf "expected Timeout, got %s: %s"
        (Protocol.string_of_code c') m
  | _ -> Alcotest.fail "expected a wall-clock timeout"

let test_e2e_shedding () =
  (* One worker, one queue slot: a slow request occupies the worker,
     one more waits, and everything past that is shed with a typed
     Overloaded reply — immediately, never blocking the client. *)
  with_server ~queue:1 ~njobs:1 @@ fun _srv addr ->
  let slow_done = ref false in
  let slow_th =
    Thread.create
      (fun () ->
        let c = connect_exn addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        (match request_exn c (sel ~kernel:(slow_asm ~salt:"shed0" ()) ()) with
        | `Outcome _ -> ()
        | `Error (c', m) ->
            Alcotest.failf "slow request failed: %s %s"
              (Protocol.string_of_code c') m
        | _ -> Alcotest.fail "unexpected reply");
        slow_done := true)
      ()
  in
  Thread.delay 0.15 (* let the slow request reach the worker *);
  let outcomes = Array.make 4 None in
  let shed_start = Unix.gettimeofday () in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let c = connect_exn addr in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            outcomes.(i) <-
              Some
                (request_exn c
                   (sel ~kernel:(slow_asm ~salt:(string_of_int i) ()) ())))
          ())
  in
  List.iter Thread.join threads;
  Thread.join slow_th;
  let elapsed = Unix.gettimeofday () -. shed_start in
  let shed, other =
    Array.fold_left
      (fun (s, o) r ->
        match r with
        | Some (`Error (Protocol.Overloaded, _)) -> (s + 1, o)
        | Some _ -> (s, o + 1)
        | None -> Alcotest.fail "a request got no reply")
      (0, 0) outcomes
  in
  check_bool "every request answered" true (shed + other = 4);
  check_bool "at least two shed (queue depth 1, one worker)" true (shed >= 2);
  check_bool "slow request survived the storm" true !slow_done;
  (* Shed replies must not have waited behind the ~0.5 s simulations;
     the whole storm (including the queued follow-up) clears quickly. *)
  check_bool "sheds were immediate" true (elapsed < 10.0)

let test_e2e_malformed_wire () =
  with_server @@ fun _srv addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* Garbage version byte: typed malformed reply, then the connection
     is closed. *)
  let fd = raw () in
  write_all fd (Protocol.frame "\x7f{\"id\":1,\"op\":\"ping\"}");
  (match Protocol.input_frame fd with
  | Ok payload -> (
      match Protocol.decode_reply payload with
      | Ok { Protocol.rid = 0; body = `Error (Protocol.Malformed, msg) } ->
          check_bool "names the version" true
            (contains ~affix:"version" msg)
      | Ok _ -> Alcotest.fail "expected a malformed-error reply"
      | Error m -> Alcotest.failf "reply must decode: %s" m)
  | Error e ->
      Alcotest.failf "expected a reply, got %s"
        (Format.asprintf "%a" Protocol.pp_io_error e));
  (match Protocol.input_frame fd with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "server must close after a malformed frame");
  Unix.close fd;
  (* Oversized length prefix: rejected without allocating, typed
     reply. *)
  let fd = raw () in
  write_all fd "\x7f\xff\xff\xff";
  (match Protocol.input_frame fd with
  | Ok payload -> (
      match Protocol.decode_reply payload with
      | Ok { Protocol.body = `Error (Protocol.Malformed, msg); _ } ->
          check_bool "names the limit" true
            (contains ~affix:"oversized" msg)
      | _ -> Alcotest.fail "expected a malformed-error reply")
  | Error _ -> Alcotest.fail "expected an oversized-frame reply");
  Unix.close fd;
  (* Mid-frame disconnect: no reply possible; the daemon just keeps
     serving everyone else. *)
  let fd = raw () in
  write_all fd "\x00\x00\x00\x10half";
  Unix.close fd;
  Thread.delay 0.05;
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.ping c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon died after a truncated frame: %s" m

let test_e2e_chaos_soak () =
  (* An adversarial session: fault injection plus worker kills, every
     request still answered correct-or-typed-error, nothing dropped,
     and the daemon drains cleanly afterwards. *)
  let injected0, killed0 = Pool.chaos_events () in
  with_env
    [
      ("T1000_CHAOS", "0.3");
      ("T1000_CHAOS_SEED", "1905");
      ("T1000_BACKOFF_SCALE", "0");
      ("T1000_RETRIES", "");
    ]
    (fun () ->
      let path = fresh_sock () in
      let srv =
        Server.create
          {
            Server.addrs = [ Server.Unix_sock path ];
            queue_depth = 16;
            njobs = 2;
            default_deadline_ms = None;
            max_steps = 10_000_000;
          }
      in
      let th = Thread.create Server.run srv in
      Fun.protect ~finally:(fun () ->
          Server.stop srv;
          Thread.join th;
          try Unix.unlink path with Unix.Unix_error _ -> ())
      @@ fun () ->
      let per_conn = 6 and conns = 3 in
      let replies = Array.make (conns * per_conn) None in
      let clients =
        List.init conns (fun ci ->
            Thread.create
              (fun () ->
                let c = connect_exn (Server.Unix_sock path) in
                Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
                for r = 0 to per_conn - 1 do
                  let s =
                    match r mod 3 with
                    | 0 -> sel ~kernel:(tiny_asm ~salt:(string_of_int ci) ()) ()
                    | 1 -> sel ()
                    | _ -> sel ~kernel:(Protocol.Named "nosuch") ()
                  in
                  replies.((ci * per_conn) + r) <- Some (request_exn c s)
                done)
              ())
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "request %d dropped" i
          | Some (`Outcome _) | Some `Pong | Some (`Health _) -> ()
          | Some (`Error (code, msg)) ->
              (* Typed errors only; under retries the transient
                 injections should all have been absorbed, so what is
                 left is the deliberately poisoned workload. *)
              check_bool
                (Printf.sprintf "request %d typed (%s)" i msg)
                true
                (code = Protocol.Invalid || code = Protocol.Faulted))
        replies;
      check_int "every request answered" (conns * per_conn)
        (Array.length replies));
  let injected1, _killed1 = Pool.chaos_events () in
  ignore killed0;
  check_bool "chaos actually injected faults" true (injected1 > injected0)

let test_e2e_drain_in_flight () =
  with_env calm_env @@ fun () ->
  let path = fresh_sock () in
  let srv =
    Server.create
      {
        Server.addrs = [ Server.Unix_sock path ];
        queue_depth = 8;
        njobs = 1;
        default_deadline_ms = None;
        max_steps = 10_000_000;
      }
  in
  let th = Thread.create Server.run srv in
  let reply = ref None in
  let client_th =
    Thread.create
      (fun () ->
        let c = connect_exn (Server.Unix_sock path) in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        reply :=
          Some (request_exn c (sel ~kernel:(slow_asm ~salt:"drain" ()) ())))
      ()
  in
  Thread.delay 0.15 (* the slow request is now in flight *);
  Server.stop srv;
  Thread.join th (* run returns only when drained *);
  Thread.join client_th;
  (match !reply with
  | Some (`Outcome _) -> ()
  | Some _ -> Alcotest.fail "in-flight request must complete normally"
  | None -> Alcotest.fail "in-flight request dropped during drain");
  check_bool "socket unlinked after drain" true (not (Sys.file_exists path));
  (* Requests after drain are refused at connect time. *)
  match Client.connect (Server.Unix_sock path) with
  | Error _ -> ()
  | Ok c ->
      Client.close c;
      Alcotest.fail "daemon still listening after drain"

let test_e2e_tcp () =
  with_env calm_env @@ fun () ->
  (* TCP with an ephemeral port, resolved by bound_addrs. *)
  let srv =
    Server.create
      {
        Server.addrs = [ Server.Tcp ("127.0.0.1", 0) ];
        queue_depth = 4;
        njobs = 1;
        default_deadline_ms = None;
        max_steps = 10_000_000;
      }
  in
  let addr =
    match Server.bound_addrs srv with
    | [ (Server.Tcp (_, port) as a) ] ->
        check_bool "ephemeral port resolved" true (port > 0);
        a
    | _ -> Alcotest.fail "expected one bound tcp address"
  in
  let th = Thread.create Server.run srv in
  Fun.protect ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
  @@ fun () ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match request_exn c (sel ~kernel:(tiny_asm ~salt:"tcp" ()) ()) with
  | `Outcome o -> check_int "tcp outcome" 80 o.Protocol.cycles
  | _ -> Alcotest.fail "expected an outcome over tcp"

(* ---------- health ---------- *)

let test_e2e_health () =
  with_server ~queue:8 ~njobs:2 @@ fun srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.health c with
  | Error m -> Alcotest.failf "health: %s" m
  | Ok h ->
      (* The with_server daemon runs in-process. *)
      check_int "pid" (Unix.getpid ()) h.Protocol.pid;
      check_int "queue cap" 8 h.Protocol.queue_cap;
      check_int "workers" 2 h.Protocol.workers;
      check_bool "uptime sane" true
        (h.Protocol.uptime_s >= 0.0 && h.Protocol.uptime_s < 3600.0);
      check_bool "memo tables listed" true
        (List.map fst h.Protocol.memo_sizes
        = [ "analysis"; "run"; "tables"; "results" ]));
  (match request_exn c (sel ~kernel:(tiny_asm ()) ()) with
  | `Outcome _ -> ()
  | _ -> Alcotest.fail "expected an outcome");
  (match Client.health c with
  | Error m -> Alcotest.failf "health: %s" m
  | Ok h ->
      check_bool "answered counted" true (h.Protocol.answered >= 2);
      check_bool "memo warmed" true
        (List.exists (fun (_, n) -> n > 0) h.Protocol.memo_sizes));
  check_bool "matches in-process snapshot" true
    ((Server.health srv).Protocol.queue_cap = 8)

(* Poll until [ok] holds.  [lost] names a request whose completion
   would make [ok] unreachable: once it is done, the poll fails at once
   with a "precondition lost" message, not with a timeout. *)
let wait_health ?lost srv what ok =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec poll () =
    let h = Server.health srv in
    if not (ok h) then begin
      Option.iter
        (fun (request, done_) ->
          if Atomic.get done_ then
            Alcotest.failf
              "precondition lost: %s finished before the test saw %s"
              request what)
        lost;
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "never saw %s (inflight %d, queue %d)" what
          h.Protocol.inflight h.Protocol.queue_len;
      Thread.delay 0.001;
      poll ()
    end
  in
  poll ()

let slow_request ?loops addr salt done_ =
  Thread.create
    (fun () ->
      let c = connect_exn addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ignore (Client.request c (sel ~kernel:(slow_asm ~salt ?loops ()) ()));
      Atomic.set done_ true)
    ()

(* [`Health] must bypass the admission queue: with the one worker and
   the whole queue occupied by a slow request, a health probe on a
   second connection still answers while the slow request is running. *)
let test_e2e_health_bypasses_queue () =
  with_server ~queue:1 ~njobs:1 @@ fun srv addr ->
  let slow_done = Atomic.make false in
  let slow = slow_request addr "" slow_done in
  (* Probe as soon as the slow request is admitted: it simulates for
     under 0.1 s on a fast host, so a fixed delay can outlast it. *)
  wait_health srv "the slow request admitted" (fun h ->
      h.Protocol.inflight > 0);
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.health c with
      | Error m -> Alcotest.failf "health under load: %s" m
      | Ok h ->
          check_bool "answered while the worker was busy" true
            (not (Atomic.get slow_done));
          check_bool "saw the in-flight request" true (h.Protocol.inflight >= 1));
  Thread.join slow

(* A reply the cache already holds is answered at admission: with the
   worker busy and the one queue slot taken, a warm key still comes back
   at once, not shed as Overloaded. *)
let test_e2e_cached_bypasses_queue () =
  (* The first slow request runs 2 * 128 * 2^16 instructions (about 2 s
     on a 2-vCPU host), more than the default step cap. *)
  with_server ~queue:1 ~njobs:1 ~max_steps:20_000_000 @@ fun srv addr ->
  let warm = sel ~kernel:(tiny_asm ~salt:"bypass" ()) () in
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match request_exn c warm with
  | `Outcome o -> check_bool "first request is cold" false o.Protocol.cached
  | _ -> Alcotest.fail "expected an outcome");
  let first_done = Atomic.make false and second_done = Atomic.make false in
  (* Sixteen times the default loop: the worker must stay busy, through
     any scheduler stall, while the second request is retried into the
     queue and the warm key is answered. *)
  let first = slow_request ~loops:128 addr "bypass1" first_done in
  let lost = ("the first slow request", first_done) in
  wait_health ~lost srv "the first slow request admitted" (fun h ->
      h.Protocol.inflight = 1);
  (* The second is shed if it reaches the queue before the worker has
     popped the first; it then tries again. *)
  let second =
    Thread.create
      (fun () ->
        let c = connect_exn addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let slow = sel ~kernel:(slow_asm ~salt:"bypass2" ()) () in
        let rec go () =
          match request_exn c slow with
          | `Error (Protocol.Overloaded, _) ->
              Thread.delay 0.001;
              go ()
          | _ -> Atomic.set second_done true
        in
        go ())
      ()
  in
  wait_health ~lost srv "both slow requests in flight, the queue full"
    (fun h ->
      h.Protocol.inflight = 2 && h.Protocol.queue_len = 1);
  let c3 = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c3) (fun () ->
      match request_exn c3 warm with
      | `Outcome o ->
          check_bool "answered while the first was running" true
            (not (Atomic.get first_done));
          check_bool "served from the cache" true o.Protocol.cached
      | `Error (code, m) ->
          Alcotest.failf "warm key not answered: %s %s"
            (Protocol.string_of_code code) m
      | _ -> Alcotest.fail "expected an outcome");
  Thread.join first;
  Thread.join second;
  check_bool "both slow requests answered" true
    (Atomic.get first_done && Atomic.get second_done)

(* The admission lookup comes after the in-band checks: a warm key with
   a bad deadline is still the caller's error, and a warm key that
   arrives while the server drains is still shed. *)
let test_e2e_cached_in_band_errors () =
  with_server ~njobs:1 @@ fun srv addr ->
  let warm ?deadline_ms () =
    sel ~kernel:(tiny_asm ~salt:"inband" ()) ?deadline_ms ()
  in
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (request_exn c (warm ()));
  (match request_exn c (warm ()) with
  | `Outcome o -> check_bool "warm" true o.Protocol.cached
  | _ -> Alcotest.fail "expected an outcome");
  (match request_exn c (warm ~deadline_ms:(-1.) ()) with
  | `Error (Protocol.Invalid, msg) ->
      check_bool "names the deadline" true (contains ~affix:"deadline" msg)
  | _ -> Alcotest.fail "a bad deadline on a warm key must be Invalid");
  (* A slow request in flight holds the drain open, so this connection
     is still served when the warm key arrives. *)
  let slow_done = Atomic.make false in
  let slow = slow_request ~loops:32 addr "inband" slow_done in
  wait_health srv "the slow request admitted" (fun h ->
      h.Protocol.inflight >= 1);
  Server.stop srv;
  (match request_exn c (warm ()) with
  | `Error (Protocol.Overloaded, msg) ->
      check_bool "names the drain" true (contains ~affix:"draining" msg)
  | _ -> Alcotest.fail "a warm key must be shed while draining");
  Thread.join slow;
  check_bool "the admitted request was answered" true (Atomic.get slow_done)

(* ---------- memo cap end-to-end ---------- *)

let test_e2e_memo_cap () =
  with_env [ (Memo.env_var, "1") ] @@ fun () ->
  with_server @@ fun srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let outcome k =
    match request_exn c (sel ~kernel:k ()) with
    | `Outcome o -> o
    | _ -> Alcotest.fail "expected an outcome"
  in
  let a1 = outcome (tiny_asm ~salt:"a" ()) in
  let _ = outcome (tiny_asm ~salt:"b" ()) in
  let _ = outcome (tiny_asm ~salt:"c" ()) in
  let h = Server.health srv in
  check_bool "evictions happened" true (h.Protocol.memo_evictions > 0);
  List.iter
    (fun (name, n) ->
      check_bool (Printf.sprintf "table %s within cap" name) true (n <= 1))
    h.Protocol.memo_sizes;
  (* An evicted kernel recomputes to byte-identical numbers — eviction
     may cost latency, never correctness. *)
  let a2 = outcome (tiny_asm ~salt:"a" ()) in
  check_bool "recompute is cold" true (not a2.Protocol.cached);
  check_bool "recompute byte-identical" true
    ({ a1 with Protocol.cached = false } = { a2 with Protocol.cached = false })

(* ---------- one evaluation path ---------- *)

(* The request's numbers recomputed on a fresh Experiment ctx, with
   the kernel resolved here rather than by the server: a registry name,
   or an assembler kernel as a workload named by its digest. *)
let recompute (s : Protocol.select) =
  let module R = T1000.Runner in
  let w =
    match s.Protocol.kernel with
    | Protocol.Named n -> Option.get (T1000_workloads.Registry.find n)
    | Protocol.Asm { name; text } ->
        {
          T1000_workloads.Workload.name =
            "asm:" ^ Digest.to_hex (Digest.string text);
          description = "test kernel";
          program = T1000_asm.Asm_text.parse_exn ~name text;
          init = (fun _ _ -> ());
          out_base = T1000_workloads.Kit.out_base;
          out_len = 0;
        }
  in
  let method_ =
    match s.Protocol.method_ with
    | `Baseline -> R.Baseline
    | `Greedy -> R.Greedy
    | `Selective -> R.Selective
  in
  let setup = R.setup ~n_pfus:s.Protocol.pfus ~penalty:s.Protocol.penalty method_ in
  let ctx = T1000.Experiment.create_ctx ~workloads:[] () in
  let r = T1000.Experiment.run_setup ctx w setup in
  let base = T1000.Experiment.baseline_for ctx w setup.R.machine in
  ( r.R.stats.T1000_ooo.Stats.cycles,
    base.R.stats.T1000_ooo.Stats.cycles,
    T1000_select.Extinstr.count r.R.table,
    R.speedup ~baseline:base r )

let test_e2e_recompute () =
  with_server @@ fun _srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (label, s) ->
      match request_exn c s with
      | `Outcome o ->
          check_bool (label ^ " equals a fresh ctx") true
            (( o.Protocol.cycles,
               o.Protocol.baseline_cycles,
               o.Protocol.ext_count,
               o.Protocol.speedup )
            = recompute s)
      | _ -> Alcotest.failf "%s: expected an outcome" label)
    [
      ("registry kernel", sel ~penalty:20 ());
      ("asm kernel", sel ~kernel:(tiny_asm ~salt:"recompute" ()) ~method_:`Greedy ());
    ]

(* Greedy and selective with unlimited PFUs pick the same table on
   unepic: the ctx's input-keyed run memo simulates it once for both. *)
let test_e2e_shared_simulation () =
  with_server @@ fun _srv addr ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let outcome s =
    match request_exn c s with
    | `Outcome o -> o
    | _ -> Alcotest.fail "expected an outcome"
  in
  let penalty = 7 in
  let _ = outcome (sel ~method_:`Baseline ~penalty ()) in
  let calls = T1000_obs.Metrics.get "phase.sim.calls" in
  let g = outcome (sel ~method_:`Greedy ~pfus:None ~penalty ()) in
  let s = outcome (sel ~method_:`Selective ~pfus:None ~penalty ()) in
  check_int "one simulation for both requests" (calls + 1)
    (T1000_obs.Metrics.get "phase.sim.calls");
  check_int "same cycles" g.Protocol.cycles s.Protocol.cycles;
  check_bool "neither came from the reply cache" true
    ((not g.Protocol.cached) && not s.Protocol.cached)

(* ---------- stale socket replacement ---------- *)

let test_stale_socket () =
  with_env calm_env @@ fun () ->
  let path = fresh_sock () in
  (* Fabricate the stale socket a SIGKILLed daemon leaves behind. *)
  let orphan = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind orphan (Unix.ADDR_UNIX path);
  Unix.close orphan;
  check_bool "stale socket on disk" true
    ((Unix.lstat path).Unix.st_kind = Unix.S_SOCK);
  let cfg =
    {
      Server.addrs = [ Server.Unix_sock path ];
      queue_depth = 4;
      njobs = 1;
      default_deadline_ms = None;
      max_steps = 10_000_000;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  Fun.protect ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  let c = connect_exn (Server.Unix_sock path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_bool "daemon replaced the stale socket and serves" true
    (Client.ping c = Ok ());
  (* A non-socket file at the path is preserved, not clobbered. *)
  let regular = fresh_sock () in
  Out_channel.with_open_text regular (fun oc ->
      Out_channel.output_string oc "precious\n");
  Fun.protect ~finally:(fun () ->
      try Unix.unlink regular with Unix.Unix_error _ -> ())
  @@ fun () ->
  check_bool "refuses to unlink a regular file" true
    (match Server.create { cfg with Server.addrs = [ Server.Unix_sock regular ] } with
    | exception Fault.Error (Fault.Invalid_config _) -> true
    | srv2 ->
        Server.stop srv2;
        false);
  check_bool "file untouched" true
    (In_channel.with_open_text regular In_channel.input_all = "precious\n")

(* ---------- failover client ---------- *)

(* Two independent daemons in-process; requests spread round-robin, and
   stopping one replica moves its share to the other with zero request
   failures. *)
let test_failover_spread_and_failover () =
  with_server ~queue:16 ~njobs:1 @@ fun srv_a addr_a ->
  with_server ~queue:16 ~njobs:1 @@ fun srv_b addr_b ->
  let fo = Client.Failover.create [ addr_a; addr_b ] in
  Fun.protect ~finally:(fun () -> Client.Failover.close fo) @@ fun () ->
  check_int "endpoints" 2 (Client.Failover.endpoints fo);
  (match Client.Failover.ping fo with
  | Ok () -> ()
  | Error m -> Alcotest.failf "failover ping: %s" m);
  for i = 1 to 8 do
    match Client.Failover.request fo (sel ~kernel:(tiny_asm ()) ()) with
    | Ok (`Outcome _) -> ()
    | Ok _ -> Alcotest.failf "request %d: expected an outcome" i
    | Error m -> Alcotest.failf "request %d: %s" i m
  done;
  let a0 = Server.answered srv_a and b0 = Server.answered srv_b in
  check_bool "round-robin reached both replicas" true (a0 > 0 && b0 > 0);
  (* Kill replica A (graceful here; the process-level SIGKILL drill
     lives in the supervisor tests) and keep requesting: every request
     must still succeed via replica B. *)
  Server.stop srv_a;
  for i = 1 to 6 do
    match Client.Failover.request fo (sel ~kernel:(tiny_asm ()) ()) with
    | Ok (`Outcome _) -> ()
    | Ok (`Error (code, m)) ->
        Alcotest.failf "request %d after kill: error[%s] %s" i
          (Protocol.string_of_code code)
          m
    | Ok _ -> Alcotest.failf "request %d after kill: unexpected reply" i
    | Error m -> Alcotest.failf "request %d after kill: %s" i m
  done;
  check_bool "replica B absorbed the failover" true
    (Server.answered srv_b > b0)

(* A replica that answers slower than the receive timeout: the request
   is retried (same id, same connection), the late duplicate replies
   are dropped by id — never surfaced as the answer to a newer
   request. *)
let test_failover_timeout_dedup () =
  with_server ~queue:16 ~njobs:1 @@ fun _srv addr ->
  (* Time one cold slow request (its own salt, so nothing is cached for
     the one below), then set the receive timeout to a third of that:
     at least one receive times out and is re-sent before a reply
     lands, however fast the simulator is. *)
  let slow_s =
    let c = connect_exn addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    ignore (request_exn c (sel ~kernel:(slow_asm ~salt:"dd-probe" ()) ()));
    Unix.gettimeofday () -. t0
  in
  let fo = Client.Failover.create ~cycles:8 ~timeout_s:(slow_s /. 3.0) [ addr ] in
  Fun.protect ~finally:(fun () -> Client.Failover.close fo) @@ fun () ->
  (match Client.Failover.request fo (sel ~kernel:(slow_asm ~salt:"dd" ()) ()) with
  | Ok (`Outcome o) -> check_bool "slow outcome" true (o.Protocol.cycles > 0)
  | Ok _ -> Alcotest.fail "expected an outcome"
  | Error m -> Alcotest.failf "slow request: %s" m);
  (* The duplicate sends above left duplicate replies in flight on the
     kept connection; the next request must skip them all and get its
     own answer. *)
  (match Client.Failover.request fo (sel ~kernel:(tiny_asm ~salt:"dd2" ()) ()) with
  | Ok (`Outcome o) -> check_int "tiny after dup backlog" 80 o.Protocol.cycles
  | Ok _ -> Alcotest.fail "expected an outcome"
  | Error m -> Alcotest.failf "request after dups: %s" m);
  check_bool "late duplicates were dropped by id" true
    (Client.Failover.dropped_duplicates fo >= 1)

(* ---------- the supervised tier (real child processes) ---------- *)

let cli_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "t1000_cli.exe"))

module Sup = T1000_serve.Supervisor

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "t1000-sup-test-%d-%d" (Unix.getpid ()) !n)

let sup_config ?(replicas = 3) ?(restarts = 5) ?(health_period_s = 0.2)
    ?(health_timeout_s = 0.5) ?(wedged_after = 100) ?(serve_args = []) () =
  {
    Sup.exe = cli_exe;
    replicas;
    socket_dir = fresh_dir ();
    restarts;
    health_period_s;
    health_timeout_s;
    wedged_after;
    drain_grace_s = 10.0;
    serve_args = (if serve_args = [] then [ "--jobs"; "1" ] else serve_args);
  }

let with_supervisor cfg f =
  with_env calm_env @@ fun () ->
  let sup = Sup.create cfg in
  let th = Thread.create Sup.run sup in
  Fun.protect
    (fun () -> f sup)
    ~finally:(fun () ->
      Sup.stop sup;
      Thread.join th)

let wait_until ?(timeout_s = 20.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* The acceptance drill: three replicas under concurrent load, one
   SIGKILLed mid-load.  The failover clients must complete every
   request with zero drops, the supervisor must respawn the victim, and
   the merged replies must be byte-identical to a single-daemon run of
   the same request set. *)
let test_supervisor_crash_drill () =
  (* Reference replies from a single in-process daemon. *)
  let n_clients = 3 and per_client = 8 in
  let kernel_of ci r = tiny_asm ~salt:(Printf.sprintf "drill-%d-%d" ci r) () in
  let reference = Hashtbl.create 32 in
  with_server ~queue:64 ~njobs:2 (fun _srv addr ->
      let c = connect_exn addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for ci = 0 to n_clients - 1 do
        for r = 0 to per_client - 1 do
          match request_exn c (sel ~kernel:(kernel_of ci r) ()) with
          | `Outcome o ->
              Hashtbl.replace reference (ci, r)
                { o with Protocol.cached = false }
          | _ -> Alcotest.fail "reference run must produce outcomes"
        done
      done);
  let cfg = sup_config ~serve_args:[ "--jobs"; "1"; "--queue"; "32" ] () in
  with_supervisor cfg @@ fun sup ->
  (match Sup.wait_ready ~timeout_s:20.0 sup with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tier not ready: %s" m);
  let addrs = Sup.sockets sup in
  let replies = Array.make (n_clients * per_client) None in
  let started = Atomic.make 0 in
  let clients =
    List.init n_clients (fun ci ->
        Thread.create
          (fun () ->
            let fo = Client.Failover.create ~cycles:8 addrs in
            Fun.protect ~finally:(fun () -> Client.Failover.close fo)
            @@ fun () ->
            for r = 0 to per_client - 1 do
              Atomic.incr started;
              match Client.Failover.request fo (sel ~kernel:(kernel_of ci r) ()) with
              | Ok body -> replies.((ci * per_client) + r) <- Some body
              | Error _ -> ()
            done)
          ())
  in
  (* Wait until the load is genuinely in flight, then murder one
     replica outright. *)
  wait_until "load in flight" (fun () -> Atomic.get started >= n_clients);
  let victim = List.nth (Sup.pids sup) 0 in
  check_bool "victim pid sane" true (victim > 0);
  Unix.kill victim Sys.sigkill;
  List.iter Thread.join clients;
  (* Zero drops: every request answered with the reference outcome. *)
  Array.iteri
    (fun i r ->
      let ci = i / per_client and rq = i mod per_client in
      match r with
      | None -> Alcotest.failf "request %d.%d dropped" ci rq
      | Some (`Outcome o) ->
          check_bool
            (Printf.sprintf "request %d.%d byte-identical to single-daemon"
               ci rq)
            true
            (Some { o with Protocol.cached = false }
            = Hashtbl.find_opt reference (ci, rq))
      | Some (`Error (code, msg)) ->
          Alcotest.failf "request %d.%d failed: error[%s] %s" ci rq
            (Protocol.string_of_code code)
            msg
      | Some _ -> Alcotest.failf "request %d.%d: unexpected reply" ci rq)
    replies;
  (* The victim was respawned within the restart budget. *)
  wait_until "respawn" (fun () -> Sup.restarts_total sup >= 1);
  (match Sup.wait_ready ~timeout_s:20.0 sup with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tier not ready after respawn: %s" m);
  check_bool "no replica gave up" true (not (Sup.gave_up sup));
  check_bool "the kill is in the incident log" true
    (List.exists
       (function
         | Fault.Supervisor m -> contains ~affix:"SIGKILL" m
         | _ -> false)
       (Sup.faults sup))

(* A wedged replica (SIGSTOP: alive, accepting connections, never
   answering) must be detected by the timeout-bounded health probes,
   put down, and restarted. *)
let test_supervisor_wedge_detection () =
  let cfg =
    sup_config ~replicas:1 ~health_period_s:0.1 ~health_timeout_s:0.3
      ~wedged_after:3 ()
  in
  with_supervisor cfg @@ fun sup ->
  (match Sup.wait_ready ~timeout_s:20.0 sup with
  | Ok () -> ()
  | Error m -> Alcotest.failf "replica not ready: %s" m);
  let victim = List.nth (Sup.pids sup) 0 in
  Unix.kill victim Sys.sigstop;
  wait_until ~timeout_s:30.0 "wedge detection and restart" (fun () ->
      Sup.restarts_total sup >= 1);
  (match Sup.wait_ready ~timeout_s:20.0 sup with
  | Ok () -> ()
  | Error m -> Alcotest.failf "replica not back: %s" m);
  check_bool "wedge recorded" true
    (List.exists
       (function
         | Fault.Supervisor m -> contains ~affix:"wedged" m
         | _ -> false)
       (Sup.faults sup))

(* A replica that can never start (invalid serve flags, exits 2
   immediately) must burn its restart budget and be given up on — a
   typed degradation, not a spawn loop. *)
let test_supervisor_give_up () =
  let cfg =
    sup_config ~replicas:1 ~restarts:2 ~serve_args:[ "--queue"; "0" ] ()
  in
  with_supervisor cfg @@ fun sup ->
  wait_until ~timeout_s:30.0 "restart budget exhaustion" (fun () ->
      Sup.gave_up sup);
  check_int "budget fully used" 2 (Sup.restarts_total sup);
  check_bool "give-up recorded" true
    (List.exists
       (function
         | Fault.Supervisor m -> contains ~affix:"giving up" m
         | _ -> false)
       (Sup.faults sup))

(* Rolling drain: stop with requests in flight; every admitted request
   is answered and the children exit without SIGKILL escalation. *)
let test_supervisor_rolling_drain () =
  let cfg = sup_config ~replicas:2 () in
  with_env calm_env @@ fun () ->
  let sup = Sup.create cfg in
  let th = Thread.create Sup.run sup in
  (match Sup.wait_ready ~timeout_s:20.0 sup with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tier not ready: %s" m);
  let pids = Sup.pids sup in
  Sup.stop sup;
  Thread.join th;
  (* Every child is gone (waitpid-reaped, sockets swept). *)
  List.iter
    (fun pid ->
      check_bool
        (Printf.sprintf "pid %d exited" pid)
        true
        (match Unix.kill pid 0 with
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
        | () -> false))
    pids;
  check_bool "no SIGKILL escalation" true
    (not
       (List.exists
          (function
            | Fault.Supervisor m -> contains ~affix:"SIGKILL" m
            | _ -> false)
          (Sup.faults sup)))

let () =
  (* The failover tests deliberately write into dead replicas'
     sockets; EPIPE must come back as a typed transport error, not a
     process-killing SIGPIPE (the CLI ignores it the same way). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "strict parse" `Quick test_strict_parse;
          Alcotest.test_case "framed io" `Quick test_frame_io;
        ] );
      ("squeue", [ Alcotest.test_case "bounded queue" `Quick test_squeue ]);
      ( "env",
        [
          Alcotest.test_case "backoff scale" `Quick test_env_backoff_scale;
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
        ] );
      ( "create",
        [
          Alcotest.test_case "serve rejects" `Quick test_server_create_rejects;
          Alcotest.test_case "supervise rejects" `Quick
            test_supervisor_create_rejects;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run_result" `Quick test_run_result;
          Alcotest.test_case "chaos determinism" `Quick
            test_run_result_chaos_deterministic;
          Alcotest.test_case "kill determinism" `Quick
            test_chaos_kill_deterministic;
        ] );
      ( "memo",
        [
          Alcotest.test_case "find_opt" `Quick test_memo_find_opt;
          Alcotest.test_case "lru eviction" `Quick test_memo_lru;
          Alcotest.test_case "lru determinism" `Quick
            test_memo_lru_deterministic;
          Alcotest.test_case "pending never evicted" `Quick
            test_memo_pending_not_evicted;
          Alcotest.test_case "env cap" `Quick test_memo_env_cap;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "basics and caching" `Quick test_e2e_basics;
          Alcotest.test_case "fault isolation" `Quick test_e2e_fault_isolation;
          Alcotest.test_case "sim budget timeout" `Quick
            test_e2e_sim_budget_timeout;
          Alcotest.test_case "wall-clock deadline" `Quick test_e2e_deadline;
          Alcotest.test_case "shedding" `Quick test_e2e_shedding;
          Alcotest.test_case "malformed wire" `Quick test_e2e_malformed_wire;
          Alcotest.test_case "chaos soak" `Quick test_e2e_chaos_soak;
          Alcotest.test_case "drain in flight" `Quick test_e2e_drain_in_flight;
          Alcotest.test_case "tcp" `Quick test_e2e_tcp;
          Alcotest.test_case "health" `Quick test_e2e_health;
          Alcotest.test_case "health bypasses queue" `Quick
            test_e2e_health_bypasses_queue;
          Alcotest.test_case "cached reply bypasses a full queue" `Quick
            test_e2e_cached_bypasses_queue;
          Alcotest.test_case "cached replies keep their in-band errors"
            `Quick test_e2e_cached_in_band_errors;
          Alcotest.test_case "memo cap" `Quick test_e2e_memo_cap;
          Alcotest.test_case "recompute on a fresh ctx" `Quick
            test_e2e_recompute;
          Alcotest.test_case "shared simulation" `Quick
            test_e2e_shared_simulation;
          Alcotest.test_case "stale socket" `Quick test_stale_socket;
        ] );
      ( "failover",
        [
          Alcotest.test_case "spread and failover" `Quick
            test_failover_spread_and_failover;
          Alcotest.test_case "timeout dedup" `Quick
            test_failover_timeout_dedup;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash drill" `Quick test_supervisor_crash_drill;
          Alcotest.test_case "wedge detection" `Quick
            test_supervisor_wedge_detection;
          Alcotest.test_case "give up" `Quick test_supervisor_give_up;
          Alcotest.test_case "rolling drain" `Quick
            test_supervisor_rolling_drain;
        ] );
    ]
