module Experiment = T1000.Experiment
module Fault = T1000.Fault
module Memo = T1000.Memo
module Pool = T1000.Pool
module Runner = T1000.Runner
module Metrics = T1000_obs.Metrics
module Tracer = T1000_obs.Tracer
module Workload = T1000_workloads.Workload
module Registry = T1000_workloads.Registry
module Extinstr = T1000_select.Extinstr
module Mconfig = T1000_ooo.Mconfig
module Stats = T1000_ooo.Stats

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "unix address needs a socket path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S: expected HOST:PORT" rest)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port_s = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port_s with
              | Some p when p >= 0 && p <= 65535 && host <> "" ->
                  Ok (Tcp (host, p))
              | _ ->
                  Error
                    (Printf.sprintf "tcp address %S: bad host or port" rest)))
      | other ->
          Error
            (Printf.sprintf "unknown address scheme %S (unix: or tcp:)" other))

type config = {
  addrs : addr list;
  queue_depth : int;
  njobs : int;
  default_deadline_ms : float option;
  max_steps : int;
  bpred : T1000_bpred.Predictor.spec;
  selfcheck : bool;
}

let default_config () =
  {
    addrs = [];
    queue_depth = 64;
    njobs = Pool.default_njobs ();
    default_deadline_ms = None;
    max_steps = 10_000_000;
    bpred = T1000_bpred.Predictor.Perfect;
    selfcheck = false;
  }

(* ---- jobs ---- *)

type job = {
  seq : int;  (* server-wide job sequence number (chaos hash key) *)
  req_id : int;  (* client-chosen request id, echoed in the reply *)
  sel : Protocol.select;
  key : Protocol.select;  (* [reply_key sel] *)
  submitted : float;
  deadline : float option;  (* absolute wall-clock deadline *)
  jm : Mutex.t;
  jcv : Condition.t;
  mutable state : [ `Pending | `Done of Protocol.reply_body | `Abandoned ];
  mutable pops : int;  (* dequeues, for the chaos kill decision *)
}

type t = {
  cfg : config;
  started : float;
  listeners : (addr * Unix.file_descr) list;
  queue : job Squeue.t;
  draining : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  seq : int Atomic.t;
  answered_c : int Atomic.t;
  sm : Mutex.t;  (* guards the mutable registries below *)
  mutable conns : (int * Unix.file_descr) list;
  mutable conn_threads : Thread.t list;
  mutable workers : unit Domain.t list;
  mutable pending : job list;  (* admitted, reply not yet written *)
  mutable inflight : int;
  mutable respawns : int;
  mutable ticker_stop : bool;
  ctx : Experiment.ctx;  (* the one evaluation path, shared by requests *)
  results : (Protocol.select, Protocol.outcome) Memo.t;  (* the reply cache *)
}

let respawn_cap = 64

let validate cfg =
  if cfg.queue_depth < 1 then
    Fault.invalid_config "serve: queue depth must be >= 1, got %d"
      cfg.queue_depth;
  if cfg.njobs < 1 then
    Fault.invalid_config "serve: worker count must be >= 1, got %d" cfg.njobs;
  (match cfg.default_deadline_ms with
  | Some d when not (d > 0.0 && Float.is_finite d) ->
      Fault.invalid_config "serve: default deadline must be positive, got %g" d
  | _ -> ());
  if cfg.max_steps < 1 then
    Fault.invalid_config "serve: max_steps must be >= 1, got %d" cfg.max_steps

let create cfg =
  if cfg.addrs = [] then
    Fault.invalid_config "serve: no listen address (give --socket or --tcp)";
  validate cfg;
  let ctx =
    Experiment.create_ctx ~workloads:[] ~max_steps:cfg.max_steps
      ~bpred:cfg.bpred ~selfcheck:cfg.selfcheck ()
  in
  let cap = Option.value (Memo.env_cap ()) ~default:Memo.default_cap in
  let listen_on addr =
    try
      match addr with
      | Unix_sock path ->
          (* A stale socket file from a killed daemon must not wedge a
             restart; anything else at that path is a caller error. *)
          (match (Unix.lstat path).Unix.st_kind with
          | Unix.S_SOCK -> Unix.unlink path
          | _ ->
              Fault.invalid_config "serve: %s exists and is not a socket" path
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (* Bind at a temp name and rename into place only once the
             socket is accepting, so a client polling for the path can
             never observe bound-but-not-listening (on one CPU the
             daemon can be descheduled between the two syscalls). *)
          let tmp = path ^ ".tmp" in
          (try Unix.unlink tmp with Unix.Unix_error _ -> ());
          Unix.bind fd (Unix.ADDR_UNIX tmp);
          Unix.listen fd 64;
          Unix.rename tmp path;
          (addr, fd)
      | Tcp (host, port) ->
          let ip =
            if host = "localhost" then Unix.inet_addr_loopback
            else
              try Unix.inet_addr_of_string host
              with Failure _ ->
                Fault.invalid_config "serve: cannot parse host %S" host
          in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (ip, port));
          Unix.listen fd 64;
          let port =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port
          in
          (Tcp (host, port), fd)
    with Unix.Unix_error (e, _, _) ->
      Fault.invalid_config "serve: cannot listen on %s: %s"
        (addr_to_string addr) (Unix.error_message e)
  in
  let listeners = List.map listen_on cfg.addrs in
  let wake_r, wake_w = Unix.pipe () in
  {
    cfg;
    started = Unix.gettimeofday ();
    listeners;
    queue = Squeue.create ~capacity:cfg.queue_depth;
    draining = Atomic.make false;
    wake_r;
    wake_w;
    seq = Atomic.make 0;
    answered_c = Atomic.make 0;
    sm = Mutex.create ();
    conns = [];
    conn_threads = [];
    workers = [];
    pending = [];
    inflight = 0;
    respawns = 0;
    ticker_stop = false;
    ctx;
    results = Memo.create ~name:"serve.results" ~cap 64;
  }

let bound_addrs t = List.map fst t.listeners
let answered t = Atomic.get t.answered_c

(* The liveness snapshot behind the wire `health` op.  Everything here
   is read without blocking on any request: the queue and registry
   locks are only held for reads, so a health probe answers promptly
   even when the admission queue is full and every worker is busy. *)
let health t =
  Mutex.lock t.sm;
  let inflight = t.inflight in
  let workers = List.length t.workers in
  let respawns = t.respawns in
  Mutex.unlock t.sm;
  let injected, killed = Pool.chaos_events () in
  let memos =
    Experiment.memo_stats t.ctx
    @ [ ("results", Memo.length t.results, Memo.evictions t.results) ]
  in
  let memo_sizes = List.map (fun (name, n, _) -> (name, n)) memos in
  let memo_evictions = List.fold_left (fun acc (_, _, e) -> acc + e) 0 memos in
  {
    Protocol.pid = Unix.getpid ();
    uptime_s = Unix.gettimeofday () -. t.started;
    queue_len = Squeue.length t.queue;
    queue_cap = t.cfg.queue_depth;
    inflight;
    answered = Atomic.get t.answered_c;
    workers;
    respawns;
    memo_sizes;
    memo_evictions;
    chaos_injected = injected;
    chaos_killed = killed;
  }

(* ---- the selection pipeline: the ctx, behind the reply cache ---- *)

let kernel_key = function
  | Protocol.Named n -> "named:" ^ n
  | Protocol.Asm { name = _; text } ->
      "asm:" ^ Digest.to_hex (Digest.string text)

(* A submitted kernel is a workload named by its digest, so the ctx's
   memos tell two kernels apart by their text, never by the name a
   client chose. *)
let resolve_kernel kernel =
  match kernel with
  | Protocol.Named n -> (
      match Registry.find n with
      | Some w -> w
      | None ->
          Fault.invalid_config "unknown workload %S (known: %s)" n
            (String.concat ", " Registry.names))
  | Protocol.Asm { name; text } -> (
      match T1000_asm.Asm_text.parse ~name text with
      | Error msg -> Fault.invalid_config "asm parse error: %s" msg
      | Ok program ->
          {
            Workload.name = kernel_key kernel;
            description = "client-submitted kernel";
            program;
            init = (fun _ _ -> ());
            out_base = T1000_workloads.Kit.out_base;
            out_len = 0;
          })

let setup_of_select ctx (sel : Protocol.select) =
  (match sel.Protocol.max_cycles with
  | Some c when c <= 0 ->
      Fault.invalid_config "max_cycles must be positive, got %d" c
  | _ -> ());
  let method_ =
    match sel.Protocol.method_ with
    | `Baseline -> Runner.Baseline
    | `Greedy -> Runner.Greedy
    | `Selective -> Runner.Selective
  in
  let s =
    Experiment.setup ctx ~n_pfus:sel.Protocol.pfus
      ~penalty:sel.Protocol.penalty method_
  in
  match sel.Protocol.max_cycles with
  | None -> s
  | Some max_cycles ->
      { s with Runner.machine = { s.Runner.machine with Mconfig.max_cycles } }

(* A reply depends on every request field but the deadline, and on
   the kernel only through its digest. *)
let reply_key (sel : Protocol.select) =
  {
    sel with
    Protocol.kernel = Protocol.Named (kernel_key sel.Protocol.kernel);
    deadline_ms = None;
  }

(* [cached] marks a reply the cache already held when it was probed:
   at admission ({!handle_select}) or here, for a request whose key
   completed while it waited in the queue. *)
let compute srv ~key (sel : Protocol.select) : Protocol.outcome =
  Tracer.with_span ~cat:"serve" "serve.compute" @@ fun () ->
  let setup = setup_of_select srv.ctx sel in
  match Memo.find_opt srv.results key with
  | Some o -> { o with Protocol.cached = true }
  | None ->
      Memo.find_or_compute srv.results key @@ fun () ->
      let w = resolve_kernel sel.Protocol.kernel in
      (* The baseline runs on the configured machine, so under the same
         cycle budget (the one machine field a request can change). *)
      let baseline = Experiment.baseline_for srv.ctx w setup.Runner.machine in
      let r = Experiment.run_setup srv.ctx w setup in
      let lut_cost =
        List.fold_left
          (fun acc (e : Extinstr.entry) -> acc + e.Extinstr.lut_cost)
          0
          (Extinstr.entries r.Runner.table)
      in
      {
        Protocol.speedup = Runner.speedup ~baseline r;
        cycles = r.Runner.stats.Stats.cycles;
        baseline_cycles = baseline.Runner.stats.Stats.cycles;
        ext_count = Extinstr.count r.Runner.table;
        lut_cost;
        cached = false;
      }

(* ---- job lifecycle ---- *)

let resolve job body =
  Mutex.lock job.jm;
  (match job.state with
  | `Pending ->
      job.state <- `Done body;
      Condition.broadcast job.jcv
  | `Abandoned ->
      (* The server-side timer already answered this request with a
         timeout; the late result is discarded, not sent twice. *)
      Metrics.incr "serve.late_results"
  | `Done _ -> ());
  Mutex.unlock job.jm

let now () = Unix.gettimeofday ()

let elapsed_ms job = (now () -. job.submitted) *. 1e3

let timeout_body job where =
  let budget =
    match job.deadline with
    | Some d -> (d -. job.submitted) *. 1e3
    | None -> 0.0
  in
  `Error
    ( Protocol.Timeout,
      Printf.sprintf
        "deadline exceeded: %.0f ms budget, %.0f ms elapsed (%s)" budget
        (elapsed_ms job) where )

let process srv job =
  let started = now () in
  let overdue =
    match job.deadline with Some d -> started > d | None -> false
  in
  let abandoned () =
    Mutex.lock job.jm;
    let a = job.state <> `Pending in
    Mutex.unlock job.jm;
    a
  in
  if overdue then begin
    Metrics.incr "serve.deadline_in_queue";
    resolve job (timeout_body job "expired in the admission queue")
  end
  else if abandoned () then
    (* The ticker already answered this one; don't burn a worker on a
       result nobody will read. *)
    Metrics.incr "serve.late_results"
  else begin
    Metrics.observe "serve.queue_wait_ms" ((started -. job.submitted) *. 1e3);
    let result =
      Pool.run_result ~index:job.seq (fun () ->
          compute srv ~key:job.key job.sel)
    in
    Metrics.observe "serve.service_ms" ((now () -. started) *. 1e3);
    let body =
      match result with
      | Ok o -> `Outcome o
      | Error f ->
          Metrics.incr "serve.faults";
          let code, msg = Protocol.error_of_fault f in
          `Error (code, msg)
    in
    resolve job body
  end

let rec worker_loop srv () =
  match Squeue.pop srv.queue with
  | None -> ()  (* queue closed and drained: the server is shutting down *)
  | Some job ->
      let pops = job.pops in
      job.pops <- pops + 1;
      let kill =
        Pool.chaos_kill_worker ~index:job.seq ~pops
        &&
        (Mutex.lock srv.sm;
         let under_cap = srv.respawns < respawn_cap in
         if under_cap then srv.respawns <- srv.respawns + 1;
         Mutex.unlock srv.sm;
         under_cap)
      in
      if kill then begin
        (* This worker domain "dies": the request goes back to the
           front of the queue (it was already admitted — it must not
           be shed a second time) and a replacement domain takes over. *)
        Squeue.push_front srv.queue job;
        Mutex.lock srv.sm;
        srv.workers <- Domain.spawn (worker_loop srv) :: srv.workers;
        Mutex.unlock srv.sm
      end
      else begin
        process srv job;
        worker_loop srv ()
      end

(* The server-side deadline timer: a 2 ms ticker that abandons any
   pending job whose wall-clock deadline has passed — whether it is
   still queued or already running on a worker — so the client gets its
   timeout reply on time and a late result is discarded. *)
let ticker_loop srv () =
  let stop = ref false in
  while not !stop do
    Thread.delay 0.002;
    Mutex.lock srv.sm;
    stop := srv.ticker_stop;
    let pending = srv.pending in
    Mutex.unlock srv.sm;
    let t = now () in
    List.iter
      (fun job ->
        match job.deadline with
        | Some d when t > d ->
            Mutex.lock job.jm;
            if job.state = `Pending then begin
              job.state <- `Abandoned;
              Condition.broadcast job.jcv
            end;
            Mutex.unlock job.jm
        | _ -> ())
      pending
  done

(* ---- connection handling ---- *)

let send srv fd reply =
  (match Protocol.output_frame fd (Protocol.reply_payload reply) with
  | Ok () -> ()
  | Error _ ->
      (* The client went away before its reply; the read side of this
         connection will see the close next.  Never fatal. *)
      Metrics.incr "serve.write_errors");
  Atomic.incr srv.answered_c;
  Metrics.incr "serve.replies"

let register_pending srv job =
  Mutex.lock srv.sm;
  srv.pending <- job :: srv.pending;
  srv.inflight <- srv.inflight + 1;
  Mutex.unlock srv.sm

let unregister_pending srv (job : job) =
  Mutex.lock srv.sm;
  srv.pending <- List.filter (fun (j : job) -> j.seq <> job.seq) srv.pending;
  srv.inflight <- srv.inflight - 1;
  Mutex.unlock srv.sm

let handle_select srv fd req_id sel =
  if Atomic.get srv.draining then begin
    Metrics.incr "serve.shed";
    send srv fd
      {
        Protocol.rid = req_id;
        body = `Error (Protocol.Overloaded, "overloaded: server is draining");
      }
  end
  else begin
    let submitted = now () in
    let deadline_ms =
      match sel.Protocol.deadline_ms with
      | Some d -> Some d
      | None -> srv.cfg.default_deadline_ms
    in
    (match deadline_ms with
    | Some d when not (d > 0.0 && Float.is_finite d) ->
        Fault.invalid_config "deadline_ms must be positive, got %g" d
    | _ -> ());
    let key = reply_key sel in
    match Memo.find_opt srv.results key with
    | Some o ->
        (* A completed reply is answered here, on the connection
           thread: it never waits behind a running simulation, and a
           full queue cannot shed it. *)
        Metrics.observe "serve.queue_wait_ms" 0.0;
        Metrics.observe "serve.service_ms" ((now () -. submitted) *. 1e3);
        send srv fd
          {
            Protocol.rid = req_id;
            body = `Outcome { o with Protocol.cached = true };
          }
    | None ->
        let job =
          {
            seq = Atomic.fetch_and_add srv.seq 1;
            req_id;
            sel;
            key;
            submitted;
            deadline =
              Option.map (fun d -> submitted +. (d /. 1e3)) deadline_ms;
            jm = Mutex.create ();
            jcv = Condition.create ();
            state = `Pending;
            pops = 0;
          }
        in
        (* Registered before admission so the drain sequence cannot
           close the queue between our check and our push: inflight > 0
           holds it open, and if drain won the race anyway the closed
           queue fails try_push and we shed with a typed reply — never
           a drop. *)
        register_pending srv job;
        Fun.protect ~finally:(fun () -> unregister_pending srv job)
        @@ fun () ->
        if not (Squeue.try_push srv.queue job) then begin
          Metrics.incr "serve.shed";
          send srv fd
            {
              Protocol.rid = req_id;
              body =
                `Error
                  ( Protocol.Overloaded,
                    Printf.sprintf
                      "overloaded: admission queue full (%d waiting)"
                      (Squeue.length srv.queue) );
            }
        end
        else begin
          Mutex.lock job.jm;
          while job.state = `Pending do
            Condition.wait job.jcv job.jm
          done;
          let body =
            match job.state with
            | `Done b -> b
            | `Abandoned -> timeout_body job "server-side deadline timer"
            | `Pending -> assert false
          in
          Mutex.unlock job.jm;
          send srv fd { Protocol.rid = req_id; body }
        end
  end

let conn_loop srv (conn_id, fd) () =
  let closed = ref false in
  (try
     while not !closed do
       match Protocol.input_frame fd with
       | Error `Eof -> closed := true
       | Error (`Truncated _) | Error (`Io _) | Error `Timeout ->
           (* Mid-frame disconnect: the peer is gone, nothing to answer.
              ([`Timeout] cannot fire here — server-side sockets carry
              no SO_RCVTIMEO — but close defensively if it ever does.) *)
           Metrics.incr "serve.bad_frames";
           closed := true
       | Error (`Oversized n) ->
           Metrics.incr "serve.bad_frames";
           send srv fd
             {
               Protocol.rid = 0;
               body =
                 `Error
                   ( Protocol.Malformed,
                     Printf.sprintf
                       "oversized frame: %d bytes (limit %d)" n
                       Protocol.max_frame );
             };
           closed := true
       | Ok payload -> (
           match Protocol.decode_request payload with
           | Error msg ->
               Metrics.incr "serve.bad_frames";
               send srv fd
                 {
                   Protocol.rid = 0;
                   body = `Error (Protocol.Malformed, msg);
                 };
               closed := true
           | Ok { Protocol.id; body = `Ping } ->
               send srv fd { Protocol.rid = id; body = `Pong }
           | Ok { Protocol.id; body = `Health } ->
               (* Answered inline on the connection thread: a health
                  probe must not queue behind (or be shed with) the
                  selection traffic it is there to diagnose. *)
               Metrics.incr "serve.health_probes";
               send srv fd
                 { Protocol.rid = id; body = `Health (health srv) }
           | Ok { Protocol.id; body = `Select sel } -> (
               (* A bad deadline field is the caller's error, answered
                  in-band like every other poisoned request. *)
               try handle_select srv fd id sel
               with Fault.Error f ->
                 Metrics.incr "serve.faults";
                 let code, msg = Protocol.error_of_fault f in
                 send srv fd { Protocol.rid = id; body = `Error (code, msg) }))
     done
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock srv.sm;
  srv.conns <- List.remove_assoc conn_id srv.conns;
  Mutex.unlock srv.sm

(* ---- accept loop, drain, stop ---- *)

let wake srv =
  try ignore (Unix.write srv.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()

let stop srv = if not (Atomic.exchange srv.draining true) then wake srv

let conn_counter = Atomic.make 0

let accept_one srv lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
      Metrics.incr "serve.connections";
      let conn_id = Atomic.fetch_and_add conn_counter 1 in
      Mutex.lock srv.sm;
      srv.conns <- (conn_id, fd) :: srv.conns;
      let th = Thread.create (conn_loop srv (conn_id, fd)) () in
      srv.conn_threads <- th :: srv.conn_threads;
      Mutex.unlock srv.sm

let close_listeners srv =
  List.iter
    (fun (addr, fd) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match addr with
      | Unix_sock path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    srv.listeners

let drain srv =
  Tracer.with_span ~cat:"serve" "serve.drain" @@ fun () ->
  (* 1. No new connections. *)
  close_listeners srv;
  (* 2. Everything already admitted gets its reply (or its deadline
        cancellation from the ticker).  Late try_pushes from still-open
        connections either beat the queue close (and are answered) or
        fail it (and are shed with a typed reply) — nothing hangs. *)
  let rec wait_inflight () =
    Mutex.lock srv.sm;
    let n = srv.inflight in
    Mutex.unlock srv.sm;
    if n > 0 then begin
      Thread.delay 0.002;
      wait_inflight ()
    end
  in
  wait_inflight ();
  (* 3. Workers drain the (now empty) queue and exit; chaos respawns
        may still be appearing, so join until the registry is empty. *)
  Squeue.close srv.queue;
  let rec join_workers () =
    Mutex.lock srv.sm;
    let ws = srv.workers in
    srv.workers <- [];
    Mutex.unlock srv.sm;
    if ws <> [] then begin
      List.iter Domain.join ws;
      join_workers ()
    end
  in
  join_workers ();
  (* 4. Kick connection threads out of their blocking reads.  Only the
        receive side: a reply write racing this shutdown must still
        reach the client. *)
  Mutex.lock srv.sm;
  let conns = srv.conns in
  Mutex.unlock srv.sm;
  List.iter
    (fun (_, fd) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  let rec join_conns () =
    Mutex.lock srv.sm;
    let ths = srv.conn_threads in
    srv.conn_threads <- [];
    Mutex.unlock srv.sm;
    if ths <> [] then begin
      List.iter Thread.join ths;
      join_conns ()
    end
  in
  join_conns ();
  (* 5. Stop the deadline ticker and release the wake pipe. *)
  Mutex.lock srv.sm;
  srv.ticker_stop <- true;
  Mutex.unlock srv.sm;
  (try Unix.close srv.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close srv.wake_w with Unix.Unix_error _ -> ())

let run srv =
  Mutex.lock srv.sm;
  srv.workers <-
    List.init srv.cfg.njobs (fun _ -> Domain.spawn (worker_loop srv));
  Mutex.unlock srv.sm;
  let ticker = Thread.create (ticker_loop srv) () in
  let lfds = List.map snd srv.listeners in
  while not (Atomic.get srv.draining) do
    match Unix.select (srv.wake_r :: lfds) [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.mem srv.wake_r ready then begin
          let buf = Bytes.create 16 in
          try ignore (Unix.read srv.wake_r buf 0 16)
          with Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun lfd -> if List.mem lfd ready then accept_one srv lfd)
          lfds
  done;
  drain srv;
  Thread.join ticker;
  Metrics.set_gauge "serve.queue_depth" (float_of_int srv.cfg.queue_depth)
