module Fault = T1000.Fault
module Pool = T1000.Pool
module Metrics = T1000_obs.Metrics

(* ---------- configuration ---------- *)

type config = {
  exe : string;
  replicas : int;
  socket_dir : string;
  restarts : int;
  health_period_s : float;
  health_timeout_s : float;
  wedged_after : int;
  drain_grace_s : float;
  serve_args : string list;
}

let default_config () =
  {
    exe = Sys.executable_name;
    replicas = 3;
    socket_dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "t1000-supervise-%d" (Unix.getpid ()));
    restarts = 5;
    health_period_s = 0.5;
    health_timeout_s = 1.0;
    wedged_after = 3;
    drain_grace_s = 5.0;
    serve_args = [];
  }

(* ---------- state ---------- *)

type child_state = [ `Running | `Given_up ]

type child = {
  index : int;
  socket : string;
  log : string;
  mutable pid : int;
  mutable restarts_used : int;
  mutable probe_failures : int;  (* consecutive *)
  mutable last_probe : float;
  mutable last_health : Protocol.health option;
  mutable state : child_state;
}

type t = {
  cfg : config;
  children : child array;
  mutable faults : Fault.t list;  (* newest first *)
  mu : Mutex.t;
  stopping : bool Atomic.t;  (* settable from a signal handler *)
  mutable running : bool;
}

let create cfg =
  if cfg.replicas < 1 then
    Fault.invalid_config "supervise: replicas must be >= 1, got %d"
      cfg.replicas;
  if cfg.restarts < 0 then
    Fault.invalid_config "supervise: restart budget must be >= 0, got %d"
      cfg.restarts;
  if not (Float.is_finite cfg.health_period_s) || cfg.health_period_s <= 0.0
  then
    Fault.invalid_config "supervise: health period must be positive, got %g"
      cfg.health_period_s;
  if cfg.wedged_after < 1 then
    Fault.invalid_config "supervise: wedged_after must be >= 1, got %d"
      cfg.wedged_after;
  (match Unix.mkdir cfg.socket_dir 0o700 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Fault.invalid_config "supervise: cannot create socket dir %s: %s"
        cfg.socket_dir (Unix.error_message e));
  let children =
    Array.init cfg.replicas (fun i ->
        {
          index = i;
          socket =
            Filename.concat cfg.socket_dir (Printf.sprintf "replica%d.sock" i);
          log =
            Filename.concat cfg.socket_dir (Printf.sprintf "replica%d.log" i);
          pid = 0;
          restarts_used = 0;
          probe_failures = 0;
          last_probe = 0.0;
          last_health = None;
          state = `Running;
        })
  in
  {
    cfg;
    children;
    faults = [];
    mu = Mutex.create ();
    stopping = Atomic.make false;
    running = false;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mu)

let record t fault =
  locked t (fun () -> t.faults <- fault :: t.faults)

let supervisor_fault t fmt =
  Printf.ksprintf
    (fun msg ->
      Metrics.incr "supervisor.events";
      record t (Fault.Supervisor msg))
    fmt

let faults t = locked t (fun () -> List.rev t.faults)
let sockets t = Array.to_list (Array.map (fun c -> Server.Unix_sock c.socket) t.children)

let restarts_total t =
  Array.fold_left (fun acc c -> acc + c.restarts_used) 0 t.children

let gave_up t = Array.exists (fun c -> c.state = `Given_up) t.children
let pids t = Array.to_list (Array.map (fun c -> c.pid) t.children)

let children_status t =
  Array.to_list
    (Array.map (fun c -> (c.index, c.pid, c.restarts_used, c.last_health))
       t.children)

(* ---------- child lifecycle ---------- *)

let spawn t c =
  (* A stale socket from the previous incarnation is unlinked by the
     daemon itself on startup (Server.listen_on); the supervisor only
     provides the path. *)
  let log_fd =
    Unix.openfile c.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600
  in
  let argv =
    Array.of_list
      ([ t.cfg.exe; "serve"; "--socket"; c.socket ] @ t.cfg.serve_args)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close log_fd with Unix.Unix_error _ -> ());
      try Unix.close devnull with Unix.Unix_error _ -> ())
    (fun () ->
      c.pid <- Unix.create_process t.cfg.exe argv devnull log_fd log_fd;
      c.probe_failures <- 0;
      c.last_probe <- Unix.gettimeofday ();
      Metrics.incr "supervisor.spawns")

let kill_child c signal =
  if c.pid > 0 then try Unix.kill c.pid signal with Unix.Unix_error _ -> ()

(* Did [c]'s process exit?  Non-blocking. *)
let reap c =
  if c.pid <= 0 then None
  else
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ -> None
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        (* Already reaped (drain races the monitor): treat as exited. *)
        Some (Unix.WEXITED 0)

(* OCaml encodes signals as its own (negative) numbers; render the
   common ones by name so the incident log reads like the OS. *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigbus then "SIGBUS"
  else if n = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" n

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by %s" (signal_name n)
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by %s" (signal_name n)

(* A child died (or was put down as wedged): restart it within the
   budget, with the same capped exponential backoff schedule the
   worker pool uses (scaled by T1000_BACKOFF_SCALE, so tests restart
   instantly). *)
let handle_death t c reason =
  if Atomic.get t.stopping then ()
  else if c.restarts_used >= t.cfg.restarts then begin
    c.state <- `Given_up;
    c.pid <- 0;
    Metrics.incr "supervisor.give_ups";
    supervisor_fault t
      "replica %d %s; restart budget (%d) exhausted, giving up" c.index
      reason t.cfg.restarts
  end
  else begin
    let attempt = c.restarts_used in
    c.restarts_used <- attempt + 1;
    Metrics.incr "supervisor.restarts";
    supervisor_fault t "replica %d %s; restarting (%d/%d)" c.index reason
      (attempt + 1) t.cfg.restarts;
    (try Unix.sleepf (Pool.backoff_delay attempt)
     with Unix.Unix_error _ -> ());
    spawn t c
  end

(* One health probe over a fresh timeout-bounded connection.  [`Health]
   bypasses the daemon's admission queue, so a saturated replica still
   answers promptly; only a dead or truly wedged process fails here. *)
let probe t c =
  match Client.connect ~timeout_s:t.cfg.health_timeout_s
          (Server.Unix_sock c.socket)
  with
  | Error e -> Error e
  | Ok cl ->
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () -> Client.health cl)

let check_health t c now =
  if now -. c.last_probe >= t.cfg.health_period_s then begin
    c.last_probe <- now;
    match probe t c with
    | Ok h ->
        c.probe_failures <- 0;
        c.last_health <- Some h
    | Error _ ->
        c.probe_failures <- c.probe_failures + 1;
        Metrics.incr "supervisor.probe_failures";
        if c.probe_failures >= t.cfg.wedged_after then begin
          (* Wedged: alive as a process but not answering its liveness
             probe.  Put it down; the reap path restarts it. *)
          supervisor_fault t
            "replica %d wedged (%d consecutive probe failures), killing"
            c.index c.probe_failures;
          Metrics.incr "supervisor.wedged_kills";
          kill_child c Sys.sigkill;
          c.probe_failures <- 0
        end
  end

(* ---------- drain ---------- *)

(* Rolling graceful drain: children are terminated one at a time, each
   given [drain_grace_s] to answer its admitted requests (SIGTERM is
   wired to the daemon's graceful drain), so the rest of the tier keeps
   serving while each replica drains.  A replica that outlives its
   grace is SIGKILLed — recorded as a supervisor fault, never a hang. *)
let drain t =
  Array.iter
    (fun c ->
      if c.pid > 0 then begin
        kill_child c Sys.sigterm;
        let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
        let rec wait () =
          match reap c with
          | Some _ -> ()
          | None ->
              if Unix.gettimeofday () >= deadline then begin
                supervisor_fault t
                  "replica %d did not drain within %.1fs, escalating to \
                   SIGKILL"
                  c.index t.cfg.drain_grace_s;
                Metrics.incr "supervisor.drain_sigkills";
                kill_child c Sys.sigkill;
                ignore (try Unix.waitpid [] c.pid
                        with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
              end
              else begin
                (try Unix.sleepf 0.01 with Unix.Unix_error _ -> ());
                wait ()
              end
        in
        wait ();
        c.pid <- 0
      end)
    t.children;
  (* Socket files belong to the children, but a SIGKILLed one leaves
     its socket behind; sweep them so the dir is reusable. *)
  Array.iter
    (fun c -> try Unix.unlink c.socket with Unix.Unix_error _ -> ())
    t.children

(* ---------- monitor loop ---------- *)

let stop t = Atomic.set t.stopping true

let tick_s = 0.02

let run t =
  if t.running then invalid_arg "Supervisor.run: already running";
  t.running <- true;
  Array.iter (fun c -> spawn t c) t.children;
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        if c.state = `Running then
          match reap c with
          | Some status ->
              c.pid <- 0;
              handle_death t c (status_to_string status)
          | None -> check_health t c now)
      t.children;
    try Unix.sleepf tick_s with Unix.Unix_error _ -> ()
  done;
  drain t;
  t.running <- false

(* Poll every replica's socket until it answers a ping — the readiness
   barrier tests and the CLI use before aiming load at the tier. *)
let wait_ready ?(timeout_s = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let ready c =
    match Client.connect ~timeout_s:1.0 (Server.Unix_sock c.socket) with
    | Error _ -> false
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> Client.close cl)
          (fun () -> Result.is_ok (Client.ping cl))
  in
  let rec go () =
    let pending =
      Array.to_list t.children
      |> List.filter (fun c -> c.state = `Running && not (ready c))
    in
    if pending = [] then Ok ()
    else if Unix.gettimeofday () >= deadline then
      Error
        (Printf.sprintf "replicas not ready after %.1fs: %s" timeout_s
           (String.concat ", "
              (List.map (fun c -> string_of_int c.index) pending)))
    else begin
      (try Unix.sleepf 0.02 with Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()
