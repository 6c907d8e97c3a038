(** Process supervision for the serving tier ([t1000 supervise]).

    The single daemon of {!Server} is crash-{e safe} (one poisoned
    request cannot take it down) but not crash-{e proof}: a SIGKILL, an
    OOM kill or a runaway wedge still loses the process.  The
    supervisor makes the tier crash-{b only}: it spawns [replicas]
    child daemons ([t1000 serve], one Unix socket each, fork/exec — no
    shared state with the parent), monitors them, and restarts whatever
    dies, so killing any single process never takes down the service.

    - {b Liveness}: each child is reaped with [waitpid] (exit/signal
      detection is immediate) and probed on a period with the wire
      [`Health] request over a timeout-bounded connection.  [`Health]
      bypasses the daemon's admission queue, so saturation is not
      mistaken for death; a child that fails [wedged_after] consecutive
      probes is declared wedged and put down with SIGKILL.
    - {b Restart policy}: each death is restarted under a per-child
      budget ([restarts]) with the worker pool's capped exponential
      backoff ({!T1000.Pool.backoff_delay}, scaled by
      [T1000_BACKOFF_SCALE]).  A child that exhausts its budget is
      given up on — recorded, never respawn-looped.
    - {b Typed events}: every supervisor decision (restart, give-up,
      wedge kill, drain escalation) is a {!T1000.Fault.Supervisor}
      entry in {!faults} plus a [supervisor.*] metric — the tier's
      incident log.
    - {b Rolling drain}: {!stop} (the CLI wires SIGTERM/SIGINT to it)
      terminates children one at a time, each given [drain_grace_s] of
      graceful drain (their own SIGTERM handler answers everything
      admitted) while the rest keep serving; a child that overstays is
      SIGKILLed and recorded.

    Clients ride failover ({!Client.Failover}) over {!sockets}, so a
    replica dying mid-request is a retry on the next replica, not an
    error — the crash drill in the test suite SIGKILLs a replica under
    load and demands zero dropped requests and byte-identical replies. *)

type config = {
  exe : string;
      (** binary to exec for each child (argv becomes
          [exe serve --socket <path> <serve_args>]); defaults to
          [Sys.executable_name], which is the CLI binary when invoked
          as [t1000 supervise] *)
  replicas : int;
  socket_dir : string;
      (** created (0700) if missing; children listen on
          [replica<i>.sock] and log to [replica<i>.log] inside it *)
  restarts : int;  (** per-child restart budget *)
  health_period_s : float;
  health_timeout_s : float;  (** socket timeout per probe *)
  wedged_after : int;  (** consecutive probe failures before SIGKILL *)
  drain_grace_s : float;  (** per-child graceful-drain allowance *)
  serve_args : string list;
      (** extra [t1000 serve] arguments every child gets
          (e.g. [["--queue"; "64"]]) *)
}

val default_config : unit -> config
(** 3 replicas, 5 restarts each, a 500 ms health period, sockets under
    a pid-stamped temp directory.  [t1000 supervise] overrides them
    from its flags. *)

type t

val create : config -> t
(** Validate and prepare (no processes spawned yet).
    @raise T1000.Fault.Error
      with [Invalid_config] on a non-positive replica count / health
      period, a negative restart budget, [wedged_after < 1], or an
      uncreatable socket directory. *)

val run : t -> unit
(** Spawn every child, then monitor (reap + probe) until {!stop};
    finally rolling-drain every child and return.  Call from the
    thread that created the supervisor (the CLI's main thread; tests
    run it in a [Thread]). *)

val stop : t -> unit
(** Initiate drain.  Async-signal-safe (sets an atomic flag);
    idempotent. *)

val sockets : t -> Server.addr list
(** The children's listen addresses, in replica order — feed to
    {!Client.Failover.create}. *)

val wait_ready : ?timeout_s:float -> t -> (unit, string) result
(** Block until every (not given-up) replica answers a ping, or the
    timeout names the stragglers. *)

val pids : t -> int list
(** Current child pids in replica order (0 = not running) — the crash
    drill picks its SIGKILL victim here. *)

val faults : t -> T1000.Fault.t list
(** Supervisor events so far, oldest first — [Supervisor] entries for
    every restart, wedge kill, give-up and drain escalation. *)

val restarts_total : t -> int
val gave_up : t -> bool
(** Whether any child exhausted its restart budget (the CLI maps this
    to exit code 3: the tier ran, but degraded). *)

val children_status : t -> (int * int * int * Protocol.health option) list
(** [(index, pid, restarts_used, last health snapshot)] per child. *)
