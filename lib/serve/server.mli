(** The selection-as-a-service daemon behind [t1000 serve].

    A long-running server that accepts {!Protocol} frames over Unix and
    TCP sockets, runs the paper's profile → select → verify → simulate
    pipeline per request on a pool of worker domains, and answers with
    the chosen extended instructions' predicted speedup and LUT cost.
    The robustness envelope is the point:

    - {b Backpressure}: admission goes through a bounded {!Squeue};
      when it is full the request is shed with a typed [Overloaded]
      reply immediately — a client is never blocked or silently
      dropped.  A select whose reply is already cached skips the
      queue: the connection thread answers it at once, so it never
      waits behind a running simulation and a full queue cannot shed
      it (a draining server still does).
    - {b Deadlines}: each request may carry a wall-clock deadline
      (enforced by a server-side timer: the reply is a typed [Timeout]
      whether the request is still queued or already running) and a
      simulator cycle budget (enforced by the existing {!T1000_ooo.Sim}
      watchdog, whose RUU/PFU diagnostic snapshot rides back in the
      reply).
    - {b Fault isolation}: one poisoned request — unknown workload,
      unparsable assembler, invalid setup, stuck simulation, crashed
      worker task — produces a typed error reply for that request only;
      the daemon keeps serving.
    - {b Retry with backoff}: every request runs under
      {!T1000.Pool.run_result}, so transient faults (chaos injection,
      crashes) are retried with capped exponential backoff
      ([T1000_RETRIES] times) before an error is returned.
    - {b Chaos}: under [T1000_CHAOS] the worker domains are adversarial
      exactly like the experiment pool's — tasks draw deterministic
      injected faults, and a worker can "die" mid-queue, re-queue its
      request at the front and respawn a replacement domain.
    - {b Graceful drain}: {!stop} (wired to SIGTERM by the CLI) stops
      accepting, answers everything already admitted (or deadline-
      cancels it), rejects late arrivals with a typed reply, closes all
      connections, joins every worker and returns — no request is ever
      dropped without a reply.

    Evaluation: every request is evaluated through one long-lived
    {!T1000.Experiment.ctx} ({!T1000.Experiment.run_setup} and
    {!T1000.Experiment.baseline_for}), the same path as the batch
    drivers and the CLI, so analyses, selection tables and simulations
    are shared between requests (and between setups that simulate the
    same inputs).  A submitted assembler kernel is a workload named by
    its digest ([asm:<md5 of the text>]).  Whole outcomes are kept in a
    reply cache keyed on the request (deadline aside), probed at
    admission before the queue, so repeated tenants get warm-cache
    latencies whatever the workers are running (the [cached] reply
    flag tells them; a probe hit refreshes the reply's LRU recency).
    Every one of these memos keeps at most [T1000_MEMO_CAP]
    entries. *)

type addr = Unix_sock of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val addr_to_string : addr -> string

type config = {
  addrs : addr list;  (** listen addresses (at least one) *)
  queue_depth : int;  (** bounded admission queue capacity *)
  njobs : int;  (** worker domains *)
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline of their own *)
  max_steps : int;
      (** functional-execution step cap when profiling
          client-submitted kernels ({!T1000.Runner.analyze}), so a
          non-halting program is a typed fault, not a wedged worker;
          a rewritten program is bounded by the simulator's cycle
          watchdog instead *)
}

val default_config : unit -> config
(** No address ({!create} insists the caller names one), queue depth
    64, [T1000_NJOBS] workers, no default deadline, 10M functional
    steps.  [t1000 serve] overrides them from its [--socket]/[--tcp],
    [--queue], [--deadline] and [--max-steps] flags. *)

val validate : config -> unit
(** The bounds {!create} checks before it binds, addresses aside:
    [t1000 supervise] runs them on the values it forwards to its
    replicas, so a bad flag exits 2 before any replica starts.
    @raise T1000.Fault.Error
      with [Invalid_config] on a non-positive queue depth / worker
      count / step cap, or a default deadline that is not a positive
      finite number. *)

type t

val create : config -> t
(** Bind and listen on every address.  A pre-existing Unix socket file
    is replaced (stale sockets from a killed daemon must not wedge a
    restart); TCP port 0 binds an ephemeral port (see {!bound_addrs}).
    @raise T1000.Fault.Error
      with [Invalid_config] on an empty address list, a value
      {!validate} rejects, or an unbindable address. *)

val bound_addrs : t -> addr list
(** The addresses actually listening, with ephemeral TCP ports
    resolved. *)

val run : t -> unit
(** Serve until {!stop}, then drain and return: every admitted request
    answered, listeners closed (Unix socket paths unlinked), workers
    joined, connections closed.  Call from the thread that created the
    server; telemetry (the [serve.*] metrics) is flushed into
    {!T1000_obs.Metrics} throughout. *)

val stop : t -> unit
(** Initiate graceful drain.  Safe to call from a signal handler or
    any thread; idempotent. *)

val answered : t -> int
(** Requests answered so far (ok, error and shed replies included) —
    the CLI prints this in its drain summary. *)

val health : t -> Protocol.health
(** The liveness snapshot the wire [`Health] op answers with: uptime,
    queue depth and capacity, in-flight count, reply count, live
    workers, chaos counters, and the sizes of the ctx's ["analysis"],
    ["run"] and ["tables"] memos and of the ["results"] reply cache,
    with their cumulative LRU evictions.  Lock-light: never blocks on
    request traffic. *)
