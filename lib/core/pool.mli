(** A small OCaml 5 [Domain]-based worker pool for the experiment
    engine.

    Every sweep in {!Experiment} is a bag of independent, deterministic
    (workload x configuration) simulations, so the engine fans them out
    over domains with {!parallel_map_result} and reassembles the
    results in input order.  Because each task is pure (no shared
    mutable state beyond the mutex-protected memo tables in
    {!Experiment}), parallel results are bit-identical to sequential
    ones; the test suite asserts this.

    The default worker count comes from the [T1000_NJOBS] environment
    variable when set, else {!Domain.recommended_domain_count}.  At
    [T1000_NJOBS=1] the one worker loop runs on the calling domain and
    spawns no domain. *)

val default_njobs : unit -> int
(** Worker count used when [?njobs] is not given: the value of the
    [T1000_NJOBS] environment variable if set and non-empty, else
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument
      if [T1000_NJOBS] is set to anything other than a positive
      integer (or the empty string, which counts as unset). *)

val parallel_map_result :
  ?njobs:int ->
  ?retries:int ->
  ?on_result:(int -> ('b, Fault.t) result -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, Fault.t) result list
(** [parallel_map_result f xs] applies [f] to every element of [xs]
    on [njobs] workers (the calling domain plus [njobs - 1] spawned
    domains) pulling tasks from one shared queue, and returns the
    results in input order regardless of completion order.  At
    [njobs = 1] (explicitly, or via [T1000_NJOBS=1]) the same loop runs
    on the calling domain alone: no domain is spawned, tasks run in
    input order and no worker is ever killed.

    Every application of [f] that raises yields
    [Error (Fault.of_exn e)] {e for that element only} — no task is
    abandoned, all remaining elements still run, and the result list
    pairs every input with either its value or its classified fault.
    This is what lets a sweep return partial rows plus a fault report
    instead of aborting the figure.

    [?retries] bounds how many times a {!Fault.transient} failure
    ([Injected]/[Crashed]) of one element is retried, with capped
    exponential backoff (1 ms doubling to a 50 ms cap) between
    attempts, run inline on the same worker; deterministic faults are
    never retried.  Default: the [T1000_RETRIES] environment variable
    when set, else 10 under chaos mode (see below), else 0 — so a
    deterministic injection via [T1000_FAULT_INJECT] still surfaces as
    it did before.

    {b Chaos mode.}  Setting [T1000_CHAOS=p] (a probability in
    [\[0, 1)]) makes the pool adversarial: each task attempt fails with
    a transient [Fault.Injected] with probability [p], and with
    probability [p/2] per dequeue (for [njobs > 1]) a worker domain
    "dies" mid-sweep — it requeues its task, spawns a replacement
    domain, and exits.  Every chaos decision is a pure hash of
    ([T1000_CHAOS_SEED], task index, per-task counter), never of
    wall-clock or scheduling, so with retries available the surviving
    results are identical to a calm run at any worker count — the soak
    tests and [ci.sh] diff the two byte-for-byte.  {!chaos_events} exposes cumulative
    injection/kill counters for such assertions.

    [?on_result] is invoked once per element, with the element's input
    index, as soon as its final (post-retry) result is known
    (completion order, under an internal mutex — so a {!Checkpoint}
    journal can be appended to incrementally while later tasks are
    still running).  An exception escaping [on_result] itself (e.g.
    the journal's disk filling up) no longer aborts the map: it is
    recorded as that element's [Fault.Crashed] (prefixed
    ["on_result: "]), further notifications are suppressed, and every
    other element still completes normally. *)

val run_result :
  ?index:int -> ?retries:int -> (unit -> 'a) -> ('a, Fault.t) result
(** Request-level submission: run one task through the same attempt
    envelope as one element of {!parallel_map_result} — exceptions
    classified into {!Fault.t}, deterministic chaos injection, and
    transient-fault retry with capped exponential backoff — without
    building a list map.  [?index] keys the chaos hash (pass a request
    sequence number so each request draws an independent, reproducible
    fate); [?retries] defaults exactly as in {!parallel_map_result}
    ([T1000_RETRIES], else 10 under chaos, else 0).  This is what the serve daemon's
    workers wrap every request in. *)

val chaos_kill_worker : index:int -> pops:int -> bool
(** The deterministic chaos worker-kill decision for long-lived worker
    loops that are not a map (the serve daemon's domains): [true] with
    probability [p/2] keyed on ([T1000_CHAOS_SEED], [index], [pops]),
    incrementing the [pool.chaos.killed] counter when it fires.  [pops] should count how many times the work item has been
    dequeued, so a requeued item draws a fresh decision.  Always [false]
    when chaos is off. *)

val backoff_delay : int -> float
(** Backoff (seconds) before retry [attempt] (0-based): 1 ms doubling
    per attempt, capped at 50 ms, the whole schedule multiplied by
    [T1000_BACKOFF_SCALE] (default 1; 0 disables sleeping entirely, for
    tests and CI soak runs). *)

val env_backoff_scale : unit -> float
(** The backoff multiplier from [T1000_BACKOFF_SCALE] (1.0 when
    unset/empty; 0 allowed).
    @raise Fault.Error
      with [Invalid_config] if set to a negative or non-float value. *)

val env_chaos : unit -> float
(** The chaos probability from [T1000_CHAOS] (0.0 when unset/empty).
    @raise Fault.Error
      with [Invalid_config] if set to anything outside [\[0, 1)]. *)

val env_chaos_seed : unit -> int
(** The chaos hash seed from [T1000_CHAOS_SEED] (1 when unset/empty).
    @raise Fault.Error with [Invalid_config] if set to a non-integer. *)

val env_retries : unit -> int option
(** The retry override from [T1000_RETRIES] ([None] when unset/empty).
    @raise Fault.Error
      with [Invalid_config] if set to a negative or non-integer
      value. *)

val chaos_events : unit -> int * int
(** Cumulative ([injected], [killed]) chaos-event counters across all
    {!parallel_map_result} and {!run_result} calls in this process;
    tests subtract
    before/after snapshots to assert chaos actually perturbed a run.

    The counters are backed by the [Obs.Metrics] counters
    [pool.chaos.injected] and [pool.chaos.killed] — this accessor is a
    facade over the merged metric view.  The pool also records
    [pool.maps] / [pool.tasks] / [pool.retries] counters, the
    [pool.task_wait_ms] queue-wait histogram and the [pool.busy_s] /
    [pool.wall_s] accumulators (worker utilization is
    [busy / (wall x njobs)]; busy time includes retry backoff, which
    holds the worker), and emits one [pool.map] span per map and one
    [pool.task] span per element when tracing is enabled. *)
