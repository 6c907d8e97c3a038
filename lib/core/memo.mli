(** A compute-once memo table safe to share across {!Pool} workers.

    [find_or_compute] guarantees each key's value is computed by
    exactly one domain; concurrent requesters for the same key block
    until the computation finishes and then share the {e same} value
    (physical equality), which is what lets {!Experiment} assert that a
    penalty sweep runs instruction selection once per workload rather
    than once per swept point.

    A table may carry an LRU capacity ([?cap]): once more than [cap]
    computations have completed, the least-recently-used completed
    binding is evicted (and recomputed on its next request).  This is
    what bounds an {!Experiment} ctx's memos and the serve daemon's
    reply cache — a long-lived multi-tenant process must not grow
    without limit.  Pending slots
    are never evicted, recency stamps are unique, and eviction order is
    a pure function of the lookup order, so an identical request stream
    sees an identical hit/recompute pattern (and, because the pipeline
    is deterministic, byte-identical values either way). *)

type ('k, 'v) t

val create : ?name:string -> ?cap:int -> int -> ('k, 'v) t
(** [create n] is an empty table with initial capacity [n].  With
    [?name], every lookup is counted into the [Obs.Metrics] counters
    [memo.<name>.hits] / [memo.<name>.misses] (a waiter that shares a
    pending computation counts as a hit), every eviction into
    [memo.<name>.evictions], and the completed-binding count is kept in
    the [memo.<name>.size] gauge.  With [?cap], at most [cap] completed
    bindings are retained (LRU eviction).
    @raise Invalid_argument if [cap < 1]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] (outside the table lock, so independent keys compute in
    parallel) and caches it.  If another domain is already computing
    [k], the caller waits for that result instead of recomputing.  If
    [f] raises, the pending slot is cleared (a later caller may retry)
    and the exception propagates to everyone waiting.  Both a hit and
    an insert refresh the key's LRU recency. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** The cached value for [k], if its computation has already
    completed.  Never blocks (a [Pending] slot reads as [None]), does
    not refresh LRU recency, and is not counted into the hit/miss
    telemetry — the serve daemon probes with it to label replies that
    were served from a warm cache. *)

val length : ('k, 'v) t -> int
(** Number of cached (completed) bindings; never exceeds [cap]. *)

val evictions : ('k, 'v) t -> int
(** Cumulative LRU evictions from this table. *)

val env_var : string
(** ["T1000_MEMO_CAP"]. *)

val env_cap : unit -> int option
(** [T1000_MEMO_CAP]: LRU capacity of every {!Experiment} ctx memo and
    of the serve daemon's reply cache ({!default_cap} when unset).
    @raise Fault.Error with [Invalid_config] unless a positive
      integer. *)

val default_cap : int
(** The generous default (1024) applied when [T1000_MEMO_CAP] is
    unset. *)
