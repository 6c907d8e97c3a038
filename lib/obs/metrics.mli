(** Domain-safe process-wide metrics: counters, gauges, timers and
    log-bucketed histograms.

    Every recording operation writes only to the calling domain's
    private shard (a [Domain.DLS] slot), so the hot paths — the
    simulator, the worker pool, the memo tables — record events with no
    locking and no cross-domain contention.  {!snapshot} merges all
    shards into one read-only view: counters and timers sum, gauges
    take the maximum, histograms add bucket-wise.

    {b Determinism contract.}  Metrics are strictly observational:
    nothing in this module feeds back into simulation results, and no
    metric is printed unless a caller explicitly asks ({!pp},
    [T1000_METRICS=1], [t1000_cli stats]).  Recorded {e values} (timer
    seconds, wait histograms) vary run to run; the {e streams they
    describe} do not.

    Counter increments are plain (per-domain) writes; a {!snapshot}
    taken while worker domains are still recording may lag their most
    recent events.  After the domains have been joined (every
    [Pool.parallel_map_result] joins before returning) the merged
    view is exact — the test suite relies on this. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter. *)

val add_float : string -> float -> unit
(** Add to the named float accumulator (e.g. seconds of busy time). *)

val set_gauge : string -> float -> unit
(** Set the named gauge in this domain's shard; the merged value is the
    maximum across shards. *)

val observe : string -> float -> unit
(** Record one sample into the named log-bucketed histogram. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()], adding its wall-clock duration to the
    [name ^ ".seconds"] float accumulator and bumping the
    [name ^ ".calls"] counter — even when [f] raises.  This is how the
    benchmark's per-phase breakdown ([core.phase_*_pct]) is sourced. *)

val get : string -> int
(** Merged value of a counter (0 when never written). *)

val get_float : string -> float
(** Merged value of a float accumulator (0.0 when never written). *)

(** {1 Histogram buckets}

    Buckets are powers of two: bucket 0 holds samples below 1 (and
    non-finite ones), bucket [k >= 1] holds samples in
    [[2{^k-1}, 2{^k})].  64 buckets cover every finite float the
    system records; the top bucket absorbs the overflow. *)

val n_buckets : int
val bucket_of : float -> int
val bucket_lo : int -> float
(** Inclusive lower bound of a bucket ([neg_infinity] for bucket 0). *)

val bucket_hi : int -> float
(** Exclusive upper bound of a bucket. *)

type histogram = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when [count = 0] *)
  max : float;  (** [neg_infinity] when [count = 0] *)
  buckets : (int * int) list;
      (** (bucket index, samples) for non-empty buckets, ascending *)
}

type snapshot = {
  counters : (string * int) list;
  fcounters : (string * float) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}
(** All four sections sorted by name, so rendering a snapshot is
    deterministic given the same recorded events. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every shard.  Only meaningful while no worker domain is
    recording (tests, and the bench harness between timing legs). *)

val pp : Format.formatter -> snapshot -> unit
(** Flat text dump, one metric per line, sections sorted by name. *)

val to_json : snapshot -> Json.t
