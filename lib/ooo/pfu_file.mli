(** The PFU file: a small "configuration cache" of programmable
    functional units.

    At decode, an extended instruction's [Conf] field is compared
    against the ID tag saved in each PFU (paper Section 2.2).  A match
    is a hit; otherwise configuration bits are loaded into a victim PFU
    (LRU by default) which stays busy for the reconfiguration penalty
    before the instruction may issue.

    A configuration cannot be evicted while an already-dispatched
    instruction still needs it (the unit is {e pinned}); if every unit
    is pinned, dispatch must stall and retry.  Pins are released when
    the instruction issues. *)

type t

val create :
  n:int option ->
  penalty:int ->
  replacement:Mconfig.pfu_replacement ->
  t
(** [n = None] models an unlimited PFU file: every configuration gets
    its own unit and pays the load penalty once, on first use.

    A file of [Some n] units asked for at most [n] distinct
    configurations behaves exactly like the unlimited one, whatever its
    [replacement]: a unit is only loaded for a configuration no unit
    holds, a loaded unit is never emptied again, and empty units are
    never pinned, so while fewer than [n] configurations have been
    loaded the victim search always finds an empty unit.  Nothing is
    evicted, no request stalls and [Random_det] never draws; each
    configuration keeps one unit from its first load on, so hits,
    misses, prefetches, ready times and the simulator's per-unit busy
    stamps match the unlimited file's (the unit ids differ, by a
    bijection).  A file never asked for a configuration behaves the
    same at any size, penalty and policy.

    A file of [Some 1] unit behaves the same under every [replacement]:
    the victim search takes the unit if it is empty, else the unit if
    it is unpinned, else none, whatever the policy; [Random_det] draws
    [next mod 1 = 0], the same unit, and its generator is read nowhere
    else.  The run memo's key ([Runner.inputs_key]) relies on all three
    facts. *)

type outcome =
  | Ready of {
      unit_id : int;  (** which PFU will execute the instruction *)
      at : int;  (** earliest issue cycle (configuration loaded) *)
      hit : bool;  (** tag matched at decode *)
    }
  | Stall  (** every unit is pinned by older configurations; retry *)

val request : t -> now:int -> conf:int -> outcome
(** Decode-stage configuration check.  On [Ready] the unit's pin count
    is incremented. *)

val claim : t -> now:int -> conf:int -> int
(** {!request} without the allocation, for the simulator's dispatch
    stage: the [Ready] unit id, or [-1] for [Stall].  The issue cycle
    is then [max now (ready_at t ~unit_id)]. *)

val ready_at : t -> unit_id:int -> int
(** The cycle the unit's configuration is (or was) loaded. *)

val release : t -> unit_id:int -> unit
(** Called when the requesting instruction issues. *)

val prefetch : t -> now:int -> conf:int -> unit
(** Best-effort configuration prefetch (the [cfgld] hint): if the
    configuration is absent and an unpinned unit exists, start loading
    it; otherwise do nothing.  Never stalls, never counts as a hit or
    miss. *)

val prefetches : t -> int
(** Loads started by {!prefetch}. *)

val hits : t -> int

val misses : t -> int
(** Tag misses; every one loads a configuration (a reconfiguration).
    A [Stall] is neither, and changes no state of the file at all (no
    counter, pin, recency or random draw): the simulator counts its
    dispatch stalls itself, and its dead-cycle skip relies on a
    stalled retry repeating identically. *)

val selfcheck : t -> string option
(** Structural-invariant audit used by the simulator's opt-in
    self-check mode: non-negative hit, miss and prefetch counters,
    non-negative pin counts, and no configuration tag loaded into two
    units at once.
    [None] when all invariants hold, [Some description] of the first
    violation otherwise. *)
