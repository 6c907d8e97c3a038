(** Register Update Unit (Sohi's RUU): the combined reorder
    buffer / scheduling window used by the paper's simulator.

    Entries live in a ring buffer addressed by monotonically increasing
    sequence numbers, so a dependence recorded as a sequence number
    stays valid after the producer commits (a committed producer is
    simply "ready").  Dispatch pushes at the tail, commit pops from the
    head in order.

    {2 Event-driven scheduling}

    The window also owns the issue scheduler, so the issue stage visits
    only entries that can issue instead of rescanning the window every
    cycle.  At dispatch ({!schedule}) an entry counts its producers that
    have not issued yet and hangs a waiter record on each of them;
    producers that already issued contribute their result cycle.  When
    the last producer issues ({!issue}) the entry's {e ready cycle} is
    final: [max(min_issue, every producer's complete_at)].  Entries
    whose ready cycle has come sit in a seq-ordered {e ready list}.
    Entries ready exactly one cycle later — every dispatch with no
    unissued producer, and most consumers of 1-cycle producers — wait
    in a flat {e next-cycle list} stamped with that cycle; later ones
    wait in a min-heap on the ready cycle.  {!wake} moves due entries
    from both over at the start of each issue pass.  If a caller
    enqueues for a new cycle while an older batch is still undrained,
    the batch is spilled into the heap first, so a skipped {!wake}
    loses or delays nothing.

    This reproduces the old per-cycle predicate exactly.  A producer
    leaves the window only after its result is available, so "every
    producer committed, or issued with [complete_at <= now]" is the
    same as "every producer issued, and [now >= ready cycle]".  The
    ready list is walked oldest first, as the scan was, so D-cache
    probes and PFU releases happen in the same order.

    A producer with latency 0 wakes its consumers within the pass that
    issues it: a consumer whose ready cycle is [now] joins the ready
    list behind the producer, where the same walk reaches it.

    Squash ({!truncate}) can hand a dropped sequence number to a new
    entry, so next-cycle, heap and waiter records name their entry by
    a per-dispatch [id] that is never reused; records of dropped
    entries are recognised by a mismatched id and discarded. *)

type entry = {
  ri : int;  (** ring index: the entry's fixed position in the window *)
  mutable slot : int;  (** static instruction index *)
  mutable mem_addr : int;  (** effective address, -1 if none *)
  mutable eid : int;  (** extended-instruction id, -1 otherwise *)
  mutable pfu_unit : int;  (** PFU executing this entry, -1 otherwise *)
  mutable min_issue : int;  (** earliest issue cycle (PFU config load) *)
  mutable dep1 : int;  (** producer sequence numbers; -1 = no dep *)
  mutable dep2 : int;
  mutable dep3 : int;  (** memory (store-to-load) dependence *)
  mutable issued : bool;
  mutable complete_at : int;  (** result-available cycle; [max_int]
                                  until issued *)
  mutable seq : int;
  mutable id : int;
      (** per-dispatch id, never reused within one window; [-1] once
          squashed.  The fields below are scheduler state, written only
          by this module. *)
  mutable pending : int;  (** producers that have not issued yet *)
  mutable ready_at : int;
      (** earliest issue cycle, final once [pending = 0] *)
  mutable waiters : int;  (** head of this producer's waiter records *)
  mutable in_ready : bool;  (** on the ready list *)
  mutable prev_ready : int;
  mutable next_ready : int;
      (** ready-list neighbours by ring index, -1 at either end *)
}

type t

val create : size:int -> t
(** A window of [size] entries.  The ring's capacity is [size] rounded
    up to a power of two, so a sequence number's ring index is a mask
    rather than a division.  [size] alone bounds the occupancy
    ({!is_full}), so at most [size] slots are in use at once.
    @raise Invalid_argument if [size <= 0]. *)

val size : t -> int
(** The [size] given to {!create}, not the rounded-up capacity. *)

val occupancy : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val head_seq : t -> int
(** Sequence number of the oldest in-flight entry; equals {!tail_seq}
    when empty. *)

val tail_seq : t -> int
(** Sequence number the next dispatched entry will get. *)

val push : t -> entry
(** Allocate the tail entry (fields are reset to defaults, [seq] and a
    fresh [id] assigned); caller fills it in and then calls
    {!schedule}.
    @raise Invalid_argument when full. *)

val get : t -> int -> entry
(** Entry for an in-flight sequence number.
    @raise Invalid_argument if not in flight. *)

val at : t -> int -> entry
(** Entry at a ring index ([entry.ri]). *)

val in_flight : t -> int -> bool
(** Whether the sequence number is still in the window ([>= head_seq]).
    Numbers below [head_seq] have committed. *)

val pop : t -> entry
(** Commit the head entry.
    @raise Invalid_argument when empty. *)

val truncate : t -> tail:int -> unit
(** Branch-misprediction squash: drop every entry with sequence number
    [>= tail] (they are younger than the mispredicted branch), taking
    them off the ready list and retiring their ids.  The ring slots are
    reused — and every field reset — by later pushes, which reassign
    the dropped sequence numbers.  Callers must therefore purge any
    external references to dropped seqs (rename map, store bindings)
    before dispatching again.
    @raise Invalid_argument if [tail] is outside [\[head_seq,
    tail_seq\]]. *)

(** {2 Scheduler} *)

val schedule : t -> entry -> now:int -> unit
(** Enter a just-pushed entry into the scheduler, at dispatch in cycle
    [now], once its [min_issue] and [dep1]..[dep3] are filled in. *)

val wake : t -> now:int -> unit
(** Move every entry whose ready cycle is [<= now] onto the ready
    list, from the next-cycle list and from the heap.  Call once at the
    start of each issue pass; it must run at every cycle [>= next_wake]
    that issues, or entries due then are not on the ready list. *)

val next_wake : t -> int
(** The earliest ready cycle waiting in the next-cycle list or the
    heap, whichever is earlier, [max_int] when both are empty: no entry
    joins the ready list before this cycle unless an issue or a
    dispatch happens first.  The record may belong to a squashed entry,
    so the bound is conservative, never late. *)

val first_ready : t -> int
(** Ring index of the oldest ready entry, -1 if none.  Walk on with
    [entry.next_ready]. *)

val issue : t -> entry -> now:int -> latency:int -> unit
(** Issue a ready entry: [complete_at = now + latency]; take it off
    the ready list (its [next_ready] still names its successor, so a
    walk can continue from it) and wake its consumers, which join the
    ready list — behind it, within this pass, when their ready cycle
    is [now] — the next-cycle list, or the heap. *)

(** {2 Audits} *)

val audit_ready : t -> now:int -> string option
(** Scheduler reference check for the simulator's self-check mode:
    after {!wake}, the ready list must hold exactly the window entries
    that satisfy the per-cycle readiness predicate of the window scan
    the scheduler replaced (kept here as the reference, used nowhere
    else), in seq order.  [None] when it does, [Some description] of
    the first difference otherwise. *)

val audit_waiting : t -> string option
(** Waiting-set check for the simulator's self-check mode, valid
    between any two calls: every unissued window entry with no
    unissued producer that is not on the ready list has exactly one
    live wake record, in the next-cycle list or in the heap, carrying
    its [id] and its [ready_at], and {!next_wake} is no later than that
    [ready_at]; no other entry, in the window or out of it, has a live
    record.  It catches a lost or duplicated record while the entry is
    still waiting, before {!audit_ready} could.  [None] when it holds,
    [Some description] of the first difference otherwise. *)

val selfcheck : t -> string option
(** Structural-invariant audit used by the simulator's opt-in
    self-check mode: head/tail ordering, occupancy within the window,
    every in-flight entry stored at its ring slot with its own sequence
    number, dependences strictly older than their consumer,
    [issued]/[complete_at] consistency, and non-negative producer
    counts that are zero once issued.  [None] when all invariants
    hold, [Some description] of the first violation otherwise. *)
