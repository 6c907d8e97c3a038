(** Cycle-level, trace-driven simulation of the T1000 core.

    Pipeline model per cycle (walked back-to-front so that results
    produced in cycle [c] can feed instructions issuing in cycle [c]
    through the bypass network, and newly dispatched instructions issue
    no earlier than the following cycle):

    + {b commit} — up to [commit_width] completed entries leave the RUU
      head in order;
    + {b issue} — up to [issue_width] ready entries start execution,
      oldest first, subject to functional-unit availability; loads and
      stores probe the data cache here; extended instructions
      additionally require their configuration to be loaded
      ([min_issue]) and their PFU free this cycle;
    + {b dispatch} — up to [decode_width] instructions move from the
      fetch queue into the RUU; extended instructions perform the
      decode-stage configuration check against the {!Pfu_file} (a miss
      starts a reconfiguration; a fully pinned file stalls dispatch);
      register and store-to-load dependences are recorded;
    + {b fetch} — up to [fetch_width] instructions enter the fetch
      queue, stopping at taken branches and stalling on instruction-
      cache misses.  There is one fetch stage and one predictor,
      [Mconfig.bpred] ({!T1000_bpred.Predictor}).  Fetch follows the
      {e predicted} path.  The default, [Perfect] (paper Section 3.1),
      is the predictor that is always right, so fetch follows the
      committed path exactly.  Under a real predictor, wrong-path
      instructions are synthesized
      from the static program image, dispatched into the RUU and PFU
      file, and squashed (window truncation, rename-map restore,
      configuration-pin release, history rollback) when the
      mispredicted branch resolves.  Squashed instructions never
      commit, so the committed instruction count is
      predictor-independent.  See DESIGN.md Section 5j.

    Memory disambiguation is perfect: effective addresses come from the
    functional interpreter, and a load waits only for older in-flight
    stores to the same word.

    The stages read a pre-decoded {!Image} of the program, built once
    per run, and issue is event driven ({!Ruu}): entries join a ready
    list when their last producer issues instead of being found by a
    per-cycle window scan.  After a cycle in which nothing happens, the
    loop jumps straight to the next cycle at which something can,
    adding the skipped cycles' stall counts and RUU occupancy in bulk;
    the statistics are exactly those of executing every cycle.  See
    DESIGN.md Section 5k. *)

open T1000_isa
open T1000_asm
open T1000_machine

(** Diagnostic snapshot carried by {!Sim_stuck}: where the simulation
    was when the watchdog fired — program position (RUU head slot and
    instruction), window occupancy, fetch-queue depth and PFU-file
    statistics — so a stuck sweep point can be triaged from the fault
    report alone. *)
type stuck = {
  reason : [ `Cycle_budget | `No_commit ];
      (** [`Cycle_budget]: total cycles exceeded the budget;
          [`No_commit]: the RUU was non-empty but nothing committed for
          {!Mconfig.t.progress_window} cycles (scheduling deadlock) *)
  cycle : int;  (** cycle at which the watchdog fired *)
  limit : int;  (** the budget or window that was exceeded *)
  committed : int;  (** instructions committed so far *)
  head_slot : int;  (** static slot of the RUU head, -1 if empty *)
  head_instr : string;  (** rendered RUU-head instruction *)
  ruu_occupancy : int;
  ruu_size : int;
  ifq_length : int;
  pfu : string;
      (** PFU-file hits and misses and the dispatch stalls on the file,
          rendered as
          [pfu: H hits, M misses/reconfigs, S dispatch stalls] *)
}

exception Sim_stuck of stuck
(** The watchdog tripped: runaway or deadlocked simulation. *)

exception Selfcheck_violation of string
(** An RUU, scheduler or PFU-file invariant failed under
    [~selfcheck:true] — always a simulator bug, never a property of the
    simulated program. *)

val pp_stuck : Format.formatter -> stuck -> unit

val env_max_cycles : unit -> int option
(** The [T1000_MAX_CYCLES] environment cap on
    {!Mconfig.t.max_cycles}, if set and non-empty: {!run} uses the
    smaller of the two.
    @raise Invalid_argument
      if the variable holds anything other than a positive integer. *)

val run :
  ?mconfig:Mconfig.t ->
  ?ext_latency:(int -> int) ->
  ?ext_eval:(int -> Word.t -> Word.t -> Word.t) ->
  ?selfcheck:bool ->
  init:(Memory.t -> Regfile.t -> unit) ->
  Program.t ->
  Stats.t
(** Simulate the program to completion.

    Two watchdogs bound every run: a total cycle budget
    ([mconfig.max_cycles], or the [T1000_MAX_CYCLES] environment
    variable when that is smaller) and a forward-progress check (no
    commit for [mconfig.progress_window] cycles while instructions are
    in flight).
    Either tripping raises {!Sim_stuck} with a diagnostic snapshot
    instead of looping forever.

    [~selfcheck:true] additionally audits the RUU and PFU-file
    structural invariants after every committing cycle
    ({!Ruu.selfcheck}, {!Pfu_file.selfcheck}) and the issue
    scheduler's ready list and waiting set at the start and end of
    every issue pass ({!Ruu.audit_ready}, {!Ruu.audit_waiting}), and
    executes every dead cycle instead of
    skipping it, checking that each one repeats the quiet cycle that
    opened its span until the predicted event horizon.  It raises
    {!Selfcheck_violation} on the first violation.  Statistics are
    unaffected.

    Besides the statistics, a run adds to [Obs.Metrics] counters
    ([sim.runs], [sim.cycles], stall and PFU counts, ...) and to
    [sim.skipped_cycles]: the dead cycles elided by skipping, or under
    self-check the cycles audited in their place, so the counter is the
    same in both modes.
    @raise T1000_machine.Interp.Fault on architectural faults.
    @raise Sim_stuck when a watchdog fires.
    @raise Selfcheck_violation under [~selfcheck:true] on an invariant
      violation. *)
