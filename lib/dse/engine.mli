(** The design-space exploration engine: deterministic, resumable,
    multi-objective search over a {!Space} of selective configurations.

    Every point is scored on three objectives ({!Pareto.objectives}):
    geomean speedup over the workload suite (maximize), summed LUT area
    of every selected extended instruction across the suite (minimize)
    and PFU count (minimize).  The engine either enumerates the space
    exhaustively ([`Full]) or samples it adaptively ([`Coarse]: the
    coarse first/middle/last grid, then successive-halving neighbor
    refinement around the incumbent frontier).

    {b Dominance pruning.}  Points that differ only in reconfiguration
    penalty form a group: they share their selection tables (penalty is
    simulation-only, see {!T1000.Runner.select_table}), hence their LUT
    area and PFU count, and their speedup is non-increasing in penalty
    (extra reconfiguration stalls never make a run faster) up to the
    timing simulator's cycle-alignment noise.  The engine therefore
    evaluates each group penalty-ascending, and as soon as a member is
    dominated by {e any} measured point with a clear speedup margin
    ({!Pareto.dominates_with_margin}, far above the observed noise),
    the rest of the group is pruned without ever being simulated — the
    same dominator strictly dominates every pruned point, so the
    frontier is exactly the one exhaustive enumeration finds (the
    property suite asserts this).

    {b Determinism and resume.}  Each wave runs through
    {!T1000.Experiment.fan_out} — the experiment drivers' own
    fault-isolated, journaled (workload x point) fan-out, with id
    ["dse"] and {!Space.key} as the point label — and is regrouped per
    point; every decision (wave make-up, pruning, refinement proposals)
    is plain code over the measured values in canonical {!Space} order,
    so the result — and the rendered frontier — is byte-identical at
    any [T1000_NJOBS].  With [?journal], each (point, workload)
    measurement is recorded in the {!T1000.Checkpoint} journal under
    [dse/<workload>/<point key>] as it completes and served from it on
    re-run, so a killed exploration resumes byte-identically.  A point's
    speedups are {!T1000.Experiment.speedup_of}: each against the
    no-PFU baseline on the point's own machine (width and predictor).

    Telemetry: [dse.simulated] counts points whose evaluation was
    requested, [dse.pruned] points skipped by dominance pruning,
    [dse.sim_tasks] / [dse.cached] fresh vs journal-served (point,
    workload) tasks, [dse.rounds] exploration rounds; wave and whole-run
    spans are emitted under the ["dse"] category. *)

type measured = {
  point : Space.point;
  obj : Pareto.objectives;
  per_workload : (string * float) list;
      (** per-workload speedup, in suite order *)
}

type result = {
  space : Space.t;
  sample : [ `Coarse | `Full ];
  budget : int;
  rounds : int;  (** coarse grid + refinement rounds actually run *)
  measured : measured list;  (** canonical space order *)
  frontier : measured list;  (** canonical space order *)
  pruned : Space.point list;  (** canonical space order; never simulated *)
  faulted : Space.point list;  (** canonical space order *)
  faults : T1000.Experiment.point_fault list;
      (** per-(point, workload) faults; a faulted point is excluded
          from {!field-measured} and the frontier *)
}

val default_budget : int
(** Default point budget for {!explore} and the [t1000 dse] CLI (64). *)

val explore :
  ?journal:T1000.Checkpoint.t ->
  ?budget:int ->
  ?sample:[ `Coarse | `Full ] ->
  ?prune:bool ->
  T1000.Experiment.ctx ->
  Space.t ->
  result
(** Explore the space.  [?budget] (default 64) bounds how many points
    may be evaluated; [?sample] (default [`Coarse]) picks exhaustive or
    adaptive coverage; [?prune] (default [true]) enables dominance
    pruning (the [false] setting exists for the property tests, which
    diff pruned against unpruned frontiers).
    @raise T1000.Fault.Error with [Invalid_config] on an invalid space
    or non-positive budget. *)

val eval_point : T1000.Experiment.ctx -> Space.point -> measured
(** Score one point sequentially on the calling domain (no pool, no
    journal), raising on the first fault — the primitive the
    [examples/design_space.ml] grid driver and the agreement tests are
    built on.  [explore] measures exactly this value for every point it
    visits. *)

val pp_frontier : Format.formatter -> result -> unit
(** The frontier table plus a one-line exploration summary (evaluated /
    pruned / faulted counts) — the [t1000 dse] stdout. *)

val to_json : result -> T1000_obs.Json.t
(** Machine-readable report: the space, the exploration counters, every
    measured point with its objectives and frontier membership, and the
    fault list. *)
