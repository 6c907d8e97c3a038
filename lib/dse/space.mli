(** The design space the DSE engine explores: seven axes over the
    selective-selection configuration of {!T1000.Runner.setup}.

    A {!point} is one concrete configuration — PFU count,
    reconfiguration penalty, LUT budget, PFU replacement policy,
    selective gain threshold, machine width and front-end branch
    predictor — and maps onto a validated [Runner.setup] via {!setup}.
    Axis values live in sorted, deduplicated lists; {!enumerate} walks
    them in a fixed nested order (penalty innermost, bpred outermost),
    which is the canonical order every engine output is reported in, so
    exploration results are byte-identical at any worker count. *)

type point = {
  pfus : int;  (** number of PFUs (finite; the DSE never sweeps unlimited) *)
  penalty : int;  (** PFU reconfiguration penalty, cycles *)
  lut_budget : int;  (** per-instruction LUT budget *)
  replacement : T1000_ooo.Mconfig.pfu_replacement;
  gain : float;  (** selective gain-ratio threshold *)
  width : int;  (** machine width preset: 2, 4 or 8 *)
  bpred : T1000_bpred.Predictor.spec;
      (** front-end branch predictor ({!T1000_ooo.Mconfig.t.bpred}) *)
}

type t = {
  ax_pfus : int list;
  ax_penalties : int list;
  ax_lut_budgets : int list;
  ax_replacements : T1000_ooo.Mconfig.pfu_replacement list;
  ax_gains : float list;
  ax_widths : int list;
  ax_bpreds : T1000_bpred.Predictor.spec list;
}

val default : t
(** The default space: PFUs 1/2/4/8, penalties 0/10/50/100/500,
    LUT budgets 75/150/300, all three replacement policies, gain
    thresholds 0.001/0.005/0.02, machine widths 2/4/8, and the single
    [Perfect] predictor (the paper's fetch model) — 1620 points.
    Widening [ax_bpreds] multiplies the space; keys of [Perfect]
    points never change ({!key}). *)

val validate : t -> unit
(** Reject empty axes and out-of-range values (non-positive PFU counts
    or LUT budgets, negative penalties, gains outside [0, 1], widths
    other than 2/4/8, predictor table bits outside
    [{!T1000_bpred.Predictor.min_bits}, max_bits]).
    @raise T1000.Fault.Error with [Invalid_config]. *)

val size : t -> int
(** Number of points ({!enumerate} length). *)

val enumerate : t -> point list
(** Every point, in the canonical nested-axis order: bpred (outermost),
    pfus, lut_budget, replacement, gain, width, penalty (innermost — so
    the members of each penalty-monotone group are adjacent and
    ascending). *)

val coarse : t -> t
(** The coarse-grid subspace: each axis reduced to its first, middle
    and last values (axes of three or fewer values are kept whole). *)

val rank : t -> point -> int
(** Position of a point in {!enumerate}[ t], computed without
    materializing the list.
    @raise T1000.Fault.Error with [Invalid_config] when a coordinate is
    not on the corresponding axis. *)

val compare_points : t -> point -> point -> int
(** Canonical order of two points of the space (their {!enumerate}
    positions). *)

val refine : t -> stride:int -> point -> point list
(** Neighbor proposals around a point for one refinement round: for
    each axis in turn, the points whose index on that axis (in the full
    space [t]) is the point's index minus/plus [stride], all other
    coordinates unchanged.  Out-of-range indices propose nothing. *)

val initial_stride : t -> int
(** Starting stride for successive-halving refinement:
    [max 1 ((longest_axis - 1) / 4)]. *)

val repl_to_string : T1000_ooo.Mconfig.pfu_replacement -> string
(** ["lru"], ["fifo"] or ["rand"]: the spelling {!key}, [--axes] and
    the JSON report use. *)

val key : point -> string
(** Stable identifier, e.g. ["p2.pen10.lut150.lru.g0.005.w4"] — used as
    the checkpoint-journal key component, the fault-report point label
    and the row label of the frontier table.  A non-[Perfect] predictor
    appends its canonical spelling
    (["p2.pen10.lut150.lru.g0.005.w4.gshare@12"]); [Perfect] is elided
    so pre-existing journals keep resolving. *)

val group_key : point -> string
(** {!key} with the penalty elided: members of one group differ only in
    reconfiguration penalty, share their selection table (and hence
    LUT area), PFU count and predictor, and have speedup non-increasing
    in penalty up to the simulator's cycle-alignment noise — the
    near-monotonicity the engine's margin-guarded dominance pruning
    rests on. *)

val machine_of_width : int -> T1000_ooo.Mconfig.t
(** The machine preset for a width-axis value: 2 → 2-wide/RUU 32,
    4 → the default 4-wide/RUU 64, 8 → 8-wide/RUU 128 (the same
    presets as the A5 ablation).
    @raise T1000.Fault.Error with [Invalid_config] on other widths. *)

val setup : point -> T1000.Runner.setup
(** The validated selective [Runner.setup] for a point. *)

val of_spec : string -> (t, string) result
(** Parse a [--axes] override, e.g.
    ["pfus=1,2,4:penalty=0,100:lut=150:repl=lru,fifo:gain=0.005:width=4"].
    Colon-separated [axis=v,v,...] groups; omitted axes keep their
    {!default} values; values are sorted and deduplicated.  Axis names:
    [pfus], [penalty], [lut], [repl] ([lru]/[fifo]/[rand]), [gain],
    [width], [bpred].  Predictor values use the ['@'] bits spelling
    ([bpred=perfect,bimodal@11,gshare@12]) since [':'] delimits the
    groups. *)

val pp : Format.formatter -> t -> unit
(** One line per axis, e.g. for the run header of a DSE report. *)
