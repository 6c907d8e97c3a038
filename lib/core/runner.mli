(** Top-level facade: run a workload under a named T1000 configuration.

    Ties the whole system together, mirroring the paper's methodology
    (Section 3): profile the program to completion, select extended
    instructions (greedy or selective), rewrite the program, and
    simulate it on the cycle-level out-of-order core.  Speedups are
    execution-time ratios against the same machine without PFUs. *)

open T1000_asm
open T1000_profile
open T1000_select
open T1000_ooo
open T1000_workloads

(** Which instruction-selection algorithm to use. *)
type method_ =
  | Baseline  (** plain superscalar, no PFUs *)
  | Greedy  (** Section 4 *)
  | Selective  (** Section 5 *)

type setup = {
  method_ : method_;
  n_pfus : int option;  (** [None] = unlimited; ignored for [Baseline] *)
  penalty : int;  (** PFU reconfiguration cycles *)
  replacement : Mconfig.pfu_replacement;
  extract : T1000_dfg.Extract.config;
  gain_threshold : float;  (** selective filter (fraction of total time) *)
  lut_budget : int;
  ext_timing : [ `Single_cycle | `Lut_levels ];
      (** how extended instructions are timed: the paper's single-cycle
          assumption, or the {!T1000_hwcost.Lut.latency_estimate} delay
          model (the paper's suggested varying-execution-time
          extension) *)
  config_prefetch : bool;
      (** insert [cfgld] configuration-prefetch hints in the preheader
          of every loop that uses an extended instruction (our
          future-work extension; default false) *)
  machine : Mconfig.t;  (** base machine; PFU fields are overridden from
                            the fields above *)
  selfcheck : bool;
      (** opt-in self-check mode: per-commit RUU/PFU-file invariant
          audits in the simulator, plus a post-run cross-validation of
          the architectural results against the functional interpreter *)
}

val setup : ?n_pfus:int option -> ?penalty:int -> ?selfcheck:bool ->
  method_ -> setup
(** Defaults: 2 PFUs, 10-cycle penalty, LRU, paper extraction and
    selection parameters, the default machine.  [?selfcheck] defaults
    to the [T1000_SELFCHECK] environment variable (strict boolean,
    {!Fault.getenv_bool}); the machine's branch predictor defaults to
    the [T1000_BPRED] environment variable
    ({!T1000_bpred.Predictor.env_spec}, default [Perfect]).
    @raise Fault.Error
      with [Invalid_config] if any field is out of range
      ({!validate}) or [T1000_BPRED] is unparseable. *)

val validate : setup -> unit
(** Reject nonsensical setups before any simulation runs: [n_pfus]
    [Some n] with [n <= 0], negative [penalty], [gain_threshold]
    outside [[0, 1]] (NaN included), non-positive [lut_budget], or
    [machine.bpred] table bits outside
    [[{!T1000_bpred.Predictor.min_bits}, max_bits]].
    Called by {!setup}, {!select_table} and {!run}, so a hand-built
    record is still caught.
    @raise Fault.Error with [Invalid_config] naming the bad field. *)

(** Cached per-workload analysis (one profiling run plus the static
    analyses), reusable across setups. *)
type analysis = {
  profile : Profile.t;
  cfg : Cfg.t;
  loops : Loops.t;
  live : Liveness.t;
  reference : string;
      (** the original program's output region
          ({!T1000_workloads.Workload.output}) at the end of the
          profiling run: what every rewritten program must reproduce *)
}

val analyze : ?max_steps:int -> Workload.t -> analysis
(** Profile the original program once under the functional interpreter
    and run the static analyses.  [?max_steps] caps the profiling run
    (default {!T1000_profile.Profile.collect}'s); the serve daemon sets
    it so a non-halting submitted kernel fails instead of wedging a
    worker.
    @raise T1000_machine.Interp.Fault on an architectural fault or when
      the step cap is reached. *)

type run = {
  workload : Workload.t;
  used : setup;
  table : Extinstr.t;  (** empty for [Baseline] *)
  program : Program.t;  (** the program actually simulated *)
  stats : Stats.t;
}

val select_table : setup -> analysis -> T1000_select.Extinstr.t
(** Just the instruction-selection step of {!run}: the extended
    instruction table the setup's method picks.  Depends only on the
    setup's selection-relevant fields ([method_], [n_pfus], [extract],
    [gain_threshold], [lut_budget]) — in particular {e not} on
    [penalty] or [replacement], which is what makes the table cachable
    across a penalty or replacement sweep ({!Experiment}). *)

type prepared
(** A setup resolved to exactly what the simulation consumes: the
    rewritten program, the extended-instruction table, the effective
    machine (after the [Baseline] / {!Mconfig.with_pfus} override) and
    each entry's effective latency (after [ext_timing]). *)

val prepare : ?analysis:analysis -> ?table:T1000_select.Extinstr.t ->
  Workload.t -> setup -> prepared
(** The part of {!run} before simulation: validate, select (unless
    [?table] is given), rewrite, and resolve the machine and the
    latencies.  Cheap next to {!simulate}: a few microseconds on the
    registry programs.
    @raise Fault.Error with [Invalid_config] ({!validate}). *)

val configurations : Program.t -> int
(** The number of distinct configuration ids the program's [Ext] and
    [Cfgld] instructions name: every configuration the PFU file can be
    asked for, wrong-path fetches included, since those are fetched
    from the same program. *)

val inputs_key : prepared -> string
(** A digest of everything {!simulate} reads besides the workload: the
    rewritten program's instructions, each table entry's
    [(dfg, effective latency)], the effective machine and [selfcheck].
    Two prepared setups of the same workload with equal keys simulate
    to equal statistics and pass or fail the same checks, however much
    their setups differ (e.g. gain thresholds that pick the same
    table).

    The machine is digested in a canonical PFU form, with [confs] the
    {!configurations} of the rewritten program: [confs = 0] reads as an
    unlimited file with penalty 0 and LRU; [n_pfus = None], or
    [Some n] with [n >= confs], reads as an unlimited file with LRU and
    the machine's penalty; [Some n] with [n < confs] is digested as it
    is.  This is exact, not a heuristic: such PFU files simulate
    identically ({!T1000_ooo.Pfu_file.create}).  So the PFU-count and
    replacement points of a sweep that never fill the file, and a
    setup whose table comes out empty and its no-PFU baseline, share
    one key.  Only the key is canonical; {!simulate} runs the
    machine it was given. *)

val simulate : prepared -> Stats.t
(** The rest of {!run}: simulate, then the output and self-checks
    described there. *)

val with_stats : prepared -> Stats.t -> run
(** The run record of a prepared setup and its simulation's statistics:
    [used] is the prepared setup, [table] and [program] are the ones
    {!simulate} runs.  Lets a cache keep only the statistics
    ({!Experiment.run_setup}). *)

val run : ?analysis:analysis -> ?table:T1000_select.Extinstr.t ->
  Workload.t -> setup -> run
(** Select, rewrite, and simulate: [with_stats p (simulate p)] for
    [p = prepare ...].  The
    rewritten program's outputs are checked after timing, from the
    simulator's committed memory: its output region must equal [analysis.reference] byte for byte (a
    safety net for the rewriter, timed as [phase.verify]); a mismatch
    raises {!Fault.Error} with [Verify_mismatch].  [Baseline] runs, and
    any run whose table is empty, simulate the original program and are
    not checked.  No extra interpreter run is made: a rewritten program
    that faults raises {!T1000_machine.Interp.Fault} from inside
    {!T1000_ooo.Sim.run}, and one that never halts trips the
    simulator's cycle watchdog ({!T1000_ooo.Sim.Sim_stuck}).
    [?table] supplies a precomputed selection
    (e.g. from the {!Experiment} cache), skipping the selection step;
    it must be the table {!select_table} would have produced for [s].
    With [s.selfcheck] set, the simulator audits its RUU/PFU-file
    invariants at every commit, and an independent functional
    interpreter run of the simulated program must retire exactly the
    simulator's committed-instruction count and reproduce
    [analysis.reference]; violations raise {!Fault.Error} with
    [Selfcheck_failed] (or {!T1000_ooo.Sim.Selfcheck_violation} from
    inside the pipeline). *)

val speedup : baseline:run -> run -> float

val verify_outputs : Workload.t -> Extinstr.t -> Program.t -> unit
(** Run original and rewritten programs on the functional interpreter
    and compare output regions byte for byte: the standalone form of
    the check {!run} makes, for callers that do not go through
    {!run}.
    @raise Fault.Error with [Verify_mismatch] on a mismatch. *)
