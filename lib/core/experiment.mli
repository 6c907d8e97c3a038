(** Drivers that regenerate every table and figure of the paper, plus
    the DESIGN.md ablations.  Results come back as typed rows; use
    {!Report} to render them in the paper's units (execution-time
    speedup over the no-PFU superscalar, normalized to 1). *)

open T1000_workloads

(** Per-suite memo of analyses, runs and selection tables, so a batch
    of experiments profiles each workload once, selects each distinct
    table once and simulates each distinct (workload, program, machine)
    once — baselines included, and across figures: A1's 4-PFU point,
    F7 and A6's single-cycle point are one run.  All memo tables are
    compute-once and domain-safe ({!Memo}): the sweep
    drivers below fan their (workload x configuration) points out over
    the {!Pool} worker pool ([T1000_NJOBS] workers) and still return
    exactly the rows a sequential run returns.  It is the one place a
    (kernel, setup) is evaluated: the batch drivers, the {e lib/dse}
    engine, the CLI's one-shot commands and the serve daemon all go
    through it.  Each memo keeps the [T1000_MEMO_CAP] most recently
    used entries ({!Memo.env_cap}, default {!Memo.default_cap}); an
    evicted entry is computed again, with the same result. *)
type ctx

val create_ctx :
  ?workloads:Workload.t list -> ?max_steps:int ->
  ?bpred:T1000_bpred.Predictor.spec -> ?selfcheck:bool -> unit -> ctx
(** Defaults to the full 8-benchmark suite ({!Registry.all}).
    [?max_steps] caps every profiling run ({!Runner.analyze}); the
    serve daemon sets it so a non-halting submitted kernel fails
    instead of wedging a worker.  Every driver below builds its setups
    on [?bpred] (default [Perfect]) and [?selfcheck] (default [false])
    ({!setup}), except where it picks its own (A5's widths, A7's and
    A9's predictors).
    @raise Fault.Error with [Invalid_config] if [T1000_MEMO_CAP] is
      set but not a positive integer. *)

val workloads : ctx -> Workload.t list

val setup :
  ctx -> ?n_pfus:int option -> ?penalty:int ->
  ?bpred:T1000_bpred.Predictor.spec -> Runner.method_ -> Runner.setup
(** {!Runner.setup} with the ctx's self-check flag and, unless [?bpred]
    overrides it, the ctx's predictor. *)

val memo_stats : ctx -> (string * int * int) list
(** [(name, cached entries, cumulative evictions)] of the ctx's
    ["analysis"], ["run"] and ["tables"] memos, in that order: what the
    serve daemon's health reply reports. *)

val analysis : ctx -> Workload.t -> Runner.analysis
val baseline_for :
  ctx -> Workload.t -> T1000_ooo.Mconfig.t -> Runner.run
(** The workload's no-PFU baseline on an arbitrary base machine:
    {!run_setup} of the [Baseline] setup on that machine, so it is
    cached per (workload, machine) — what lets every configured point
    (a predictor under the ctx's [?bpred], the A5 width sweep, the
    {e lib/dse} width axis) be compared against a baseline of the same
    machine without re-simulating it per point. *)

val selection_table :
  ctx -> Workload.t -> Runner.setup -> T1000_select.Extinstr.t
(** The setup's extended-instruction table, cached per workload on the
    selection-relevant subset of the setup ([method_], [n_pfus],
    [extract], [gain_threshold], [lut_budget]).  Two setups differing
    only in simulation parameters (penalty, replacement, timing model,
    machine, prefetch) share the {e physically same} table, so e.g. a
    penalty sweep runs instruction selection once per workload. *)

val run_setup : ctx -> Workload.t -> Runner.setup -> Runner.run
(** {!Runner.run} with the ctx's cached analysis and selection table.
    The simulation's statistics are cached on what the simulation
    consumes: the workload name and {!Runner.inputs_key} of the
    {!Runner.prepare}d setup (rewritten program, each entry's DFG and
    effective latency, effective machine in its canonical PFU form,
    [selfcheck]).  Setups that differ only in knobs that do not change
    those inputs share one simulation, one output check and one
    self-check: most DSE points that differ only in gain threshold or
    LUT budget pick the same table, and a greedy and a selective
    request with unlimited PFUs often do too.  So do PFU counts at or
    above the program's configuration count under any replacement
    policy, and a setup whose table comes out empty and
    {!baseline_for} its machine.  The memo holds only the
    {!T1000_ooo.Stats.t}; the run is rebuilt around it
    ({!Runner.with_stats}), so its [used] is always [s] and a repeated
    call returns the {e physically same} [stats].  Sound because a run is a pure function of those inputs.
    [Mconfig.progress_window] is not in the key: it only decides
    whether a run raises, and a run that raises is not cached
    ({!Memo} clears the pending slot), so it cannot make a cached
    result wrong.  A machine's [max_cycles] (the daemon's per-request
    cycle budget) is in the key. *)

val speedup_of : ctx -> Workload.t -> Runner.setup -> float
(** Speedup of [run_setup] over {!baseline_for} the setup's own
    machine: like with like, so under the ctx's [?bpred] (or any other
    machine change) the no-PFU baseline runs the same machine.  Every
    driver below and the {e lib/dse} engine score points with it. *)

(** {1 Figure 2 — greedy selection} *)

type f2_row = {
  f2_name : string;
  f2_greedy_unlimited : float;
      (** unlimited PFUs, zero reconfiguration cost *)
  f2_greedy_2pfu : float;  (** 2 PFUs, 10-cycle penalty (thrashing) *)
}

val figure2 : ctx -> f2_row list

(** {1 Section 4.1 text table — greedy instruction statistics} *)

type t41_row = {
  t41_name : string;
  t41_distinct : int;  (** distinct extended instructions (paper: 6-43) *)
  t41_shortest : int;
      (** shortest sequence length (paper: 2); 0 when the selection is
          empty *)
  t41_longest : int;
      (** longest sequence length (paper: up to 8); 0 when the
          selection is empty *)
  t41_occurrences : int;  (** static occurrence sites *)
}

val table41 : ctx -> t41_row list

(** {1 Figure 6 — selective selection} *)

type f6_row = {
  f6_name : string;
  f6_sel_2 : float;
  f6_sel_4 : float;
  f6_sel_unlimited : float;
}

val figure6 : ctx -> f6_row list

(** {1 Section 5.2 — reconfiguration-penalty sensitivity} *)

type s52_row = {
  s52_name : string;
  s52_points : (int * float * float) list;
      (** (penalty, selective 2-PFU speedup, greedy 2-PFU speedup) *)
}

val penalty_sweep : ?penalties:int list -> ctx -> s52_row list
(** Default penalties: 10, 50, 100, 250, 500 (the paper's claim covers
    up to 500). *)

(** {1 Figure 7 — hardware cost distribution} *)

type f7_result = {
  f7_costs : (string * int list) list;  (** per-benchmark LUT costs *)
  f7_histogram : T1000_hwcost.Area.t;
  f7_max : int;
}

val figure7 : ctx -> f7_result

(** {1 Ablations (DESIGN.md A1-A5)} *)

type sweep_row = {
  sweep_name : string;
  sweep_points : (string * float) list;  (** (setting label, speedup) *)
}

val pfu_count_sweep : ?counts:int list -> ctx -> sweep_row list
(** A1: selective speedup vs PFU count (default 1,2,3,4,6,8). *)

val width_threshold_sweep : ?widths:int list -> ctx -> sweep_row list
(** A2: greedy-unlimited speedup vs candidate bitwidth threshold
    (default 8,12,18,24,32). *)

val gain_threshold_sweep : ?thresholds:float list -> ctx -> sweep_row list
(** A3: selective 2-PFU speedup vs gain-ratio threshold
    (default 0.001, 0.005, 0.02). *)

val replacement_sweep : ctx -> sweep_row list
(** A4: selective 2-PFU speedup under LRU / FIFO / pseudo-random PFU
    replacement. *)

val machine_sweep : ctx -> sweep_row list
(** A5: selective 4-PFU speedup on narrower/wider machines
    (2-wide/RUU 32, 4-wide/RUU 64, 8-wide/RUU 128). *)

val latency_model_sweep : ctx -> sweep_row list
(** A6: selective 4-PFU speedup under the paper's single-cycle PFU
    assumption vs the LUT-level delay model
    ({!T1000_hwcost.Lut.latency_estimate}) — the varying-execution-time
    extension the paper suggests in Section 3.1. *)

val branch_predictor_sweep : ctx -> sweep_row list
(** A7: selective 4-PFU speedup under perfect branch prediction (the
    paper's assumption) vs the speculative front end with a 2K-entry
    bimodal predictor ([Bimodal 11]), each against a baseline with the
    same predictor. *)

val prefetch_sweep : ?penalties:int list -> ctx -> sweep_row list
(** A8: selective 2-PFU speedup with and without [cfgld] configuration
    prefetching, at reconfiguration penalties where loop-entry reloads
    start to matter (default 100 and 500 cycles). *)

val speculation_sweep : ctx -> sweep_row list
(** A9: greedy vs selective 2-PFU speedup under each speculative
    front-end predictor ({!T1000_bpred.Predictor}: perfect, static,
    2K-entry bimodal and gshare), each column against a no-PFU baseline
    with the same predictor.  Isolates how real branch prediction —
    wrong-path fetch polluting the caches and PFU configuration state,
    squashes wasting issue slots — erodes the extended-instruction
    gain the paper measures under its perfect-fetch assumption. *)

(** {1 Fault-isolated, checkpointed driver variants}

    Every driver above has a [*_result] twin that never lets a per-point
    exception abort the sweep: each (workload x point) task that raises
    is classified into the {!Fault} taxonomy, the affected workload's
    row is withheld, and every other row is still returned.  The plain
    drivers are strict facades that raise {!Fault.Error} on the first
    fault.

    With [?journal], completed point values are recorded in the
    {!Checkpoint} journal as they arrive and already-recorded points
    are served from it without recomputation, so re-running an
    interrupted sweep against the same journal resumes it — and yields
    rows byte-identical to an uninterrupted run.

    Test hook: when the [T1000_FAULT_INJECT] environment variable names
    a workload, every task of that workload raises
    [Fault.Injected] instead of simulating. *)

type point_fault = {
  fault_workload : string;
  fault_point : string;  (** the point's label within its sweep *)
  fault : Fault.t;
}

val fan_out :
  ?journal:Checkpoint.t ->
  ?on_cached:(unit -> unit) ->
  id:string ->
  label:('p -> string) ->
  ctx ->
  'p list ->
  (Workload.t -> 'p -> 'v) ->
  (Workload.t * ('v, Fault.t) result list) list * point_fault list
(** The one (workload x point) fan-out every sweep runs through: the
    [*_result] drivers below and the {e lib/dse} engine's waves.
    Evaluates [eval w p] for every workload of the ctx and every point
    as independent tasks on the {!Pool} ([T1000_NJOBS] workers) and
    returns each workload's outcomes in point order, in suite order,
    plus one {!point_fault} per task that raised (same order).  A
    raising task never aborts the others.  The [T1000_FAULT_INJECT]
    hook applies here.

    With [?journal], each successful value is recorded under the key
    [id/workload/label] as it completes (plus [/bpred] when the ctx's
    predictor is not [Perfect]), and a task whose key is
    already recorded is served from the journal without running
    [eval] ([?on_cached] is called once per such task).  The values
    are identical at any worker count and on resume. *)

(** Rows for every workload whose points all succeeded, plus one
    {!point_fault} per failed (workload x point) task, in suite
    order. *)
type 'row partial = { rows : 'row list; faults : point_fault list }

val figure2_result : ?journal:Checkpoint.t -> ctx -> f2_row partial
val table41_result : ?journal:Checkpoint.t -> ctx -> t41_row partial
val figure6_result : ?journal:Checkpoint.t -> ctx -> f6_row partial

val penalty_sweep_result :
  ?journal:Checkpoint.t -> ?penalties:int list -> ctx -> s52_row partial

val figure7_result :
  ?journal:Checkpoint.t -> ctx -> f7_result * point_fault list
(** The aggregate ({!f7_result}) is computed over the workloads that
    succeeded; faulted workloads are simply absent from [f7_costs] and
    the histogram. *)

val pfu_count_sweep_result :
  ?journal:Checkpoint.t -> ?counts:int list -> ctx -> sweep_row partial

val width_threshold_sweep_result :
  ?journal:Checkpoint.t -> ?widths:int list -> ctx -> sweep_row partial

val gain_threshold_sweep_result :
  ?journal:Checkpoint.t -> ?thresholds:float list -> ctx -> sweep_row partial

val replacement_sweep_result : ?journal:Checkpoint.t -> ctx -> sweep_row partial
val machine_sweep_result : ?journal:Checkpoint.t -> ctx -> sweep_row partial

val latency_model_sweep_result :
  ?journal:Checkpoint.t -> ctx -> sweep_row partial

val branch_predictor_sweep_result :
  ?journal:Checkpoint.t -> ctx -> sweep_row partial

val prefetch_sweep_result :
  ?journal:Checkpoint.t -> ?penalties:int list -> ctx -> sweep_row partial

val speculation_sweep_result : ?journal:Checkpoint.t -> ctx -> sweep_row partial
