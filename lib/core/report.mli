(** Text rendering of experiment results, in the paper's units
    (execution-time speedup normalized to the no-PFU superscalar). *)

val pp_figure2 : Format.formatter -> Experiment.f2_row list -> unit
val pp_table41 : Format.formatter -> Experiment.t41_row list -> unit
val pp_figure6 : Format.formatter -> Experiment.f6_row list -> unit
val pp_penalty_sweep : Format.formatter -> Experiment.s52_row list -> unit
val pp_figure7 : Format.formatter -> Experiment.f7_result -> unit

val pp_sweep :
  title:string ->
  Format.formatter ->
  Experiment.sweep_row list ->
  unit
(** Generic (benchmark x setting) speedup table for the ablations. *)

val pp_faults : Format.formatter -> Experiment.point_fault list -> unit
(** The structured fault report a partial driver result carries: a
    header with the failed-point count, then one line per fault
    ([workload/point: description]). *)

(** {1 The artifact table} *)

val artifact_ids : string list
(** Every paper artifact and ablation, in paper order: [f2 t41 f6 s52
    f7] (Figures 2, 6 and 7, the Section 4.1 table, the Section 5.2
    penalty sweep) then the ablations [a1] .. [a9]. *)

val render :
  ?journal:Checkpoint.t ->
  Experiment.ctx ->
  string ->
  (string * Experiment.point_fault list) option
(** [render ctx id] runs the artifact's fault-isolated ([*_result])
    driver and renders it: the text (ending in a newline) and the
    faulted points, whose workloads' rows are withheld from the text.
    [None] for an id not in {!artifact_ids}. *)
