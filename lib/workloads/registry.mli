(** The benchmark suite: all eight MediaBench-like kernels, in the
    paper's figure order. *)

val all : Workload.t list
(** unepic, epic, gsm_dec, gsm_enc, g721_dec, g721_enc, mpeg2_dec,
    mpeg2_enc. *)

val find : string -> Workload.t option
val names : string list

val of_spec : string option -> (Workload.t list, string) result
(** The suite a [T1000_WORKLOADS] value names: comma-separated workload
    names, in the listed order.  [None], an empty or an all-blank value
    is the full suite ({!all}).  [Error] names the first unknown
    workload and lists the known ones. *)

val of_env : unit -> (Workload.t list, string) result
(** {!of_spec} of the [T1000_WORKLOADS] environment variable. *)
