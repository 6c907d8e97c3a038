(** Machine configuration for the T1000 timing model.

    The defaults model the paper's substrate: a 4-wide out-of-order
    superscalar (fetch/decode/issue/commit four per cycle), a Register
    Update Unit for renaming and in-order retirement, perfect branch
    prediction ([bpred = Perfect]), realistic L1/L2 caches and TLBs —
    plus zero or more PFUs with a configurable reconfiguration
    penalty. *)

(** PFU replacement policy (paper: LRU). *)
type pfu_replacement =
  | Lru
  | Fifo
  | Random_det  (** deterministic pseudo-random (xorshift), for the
                    replacement-policy ablation *)

type t = {
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  ruu_size : int;
  ifq_size : int;  (** fetch-queue capacity *)
  n_int_alu : int;  (** single-cycle ALU/shift/branch units *)
  n_int_mult : int;  (** multiply/divide units *)
  n_mem_ports : int;
  n_pfus : int option;  (** [None] = unlimited (one per configuration) *)
  pfu_reconfig_cycles : int;
  pfu_replacement : pfu_replacement;
  bpred : T1000_bpred.Predictor.spec;
      (** the front end's branch predictor ({!T1000_bpred.Predictor});
          paper default: [Perfect], the predictor that is always right.
          Under any other value {!Sim.run} fetches down the predicted
          path, dispatches wrong-path instructions into the RUU/PFUs
          and squashes them when the branch resolves *)
  cache : T1000_cache.Hierarchy.config;
  max_cycles : int;
      (** simulation cycle budget; {!Sim.run} raises {!Sim.Sim_stuck}
          past it *)
  progress_window : int;
      (** forward-progress watchdog: {!Sim.run} declares deadlock when
          the RUU is non-empty and no instruction has committed for this
          many cycles.  The default (1M cycles) is orders of magnitude
          above any legitimate stall (the longest modelled latency chain
          is a few thousand cycles even at a 500-cycle reconfiguration
          penalty), so it only trips on genuine scheduling deadlocks *)
}

val default : t
(** 4-wide, 64-entry RUU, 4 ALUs / 1 multiplier / 2 memory ports, no
    PFUs, default cache hierarchy. *)

val with_pfus :
  ?replacement:pfu_replacement -> ?penalty:int -> int option -> t -> t
(** [with_pfus n t]: [t] with [n] PFUs (default penalty 10 cycles,
    LRU). *)

val pp : Format.formatter -> t -> unit
