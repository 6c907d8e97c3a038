(** Simulation statistics. *)

type t = {
  cycles : int;
  committed : int;  (** instructions committed (extended instructions
                        count as one, as in the paper) *)
  ext_committed : int;
  ipc : float;
  pfu_hits : int;
  pfu_misses : int;  (** = reconfigurations *)
  pfu_stalls : int;
      (** cycles in which dispatch stopped at an extended instruction
          because every PFU was pinned *)
  ruu_full_stalls : int;
      (** cycles in which dispatch stopped because the RUU was full.
          Like [pfu_stalls] and [fetch_stall_cycles], a cycle count:
          dispatch stops at its first block, so at most one of the two
          dispatch counters rises in a cycle, and at most by one; a
          skipped quiet span is charged its length times one quiet
          cycle's count.  Hence
          [pfu_stalls + ruu_full_stalls <= cycles]. *)
  branch_mispredicts : int;  (** always 0 under perfect prediction *)
  squashes : int;
      (** misprediction recoveries that flushed the window (speculative
          front end only; always 0 under [Mconfig.bpred = Perfect]) *)
  squashed_instrs : int;
      (** wrong-path instructions dropped from the RUU and IFQ by
          squashes *)
  wrong_path_fetched : int;
      (** instructions synthesized down mispredicted paths *)
  recovery_cycles : int;
      (** cycles between misprediction detection at fetch and the
          resolving squash, summed over all mispredictions *)
  fetch_stall_cycles : int;
      (** cycles the fetch stage spent blocked on instruction-cache
          misses or branch-redirect resolution *)
  avg_ruu_occupancy : float;  (** mean in-flight instructions per cycle *)
  l1i_miss_rate : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  itlb_miss_rate : float;
  dtlb_miss_rate : float;
}

val speedup : baseline:t -> t -> float
(** [baseline.cycles / t.cycles] — execution-time speedup as plotted in
    the paper's figures. *)

val pp : Format.formatter -> t -> unit
