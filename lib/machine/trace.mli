(** Dynamic instruction trace entries.

    The functional interpreter ({!Interp.step}) produces one entry per
    executed instruction.  The timing simulator ({!T1000_ooo.Sim})
    walks the same committed-order stream through {!Interp.exec}, as
    slots and addresses, without building entries.  Because the paper
    simulates with perfect branch prediction, this committed-order
    stream is exactly the fetch stream, making trace-driven timing
    exact (DESIGN.md Section 5). *)

open T1000_isa

type entry = {
  index : int;  (** static instruction slot *)
  instr : Instr.t;
  mem_addr : int;  (** effective byte address of a load/store, [-1] if the
                       instruction accesses no memory *)
}

val pp_entry : Format.formatter -> entry -> unit

(** Observation record for profiling hooks: the entry plus the dynamic
    operand and result values. *)
type obs = {
  entry : entry;
  src1 : Word.t;  (** first register operand value (0 when absent) *)
  src2 : Word.t;  (** second register operand value (0 when absent) *)
  result : Word.t;  (** value written (0 when the instruction writes
                        no register) *)
}
