(** Dynamic instruction trace entries.

    The functional interpreter ({!Interp.step}) produces one entry per
    executed instruction.  The timing simulator ({!T1000_ooo.Sim})
    walks the same committed-order stream through {!Interp.exec}, as
    slots and addresses, without building entries; so does a profiling
    observer ({!Interp.set_observer}), which is handed the slot and its
    operand and result values as plain integers.  Because the paper
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
