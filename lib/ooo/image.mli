(** The timing simulator's pre-decoded program image.

    {!Sim.run} lowers the program once, before the first cycle, into
    one flat record per static slot holding everything the pipeline
    asks of an instruction: functional-unit class and latency, the
    dependence registers it reads and writes, its control-transfer
    kind and target, and its extended-instruction or
    configuration-prefetch id.  Fetch, dispatch, issue and wrong-path
    synthesis then read fields instead of re-matching the ISA AST per
    dynamic instruction, and build no [Instr.uses]/[Instr.defs] lists.

    The image is derived from the interpreter's own instruction array
    ({!T1000_machine.Interp.code}), which it shares rather than
    copies. *)

open T1000_isa

(** Issue-stage functional-unit class: branches share the integer
    ALUs, multiplies and divides the multiplier. *)
type fu = Alu | Mult | Load | Store | Pfu | No_fu

type control =
  | Not_control
  | Cond_branch  (** conditional branch to [target] *)
  | Direct_jump  (** [j]/[jal] to [target]: decoded, never mispredicted *)
  | Indirect_jump  (** [jr]/[jalr]: target from the BTB *)

type slot = {
  fu : fu;
  latency : int;  (** {!T1000_isa.Instr.latency} *)
  use1 : int;
  use2 : int;
      (** dependence registers read ({!T1000_isa.Instr.uses}, in
          order), [-1] when absent *)
  def1 : int;
  def2 : int;  (** registers written ({!T1000_isa.Instr.defs}), [-1] when
                   absent *)
  control : control;
  target : int;  (** branch/jump target slot, [-1] otherwise *)
  ext : int;  (** [eid] of an [Ext], [-1] otherwise *)
  cfgld : int;  (** [eid] of a [Cfgld] hint, [-1] otherwise *)
}

type t = {
  instrs : Instr.t array;  (** the source instructions, for diagnostics *)
  slots : slot array;  (** [slots.(i)] decodes [instrs.(i)] *)
}

val of_code : Instr.t array -> t
(** Decode every slot.  The array is kept (for diagnostics), not
    copied, and must not be mutated afterwards. *)
