(** Functional (architectural) interpreter.

    Executes a {!T1000_asm.Program} over a {!Memory} and {!Regfile},
    producing a pull-based dynamic trace.  The timing simulator and the
    profiler both consume this stream; memory usage is O(1) in trace
    length.  {!exec} is the one interpreter loop body: {!step} and
    {!run} are built on it.

    Extended instructions are evaluated through the [ext_eval] callback
    (the dataflow-graph evaluators built by {!T1000_select.Extinstr});
    programs without extended instructions can omit it. *)

open T1000_isa

exception Fault of string
(** Raised on: execution falling off the end of the program, an
    unaligned halfword/word access, a [jr] to a non-text address, an
    extended instruction with no evaluator, or exceeding [max_steps]. *)

type t

val create :
  ?regs:Regfile.t ->
  ?mem:Memory.t ->
  ?ext_eval:(int -> Word.t -> Word.t -> Word.t) ->
  T1000_asm.Program.t ->
  t
(** [ext_eval eid v1 v2] must return the result of extended instruction
    [eid] on operand values [v1], [v2]. *)

val exec : t -> int
(** Execute one instruction and return its static slot, or [-1] once
    halted (idempotent after halt).  The allocation-free primitive of
    the interpreter: the effective address is left in {!mem_addr} and
    the instruction itself is [(code t).(slot)], so a caller that
    walks the dynamic trace builds no record per instruction.  An
    installed observer is called with integers only, so observing
    allocates nothing either. *)

val mem_addr : t -> int
(** Effective byte address of the load or store executed by the last
    {!exec}, [-1] if it accessed no memory. *)

val step : t -> Trace.entry option
(** {!exec} packaged as a trace entry; [None] once halted.  Idempotent
    after halt. *)

val run : ?max_steps:int -> t -> int
(** Run to [Halt] through {!exec}; returns the number of instructions
    executed (default [max_steps] = 1 billion).
    @raise Fault if the program does not halt within [max_steps]. *)

val set_observer : t -> (int -> Word.t -> Word.t -> Word.t -> unit) -> unit
(** [set_observer t f] installs a profiling hook: after every executed
    instruction, [f index src1 src2 result] is called with the static
    slot, the first and second operand values and the value written.
    An operand is [0] when absent; for an immediate form [src2] is the
    immediate (the shift amount of a shift by a constant).  [result] is
    [0] when the instruction writes no register (for [mult]/[div] it is
    the new [lo]; for [jal]/[jalr] the return address).  The hook
    replaces any earlier one; {!exec} tests for it once per
    instruction. *)

val clear_observer : t -> unit

val pc : t -> int
(** Slot index of the next instruction. *)

val halted : t -> bool
val steps : t -> int
(** Instructions executed so far. *)

val mem : t -> Memory.t
val regs : t -> Regfile.t
val program : t -> T1000_asm.Program.t

val code : t -> Instr.t array
(** The program's instruction array as the interpreter executes it,
    one element per static slot.  Shared, not copied: callers that
    pre-decode the program (the timing simulator's image) read it and
    must never write it. *)
