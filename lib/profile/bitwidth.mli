(** Dynamic operand/result bitwidth profiling.

    Reproduces the role of the paper's [sim_profile]-based tool
    (Section 4): for every static instruction it tracks the maximum
    two's-complement width of the register operands and of the result
    over all executions.  The selection algorithms use these maxima both
    to filter candidates (default: width <= 18 bits) and to size PFU
    hardware ({!T1000_hwcost}).

    {!record} does no width arithmetic: per slot it ORs the
    sign-normalised magnitudes ([v] for [v >= 0], [lnot v] otherwise)
    of the values it is given, and the width queries take
    {!T1000_isa.Word.width_signed} of that OR.  This is exact: the
    leading one of [a lor b] is the higher of the two leading ones, so
    the width of the OR is the maximum of the per-value widths. *)

type t

val create : n_slots:int -> t
val record : t -> int -> int -> int -> int -> unit
(** [record t i src1 src2 result] accounts one execution of slot [i]
    with those operand and result values: the arguments of a
    {!T1000_machine.Interp.set_observer} hook.  Allocates nothing. *)

val executed : t -> int -> bool
(** Whether the slot ever executed. *)

val result_width : t -> int -> int
(** Max signed width of the result value of slot [i]; 32 if the slot
    never executed (conservative). *)

val operand_width : t -> int -> int
(** Max signed width over both register operands; 32 if never
    executed. *)

val instr_width : t -> int -> int
(** [max (result_width i) (operand_width i)] — the width used for
    candidate filtering and hardware sizing. *)

val pp : Format.formatter -> t -> unit
