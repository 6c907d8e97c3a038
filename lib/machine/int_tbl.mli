(** Mutable maps from non-negative [int] keys to [int] values.

    An open-addressing table specialised to the simulator's hot path:
    two flat [int] arrays, a power-of-two capacity, a multiplicative
    hash (so strided keys such as word indices spread out) and linear
    probing written as loops.  A lookup allocates nothing and calls
    neither [caml_hash] nor [compare_val]; the polymorphic [Hashtbl]
    and a [Hashtbl.Make] instance do both or go out of line.  Nothing
    iterates the table, so its slot order is never observable. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] bindings; it grows
    as needed. *)

val length : t -> int
(** Number of bindings. *)

val mem : t -> int -> bool

val find : t -> int -> int
(** @raise Not_found if the key is unbound. *)

val find_or : t -> int -> default:int -> int
(** The bound value, or [default] if the key is unbound. *)

val replace : t -> int -> int -> unit
(** Bind the key, replacing any earlier binding.
    @raise Invalid_argument if the key is negative. *)
