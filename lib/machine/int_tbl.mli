(** Hash tables keyed on [int]: the key is its own hash, so a lookup
    skips the generic [caml_hash] and [compare_val] of the polymorphic
    [Hashtbl]. *)

include Hashtbl.S with type key = int
