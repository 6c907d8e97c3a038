(** Sparse byte-addressable memory.

    Addresses are reduced to 32 bits, and the space is a two-level page
    directory: the top 10 bits select a table of 1024 page slots, the
    next 10 a 4 KiB page.  Tables and pages are allocated on first
    store, so the full 32-bit address space is usable without
    preallocation; a load from unmapped memory reads zero and allocates
    nothing.  A one-entry cache of the last page found serves most
    accesses without walking the directory.  All multi-byte accesses
    are little-endian and need not be aligned (the ISA's loads and
    stores in practice are; the interpreter checks alignment
    separately). *)

type t

val create : unit -> t

val load_byte : t -> int -> int
(** Unsigned byte in [0, 255].  Untouched memory reads as zero. *)

val store_byte : t -> int -> int -> unit
(** [store_byte m addr v] writes the low 8 bits of [v]. *)

val load_half : t -> int -> int
(** Unsigned 16-bit little-endian value. *)

val store_half : t -> int -> int -> unit

val load_word : t -> int -> T1000_isa.Word.t
(** Sign-extended 32-bit little-endian value. *)

val store_word : t -> int -> T1000_isa.Word.t -> unit

val clear : t -> unit
(** Drop every page, resetting all of memory to zero. *)

val touched_pages : t -> int
(** Number of 4 KiB pages allocated since {!create} or the last
    {!clear} (for stats and tests). *)

val page_bytes : int

val blit_words : t -> int -> T1000_isa.Word.t array -> unit
(** Store an array of 32-bit words at consecutive word addresses starting
    at the given byte address. *)

val read_words : t -> int -> int -> T1000_isa.Word.t array
(** [read_words m addr n] reads [n] consecutive words. *)
