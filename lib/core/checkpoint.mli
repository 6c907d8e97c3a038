(** Checkpoint/resume journal for the experiment engine.

    A sweep driver records each completed (workload x point) result as
    it arrives; a re-run of the same sweep with the same journal skips
    every recorded point and recomputes only the rest, so a killed
    multi-hour sweep resumes instead of restarting from zero — and the
    resumed rows are byte-identical to an uninterrupted run (marshalled
    OCaml values round-trip exactly; the test suite asserts this).

    Robustness properties:
    - {!record} appends one line with a single [write] on an
      [O_APPEND] descriptor, so a kill at any instant can tear only
      the last line;
    - every record carries an MD5 checksum over its key and payload;
      records that fail the check at load time are dropped (reported
      via {!corrupt}) and their points recomputed;
    - {!create} compacts a journal whose load dropped a line, found a
      key recorded twice or found no final newline: the live records
      go to a temp file that an atomic [rename] puts in place, so a
      kill leaves either the old or the new journal, and the next
      append never glues onto a torn line.  A clean journal opens
      without a rewrite;
    - {!record} is mutex-protected and safe to call concurrently from
      the {!Pool} workers' completion callback.

    Journals live under a directory the caller names explicitly, or the
    [T1000_CHECKPOINT_DIR] environment variable ({!default_dir}), one
    [<run>.journal] file per sweep. *)

type t

val env_var : string
(** ["T1000_CHECKPOINT_DIR"]. *)

val default_dir : unit -> string option
(** The [T1000_CHECKPOINT_DIR] environment variable, if set and
    non-empty. *)

val default_dir_validated : unit -> string option
(** {!default_dir}, additionally rejecting a value that names an
    existing non-directory (the directory itself need not exist yet —
    {!create} makes it on demand).
    @raise Fault.Error
      with [Invalid_config] if the variable points at an existing
      file. *)

val create : ?fresh:bool -> dir:string -> run:string -> unit -> t
(** Open (creating [dir] as needed) the journal for [run].  An existing
    journal is loaded, dropping corrupted records, and compacted if it
    needs it (see above); [~fresh:true] discards it instead, for a
    from-scratch run. *)

val path : t -> string

val completed : t -> int
(** Number of valid records currently held. *)

val corrupt : t -> string list
(** One diagnostic per record dropped at load time (checksum mismatch,
    undecodable or malformed line).  Empty for a healthy journal. *)

val mem : t -> key:string -> bool

val find : t -> key:string -> 'a option
(** The recorded value for [key], if any.  The value is unmarshalled at
    the type the caller expects; as with any [Marshal] round-trip the
    caller must read at the type it wrote — the {!Experiment} drivers
    guarantee this by deriving keys from the driver id, workload and
    point label. *)

val record : t -> key:string -> 'a -> unit
(** Record (or overwrite) the value for [key] and append its line to
    the journal.  The last line for a key wins at load. *)
