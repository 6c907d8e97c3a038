(** Fuzz driver: case sweep, reproducer artifacts, checkpoint
    corruption drills and the chaos soak.

    Everything here is a pure function of its integer seed — failures
    print the seed they reproduce from, and [t1000 fuzz --seed S]
    replays the identical run. *)

type failure = {
  index : int;  (** case number within the run *)
  case_seed : int;  (** seed regenerating the (unshrunk) case *)
  method_ : string;
  invariant : string;
  detail : string;
  shrunk : Gen.case;  (** minimal still-failing reproducer *)
  instrs : int;  (** static instruction count of the shrunk program *)
  repro_path : string option;  (** artifact written under the out dir *)
}

type outcome = {
  run_seed : int;
  cases : int;
  failures : failure list;
  elapsed_s : float;
  cases_per_s : float;  (** fuzz throughput, recorded by [bench speed] *)
}

val run_cases :
  ?out_dir:string -> ?njobs:int -> seed:int -> cases:int -> unit -> outcome
(** Generate and oracle-check [cases] cases derived from [seed]
    (fanned out over the {!T1000.Pool} workers), shrink every failure
    to a minimal reproducer and write one artifact per failure under
    [out_dir] (default ["_fuzz"]), named after the run seed and case
    number. *)

val pp_failure : Format.formatter -> failure -> unit

val corruption_drills : ?dir:string -> seed:int -> rounds:int -> unit -> string list
(** Fuzz the checkpoint journal itself: build a healthy journal, then
    per round apply one random corruption — truncate mid-record (torn
    last line), flip a bit inside a checksummed record, append a
    duplicate key (the last record must win), append garbage, or tear
    the last record and record after it (a torn append) — and assert
    {!T1000.Checkpoint.create} drops exactly the damaged records, keeps
    every healthy one bit-exact, and that re-recording the damaged keys
    (a resumed sweep recomputing them) heals the journal completely.  Returns one diagnostic per violated
    assertion; empty means all [rounds] drills passed.  Journals live
    under [dir] (default: the system temp directory). *)

val chaos_soak : ?p:float -> seed:int -> unit -> (unit, string) result
(** Run a small penalty sweep twice — calm, then under [T1000_CHAOS=p]
    with retries — and require the chaotic run to lose zero rows and
    return rows structurally identical to the calm run.  [Error]
    carries a description of the divergence. *)
