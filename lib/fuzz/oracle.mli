(** The differential oracle: one fuzz case, every invariant.

    Each case runs through the complete pipeline — profile, greedy
    {e and} selective selection, rewrite, cycle-level simulation with
    self-check enabled — and is cross-validated against the functional
    interpreter:

    - the output the profiling run captured ([Runner.analysis]'s
      [reference], against which {!T1000.Runner.run} checks every
      rewritten program) equals the interpreter's output of the
      original program;
    - the rewritten program's architectural output (the workload's
      whole observable region, extended instructions evaluated through
      their {!T1000_select.Extinstr} evaluators) equals the original's;
    - the rewritten program never retires more instructions than the
      original;
    - the timing simulator commits exactly the instruction count the
      interpreter retires, for baseline and rewritten programs alike;
    - front end: every run squashes exactly once per misprediction,
      and under the [Perfect] predictor no run mispredicts, fetches
      down a wrong path or squashes anything;
    - skip: each greedy and selective run, repeated with self-check
      off (so the simulator skips dead cycles instead of executing and
      auditing them), returns equal statistics;
    - pfu-equivalence: each greedy and selective run whose program
      names [confs > 0] configurations, repeated on an unlimited PFU
      file and on a file of exactly [confs] units under another
      replacement policy, returns equal statistics both times; when
      [confs > 1], runs on a one-unit file under [Fifo] and
      [Random_det] return the [Lru] run's statistics (the
      equivalences {!T1000.Runner.inputs_key} keys on);
    - the measured speedup is finite and positive.

    [T1000_FAULT_INJECT=fuzz-oracle] arms a deliberate off-by-one in
    the commit-count model (only when extended instructions actually
    committed), so the test suite and [ci.sh] can prove the oracle
    catches a broken invariant and shrinks it to a small reproducer. *)

type failure = {
  method_ : string;
      (** "analysis", "baseline", "greedy", "selective" or "pipeline" *)
  invariant : string;  (** short id, e.g. ["state-divergence"] *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

val check : Gen.case -> (unit, failure) result
(** Never raises: pipeline exceptions (watchdog, self-check, verify,
    interpreter faults) are folded into an [Error] via {!T1000.Fault}. *)
