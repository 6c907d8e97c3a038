(** Typed fault taxonomy for the experiment engine.

    A long design-space sweep is a bag of thousands of independent
    (workload x configuration) simulations; any one of them can fail —
    a nonsensical setup, a runaway or deadlocked simulation, a rewriter
    bug caught by output verification, a self-check violation.  Instead
    of letting a raw exception abort the whole figure, the engine
    ({!Pool.parallel_map_result}, the {!Experiment} [*_result] drivers)
    classifies every per-point exception into this taxonomy, so callers
    receive partial rows plus a structured, renderable fault report. *)

type t =
  | Invalid_config of string
      (** a {!Runner.setup} field or a [T1000_*] environment variable
          is out of range; always a caller error, exit code 2 *)
  | Sim_stuck of T1000_ooo.Sim.stuck
      (** the simulator watchdog fired (cycle budget or forward-progress
          check), with the diagnostic pipeline snapshot *)
  | Selfcheck_failed of string
      (** the opt-in self-check mode found an RUU/PFU-file invariant
          violation or an architectural divergence between the timing
          simulator and the functional interpreter *)
  | Interp_fault of string
      (** architectural fault from the functional interpreter *)
  | Verify_mismatch of string
      (** the rewritten program's output diverged from the original's:
          checked by {!Runner.run} on the simulator's committed memory
          against the profiling run's, and by {!Runner.verify_outputs}
          on two interpreter runs *)
  | Injected of string
      (** test-hook fault injected via [T1000_FAULT_INJECT] *)
  | Overloaded of string
      (** admission rejected: the serve daemon's bounded queue was full,
          or the server was draining; the request was never started and
          is safe to retry later *)
  | Deadline_exceeded of string
      (** a per-request deadline expired (in the admission queue or
          while the simulation was running) before a result was ready *)
  | Supervisor of string
      (** a supervisor-level event in the multi-daemon serve tier: a
          replica died or wedged and was restarted, a restart budget
          was exhausted, a drain had to escalate to SIGKILL.  Recorded
          by {!T1000_serve.Supervisor} and rendered in its drain
          summary; never raised by the selection pipeline itself *)
  | Crashed of { exn : string; backtrace : string }
      (** any other exception, rendered with its backtrace when one was
          recorded *)

exception Error of t
(** The carrier exception.  Registered with {!Printexc} so uncaught
    faults still render readably. *)

val of_exn : ?backtrace:string -> exn -> t
(** Classify an exception: {!Error} unwraps, the known simulator /
    interpreter exceptions map to their variants, anything else becomes
    [Crashed] (carrying [?backtrace] when provided). *)

val invalid_config : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_config fmt ...] raises [Error (Invalid_config msg)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val transient : t -> bool
(** Whether a fault is plausibly environmental and worth retrying
    ([Injected], [Overloaded] and [Crashed]); the deterministic
    pipeline faults ([Invalid_config], [Sim_stuck], [Selfcheck_failed],
    [Interp_fault], [Verify_mismatch]) and an expired deadline
    ([Deadline_exceeded]) would fail identically on every retry.
    {!Pool.parallel_map_result} and {!Pool.run_result} consult this for
    their retry policy. *)

val exit_code : t -> int
(** Process exit code the CLI maps the fault to: 2 for
    [Invalid_config] (misconfigured run), 3 otherwise (partial
    results). *)

val getenv_bool : string -> bool
(** Strict boolean environment lookup: unset/empty/["0"]/["false"]/
    ["no"] are [false]; ["1"]/["true"]/["yes"] are [true].
    @raise Error with [Invalid_config] on anything else. *)

val getenv_int : ?min:int -> string -> int option
(** Strict integer environment lookup: unset or blank is [None]; a
    trimmed integer [>= min] (any integer without [?min]) is [Some n].
    @raise Error with [Invalid_config] ("VAR must be a positive
      integer, got ...") on anything else. *)

val getenv_float : ok:(float -> bool) -> what:string -> string -> float option
(** Like {!getenv_int} for a float accepted by [ok]; [what] completes
    the error message ("VAR must be [what], got ..."). *)
