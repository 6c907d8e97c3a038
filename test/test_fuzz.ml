(* Differential fuzzing of the whole toolchain.

   A generator produces random (but always terminating and fault-free)
   loop kernels over narrow data registers, mixing candidate ALU/shift
   instructions with loads, stores, wide operations and multiplies.
   For every generated program we check, against the plain functional
   execution of the original:

   - greedy selection + rewriting preserves the observable state
     (output memory region and the wide accumulators);
   - selective selection (1 and 2 PFUs) preserves it too;
   - the rewritten program never executes more instructions;
   - the timing simulator commits exactly the instructions the
     functional interpreter executes, for original and rewritten
     programs alike;
   - binary encoding and the textual assembler round-trip the program.

   These properties catch exactly the class of bugs that matters most
   here: an extraction validity check that is too weak (miscompiled
   programs) or too strong would show up as state divergence or as
   zero folds across the whole fuzz corpus. *)

open T1000_isa
open T1000_asm
module R = Reg

let out_base = 0x2000
let data_base = 0x1000
let n_data = 16 (* halfwords of input data *)

(* Abstract body operations, instantiated over a small register pool.
   Register indices are into [data_regs]. *)
type body_op =
  | B_alu3 of Op.alu * int * int * int
  | B_alui of Op.alu * int * int * int (* op, dst, src, imm *)
  | B_shift of Op.shift * int * int * int (* op, dst, src, shamt *)
  | B_load of int * int (* dst reg, data slot *)
  | B_store of int * int (* src reg, out slot *)
  | B_mask of int (* re-narrow a register: andi r, r, 0xFFF *)
  | B_acc of int (* wide accumulate: s3 += reg *)
  | B_mult of int * int (* hi/lo multiply of two regs, mflo to reg0 *)

let data_regs = [| R.t0; R.t1; R.t2; R.t3; R.t4; R.t5; R.t6; R.t7 |]
let n_regs = Array.length data_regs

let body_op_gen : body_op QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 (n_regs - 1) in
  let alu =
    oneofl Op.[ Add; Addu; Sub; Subu; And; Or; Xor; Slt; Sltu ]
  in
  let alui = oneofl Op.[ Add; Addu; And; Or; Xor; Slt ] in
  let shift = oneofl Op.[ Sll; Srl; Sra ] in
  frequency
    [
      (5, map2 (fun op (a, b, c) -> B_alu3 (op, a, b, c)) alu
           (triple reg reg reg));
      (3, map2 (fun op (a, b, i) -> B_alui (op, a, b, i)) alui
           (triple reg reg (int_range 0 255)));
      (3, map2 (fun op (a, b, s) -> B_shift (op, a, b, s)) shift
           (triple reg reg (int_range 0 3)));
      (2, map2 (fun a s -> B_load (a, s)) reg (int_range 0 (n_data - 1)));
      (2, map2 (fun a s -> B_store (a, s)) reg (int_range 0 7));
      (3, map (fun a -> B_mask a) reg);
      (2, map (fun a -> B_acc a) reg);
      (1, map2 (fun a b -> B_mult (a, b)) reg reg);
    ]

type spec = {
  iters : int;
  body : body_op list;
}

let spec_gen =
  let open QCheck.Gen in
  map2
    (fun iters body -> { iters; body })
    (int_range 3 20)
    (list_size (int_range 4 24) body_op_gen)

(* Keep every register narrow enough that candidate widths stay sane:
   after arbitrary arithmetic a register may be wide, so the builder
   re-narrows destination registers with a probability folded into the
   op stream (B_mask) and relies on the width profile for candidacy.
   Correctness never depends on widths; they only shape extraction. *)
let build_program spec =
  let b = Builder.create ~name:"fuzz" () in
  Builder.li b R.a0 data_base;
  Builder.li b R.a1 out_base;
  Builder.li b R.s3 0x100000 (* wide accumulator *);
  Builder.li b R.s0 spec.iters;
  (* deterministic initial register values *)
  Array.iteri (fun i r -> Builder.li b r ((i * 37) land 0xFF)) data_regs;
  Builder.label b "top";
  List.iter
    (fun op ->
      match op with
      | B_alu3 (op, d, s1, s2) ->
          Builder.raw b
            (Instr.Alu_rrr (op, data_regs.(d), data_regs.(s1), data_regs.(s2)))
      | B_alui (op, d, s, imm) ->
          Builder.raw b (Instr.Alu_rri (op, data_regs.(d), data_regs.(s), imm))
      | B_shift (op, d, s, sh) ->
          Builder.raw b
            (Instr.Shift_imm (op, data_regs.(d), data_regs.(s), sh))
      | B_load (d, slot) -> Builder.lh b data_regs.(d) (2 * slot) R.a0
      | B_store (s, slot) -> Builder.sh b data_regs.(s) (2 * slot) R.a1
      | B_mask d -> Builder.andi b data_regs.(d) data_regs.(d) 0xFFF
      | B_acc s -> Builder.addu b R.s3 R.s3 data_regs.(s)
      | B_mult (a, bb) ->
          Builder.mult b data_regs.(a) data_regs.(bb);
          Builder.mflo b data_regs.(0))
    spec.body;
  Builder.addiu b R.s0 R.s0 (-1);
  Builder.bgtz b R.s0 "top";
  (* publish the accumulator and every data register so the observable
     state covers all live values *)
  Builder.sw b R.s3 16 R.a1;
  Array.iteri (fun i r -> Builder.sh b r (20 + (2 * i)) R.a1) data_regs;
  Builder.halt b;
  Builder.build b

let init mem _regs =
  for i = 0 to n_data - 1 do
    T1000_machine.Memory.store_half mem (data_base + (2 * i))
      ((i * 1237) land 0x7FF)
  done

(* observable state: the whole output region *)
let observable (w_table : T1000_select.Extinstr.t) program =
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  init mem regs;
  let interp =
    T1000_machine.Interp.create ~mem ~regs
      ~ext_eval:(T1000_select.Extinstr.eval w_table)
      program
  in
  let steps = T1000_machine.Interp.run ~max_steps:20_000_000 interp in
  let bytes =
    String.init 64 (fun i -> Char.chr (T1000_machine.Memory.load_byte mem (out_base + i)))
  in
  (steps, bytes)

let analyze program =
  let profile = T1000_profile.Profile.collect ~init program in
  let cfg = Cfg.of_program program in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  let live = Liveness.compute cfg in
  (profile, cfg, loops, live)

let arbitrary_spec = QCheck.make ~print:(fun s ->
    Printf.sprintf "iters=%d body=%d ops then: %s" s.iters
      (List.length s.body)
      (Asm_text.to_string (build_program s)))
    spec_gen

let fuzz_greedy =
  QCheck.Test.make ~name:"greedy rewrite preserves observable state"
    ~count:500 arbitrary_spec (fun spec ->
      let p = build_program spec in
      let profile, cfg, _, live = analyze p in
      let r = T1000_select.Greedy.select cfg live profile in
      let rw = T1000_select.Rewrite.apply p r.T1000_select.Greedy.table in
      let steps0, obs0 = observable T1000_select.Extinstr.empty p in
      let steps1, obs1 =
        observable r.T1000_select.Greedy.table rw.T1000_select.Rewrite.program
      in
      String.equal obs0 obs1 && steps1 <= steps0)

let fuzz_selective =
  QCheck.Test.make ~name:"selective rewrite preserves observable state"
    ~count:250 arbitrary_spec (fun spec ->
      let p = build_program spec in
      let profile, cfg, loops, live = analyze p in
      List.for_all
        (fun n ->
          let r =
            T1000_select.Selective.select ~n_pfus:(Some n) cfg loops live
              profile
          in
          let rw = T1000_select.Rewrite.apply p r.T1000_select.Selective.table in
          let _, obs0 = observable T1000_select.Extinstr.empty p in
          let _, obs1 =
            observable r.T1000_select.Selective.table
              rw.T1000_select.Rewrite.program
          in
          String.equal obs0 obs1)
        [ 1; 2 ])

let fuzz_sim_commits =
  QCheck.Test.make ~name:"timing sim commits the functional trace" ~count:150
    arbitrary_spec (fun spec ->
      let p = build_program spec in
      let profile, cfg, _, live = analyze p in
      let r = T1000_select.Greedy.select cfg live profile in
      let rw = T1000_select.Rewrite.apply p r.T1000_select.Greedy.table in
      let steps0, _ = observable T1000_select.Extinstr.empty p in
      let steps1, _ =
        observable r.T1000_select.Greedy.table rw.T1000_select.Rewrite.program
      in
      let table = r.T1000_select.Greedy.table in
      let stats0 = T1000_ooo.Sim.run ~init p in
      let stats1 =
        T1000_ooo.Sim.run
          ~mconfig:
            (T1000_ooo.Mconfig.with_pfus (Some 2) T1000_ooo.Mconfig.default)
          ~ext_eval:(T1000_select.Extinstr.eval table)
          ~init rw.T1000_select.Rewrite.program
      in
      stats0.T1000_ooo.Stats.committed = steps0
      && stats1.T1000_ooo.Stats.committed = steps1)

let fuzz_encoding_roundtrip =
  QCheck.Test.make ~name:"binary encoding round-trips whole programs"
    ~count:100 arbitrary_spec (fun spec ->
      let p = build_program spec in
      let q =
        Program.make
          (Array.init (Program.length p) (fun i ->
               Encoding.decode ~index:i
                 (Encoding.encode ~index:i (Program.get p i))))
      in
      Program.length p = Program.length q
      && List.for_all
           (fun i -> Instr.equal (Program.get p i) (Program.get q i))
           (List.init (Program.length p) Fun.id))

let fuzz_asm_text_roundtrip =
  QCheck.Test.make ~name:"assembler text round-trips whole programs"
    ~count:100 arbitrary_spec (fun spec ->
      let p = build_program spec in
      match Asm_text.parse (Asm_text.to_string p) with
      | Error _ -> false
      | Ok q ->
          Program.length p = Program.length q
          && List.for_all
               (fun i -> Instr.equal (Program.get p i) (Program.get q i))
               (List.init (Program.length p) Fun.id))

let fuzz_table_roundtrip =
  QCheck.Test.make ~name:"ext-table files replay identically" ~count:100
    arbitrary_spec (fun spec ->
      let p = build_program spec in
      let profile, cfg, _, live = analyze p in
      let r = T1000_select.Greedy.select cfg live profile in
      match
        T1000_select.Extinstr.of_text
          (T1000_select.Extinstr.to_text r.T1000_select.Greedy.table)
      with
      | Error _ -> false
      | Ok table ->
          let rw1 =
            T1000_select.Rewrite.apply p r.T1000_select.Greedy.table
          in
          let rw2 = T1000_select.Rewrite.apply p table in
          let _, o1 =
            observable r.T1000_select.Greedy.table
              rw1.T1000_select.Rewrite.program
          in
          let _, o2 = observable table rw2.T1000_select.Rewrite.program in
          String.equal o1 o2
          && Program.length rw1.T1000_select.Rewrite.program
             = Program.length rw2.T1000_select.Rewrite.program)

let fuzz_extraction_sound =
  (* structural invariants on everything the extractor reports *)
  QCheck.Test.make ~name:"extracted occurrences satisfy the constraints"
    ~count:100 arbitrary_spec (fun spec ->
      let p = build_program spec in
      let profile, cfg, _, live = analyze p in
      let occs =
        T1000_dfg.Extract.maximal T1000_dfg.Extract.default_config cfg live
          profile
      in
      List.for_all
        (fun (o : T1000_dfg.Extract.occ) ->
          let size = List.length o.T1000_dfg.Extract.members in
          size >= 2 && size <= 8
          && Array.length o.T1000_dfg.Extract.input_regs <= 2
          && o.T1000_dfg.Extract.root
             = List.fold_left max 0 o.T1000_dfg.Extract.members
          && T1000_dfg.Dfg.size o.T1000_dfg.Extract.dfg = size)
        occs)

(* The corpus must actually exercise folding: if extraction were
   vacuously strict, every differential test would pass while testing
   nothing.  Generate a fixed corpus and require a healthy number of
   collapsed occurrences overall. *)
let test_corpus_folds () =
  let rand = Random.State.make [| 42 |] in
  let total = ref 0 in
  for _ = 1 to 60 do
    let spec = QCheck.Gen.generate1 ~rand spec_gen in
    let p = build_program spec in
    let profile, cfg, _, live = analyze p in
    let r = T1000_select.Greedy.select cfg live profile in
    let rw = T1000_select.Rewrite.apply p r.T1000_select.Greedy.table in
    total := !total + rw.T1000_select.Rewrite.collapsed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "corpus folds something (got %d collapses)" !total)
    true (!total > 30)

(* ================= lib/fuzz: the seeded fuzz subsystem ================= *)

module F = T1000_fuzz
module Pool = T1000.Pool
module Fault = T1000.Fault

let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match saved with Some s -> s | None -> ""))
    f

(* ---- generator: determinism, validity, halting ---- *)

let test_gen_deterministic () =
  let text seed = Asm_text.to_string (F.Gen.program (F.Gen.generate ~seed)) in
  Alcotest.(check string) "same seed, same program" (text 42) (text 42);
  let distinct =
    List.sort_uniq compare (List.init 20 (fun i -> text (1000 + i)))
  in
  Alcotest.(check bool) "different seeds differ" true
    (List.length distinct > 10)

let test_gen_halts () =
  for seed = 0 to 29 do
    let c = F.Gen.generate ~seed in
    let w = F.Gen.workload c in
    let mem = T1000_machine.Memory.create () in
    let regs = T1000_machine.Regfile.create () in
    w.T1000_workloads.Workload.init mem regs;
    let it =
      T1000_machine.Interp.create ~mem ~regs
        w.T1000_workloads.Workload.program
    in
    let steps = T1000_machine.Interp.run ~max_steps:200_000 it in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d halts quickly (took %d steps)" seed steps)
      true
      (steps > 0 && steps < 200_000)
  done

(* ---- oracle: clean corpus, armed bug caught and shrunk ---- *)

let test_oracle_clean () =
  for seed = 0 to 30 do
    match F.Oracle.check (F.Gen.generate ~seed) with
    | Ok () -> ()
    | Error f ->
        Alcotest.failf "seed %d fails the oracle: %s" seed
          (Format.asprintf "%a" F.Oracle.pp_failure f)
  done

let test_oracle_catches_armed_bug () =
  with_env "T1000_FAULT_INJECT" "fuzz-oracle" @@ fun () ->
  let buggy_seed =
    let rec find i =
      if i >= 100 then Alcotest.fail "armed bug never tripped in 100 cases"
      else
        let seed = F.Rng.derive 42 i in
        if Result.is_error (F.Oracle.check (F.Gen.generate ~seed)) then seed
        else find (i + 1)
    in
    find 0
  in
  let still_fails c = Result.is_error (F.Oracle.check c) in
  let shrunk =
    F.Shrink.shrink ~still_fails (F.Gen.generate ~seed:buggy_seed)
  in
  Alcotest.(check bool) "shrunk case still fails" true (still_fails shrunk);
  let n = F.Gen.instr_count shrunk in
  Alcotest.(check bool)
    (Printf.sprintf "minimal reproducer is small (%d instructions)" n)
    true (n <= 20);
  (* disarmed, the very same case must pass: the failure is the injected
     off-by-one, not a real divergence *)
  with_env "T1000_FAULT_INJECT" "" (fun () ->
      Alcotest.(check bool) "disarmed reproducer passes" true
        (Result.is_ok (F.Oracle.check shrunk)))

(* ---- chaos pool: retries make a stormy run equal a calm one ---- *)

let test_chaos_pool_identical () =
  let xs = List.init 300 Fun.id in
  let f i = i * 7 in
  let calm = Pool.parallel_map_result ~njobs:4 f xs in
  Alcotest.(check bool) "calm run all Ok" true
    (List.for_all Result.is_ok calm);
  with_env "T1000_CHAOS" "0.4" @@ fun () ->
  with_env "T1000_CHAOS_SEED" "9" @@ fun () ->
  let injected0, killed0 = Pool.chaos_events () in
  let stormy = Pool.parallel_map_result ~njobs:4 f xs in
  let injected1, killed1 = Pool.chaos_events () in
  Alcotest.(check bool) "chaos injected faults" true (injected1 > injected0);
  Alcotest.(check bool) "chaos killed at least one worker" true
    (killed1 > killed0);
  Alcotest.(check bool) "stormy results identical to calm" true
    (stormy = calm);
  (* the sequential path must agree with the pool under the same seed *)
  let seq = Pool.parallel_map_result ~njobs:1 f xs in
  Alcotest.(check bool) "sequential chaos identical too" true (seq = calm)

let test_chaos_retries_exhausted () =
  let xs = List.init 50 Fun.id in
  with_env "T1000_CHAOS" "0.5" @@ fun () ->
  with_env "T1000_CHAOS_SEED" "3" @@ fun () ->
  let rs = Pool.parallel_map_result ~njobs:2 ~retries:0 (fun i -> i) xs in
  Alcotest.(check bool) "with retries disabled some injections surface" true
    (List.exists
       (function Error (Fault.Injected _) -> true | _ -> false)
       rs);
  Alcotest.(check bool) "but non-injected tasks still succeed" true
    (List.exists Result.is_ok rs)

(* At njobs = 1 the pool's one worker loop runs on the calling domain:
   under chaos every task still runs there, no worker is killed, and
   the retries still deliver the calm results. *)
let test_chaos_sequential_on_caller () =
  let xs = List.init 300 Fun.id in
  let calm = Pool.parallel_map_result ~njobs:1 (fun i -> i * 7) xs in
  let caller = Domain.self () in
  let elsewhere = Atomic.make 0 in
  let f i =
    if Domain.self () <> caller then Atomic.incr elsewhere;
    i * 7
  in
  with_env "T1000_CHAOS" "0.4" @@ fun () ->
  with_env "T1000_CHAOS_SEED" "9" @@ fun () ->
  with_env "T1000_BACKOFF_SCALE" "0" @@ fun () ->
  let injected0, killed0 = Pool.chaos_events () in
  let stormy = Pool.parallel_map_result ~njobs:1 f xs in
  let injected1, killed1 = Pool.chaos_events () in
  Alcotest.(check bool) "chaos injected faults" true (injected1 > injected0);
  Alcotest.(check int) "every task ran on the caller" 0 (Atomic.get elsewhere);
  Alcotest.(check int) "no worker killed" killed0 killed1;
  Alcotest.(check bool) "stormy results identical to calm" true
    (stormy = calm)

(* The fuzz sweep runs on the pool too: retries absorb every injected
   fault, and without retries the lowest-index injection surfaces. *)
let test_fuzz_sweep_chaos () =
  let sweep () = F.Fuzz.run_cases ~seed:42 ~cases:50 () in
  Alcotest.(check int) "calm sweep is clean" 0
    (List.length (sweep ()).F.Fuzz.failures);
  with_env "T1000_CHAOS" "0.3" @@ fun () ->
  with_env "T1000_BACKOFF_SCALE" "0" @@ fun () ->
  let injected0, _ = Pool.chaos_events () in
  let stormy = sweep () in
  let injected1, _ = Pool.chaos_events () in
  Alcotest.(check bool) "chaos injected faults" true (injected1 > injected0);
  Alcotest.(check int) "stormy sweep is clean too" 0
    (List.length stormy.F.Fuzz.failures);
  with_env "T1000_RETRIES" "0" @@ fun () ->
  (* the same draws, read back from a map over the case indices *)
  let lowest =
    Pool.parallel_map_result ~njobs:1 Fun.id (List.init 50 Fun.id)
    |> List.find_map (function
         | Error (Fault.Injected m) -> Some m
         | _ -> None)
  in
  match (lowest, sweep ()) with
  | None, _ -> Alcotest.fail "no injection among 50 tasks at p = 0.3"
  | Some _, _ -> Alcotest.fail "expected the injected fault to be raised"
  | exception Fault.Error (Fault.Injected m) ->
      Alcotest.(check (option string)) "lowest injected index raised" lowest
        (Some m)

let test_on_result_crash_isolated () =
  let xs = List.init 100 Fun.id in
  let run njobs =
    Pool.parallel_map_result ~njobs
      ~on_result:(fun i _ -> if i = 5 then failwith "journal disk died")
      (fun i -> i)
      xs
  in
  List.iter
    (fun njobs ->
      let rs = run njobs in
      Alcotest.(check int)
        (Printf.sprintf "njobs=%d: every element completes" njobs)
        100 (List.length rs);
      List.iteri
        (fun i r ->
          if i = 5 then
            match r with
            | Error (Fault.Crashed { exn; _ }) ->
                Alcotest.(check bool) "crash names on_result" true
                  (String.length exn >= 10
                  && String.sub exn 0 10 = "on_result:")
            | _ -> Alcotest.fail "element 5 should carry the on_result crash"
          else
            Alcotest.(check bool)
              (Printf.sprintf "njobs=%d: element %d unaffected" njobs i)
              true
              (r = Ok i))
        rs)
    [ 4; 1 ]

let test_chaos_env_validation () =
  let rejects var v read =
    with_env var v (fun () ->
        match read () with
        | _ -> false
        | exception Fault.Error (Fault.Invalid_config _) -> true)
  in
  Alcotest.(check bool) "T1000_CHAOS garbage rejected" true
    (rejects "T1000_CHAOS" "banana" Pool.env_chaos);
  Alcotest.(check bool) "T1000_CHAOS out of range rejected" true
    (rejects "T1000_CHAOS" "1.5" Pool.env_chaos);
  Alcotest.(check bool) "T1000_CHAOS valid accepted" true
    (with_env "T1000_CHAOS" "0.3" (fun () -> Pool.env_chaos () = 0.3));
  Alcotest.(check bool) "T1000_CHAOS empty is off" true
    (with_env "T1000_CHAOS" "" (fun () -> Pool.env_chaos () = 0.0));
  Alcotest.(check bool) "T1000_CHAOS_SEED garbage rejected" true
    (rejects "T1000_CHAOS_SEED" "x" Pool.env_chaos_seed);
  Alcotest.(check bool) "T1000_RETRIES negative rejected" true
    (rejects "T1000_RETRIES" "-1" Pool.env_retries);
  Alcotest.(check bool) "T1000_RETRIES valid accepted" true
    (with_env "T1000_RETRIES" "3" (fun () -> Pool.env_retries () = Some 3))

(* ---- corruption drills and the end-to-end chaos soak ---- *)

let test_corruption_drills () =
  match F.Fuzz.corruption_drills ~seed:5 ~rounds:20 () with
  | [] -> ()
  | errs -> Alcotest.failf "drill failures:\n%s" (String.concat "\n" errs)

let test_chaos_soak () =
  (* a chaotic sweep (injections + worker kills) must lose zero rows and
     reproduce the calm rows exactly — the ISSUE's headline property *)
  match F.Fuzz.chaos_soak ~p:0.2 ~seed:11 () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "t1000_fuzz"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            fuzz_greedy;
            fuzz_selective;
            fuzz_sim_commits;
            fuzz_encoding_roundtrip;
            fuzz_asm_text_roundtrip;
            fuzz_extraction_sound;
            fuzz_table_roundtrip;
          ] );
      ( "corpus",
        [ Alcotest.test_case "folding coverage" `Quick test_corpus_folds ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_gen_deterministic;
          Alcotest.test_case "halts by construction" `Quick test_gen_halts;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean corpus" `Slow test_oracle_clean;
          Alcotest.test_case "armed bug caught and shrunk" `Slow
            test_oracle_catches_armed_bug;
        ] );
      ( "chaos-pool",
        [
          Alcotest.test_case "stormy equals calm" `Quick
            test_chaos_pool_identical;
          Alcotest.test_case "retries exhausted surface" `Quick
            test_chaos_retries_exhausted;
          Alcotest.test_case "on_result crash isolated" `Quick
            test_on_result_crash_isolated;
          Alcotest.test_case "njobs=1 stays on the caller" `Quick
            test_chaos_sequential_on_caller;
          Alcotest.test_case "fuzz sweep under chaos" `Quick
            test_fuzz_sweep_chaos;
          Alcotest.test_case "env validation" `Quick test_chaos_env_validation;
        ] );
      ( "drills",
        [
          Alcotest.test_case "checkpoint corruption drills" `Quick
            test_corruption_drills;
          Alcotest.test_case "chaos soak byte-identical" `Slow
            test_chaos_soak;
        ] );
    ]
