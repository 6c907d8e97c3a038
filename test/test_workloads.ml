(* Tests for the benchmark suite: every kernel must run to completion,
   be deterministic, produce non-trivial output, expose foldable chains
   to the greedy algorithm, and stay bit-identical when rewritten with
   either selection algorithm. *)

open T1000_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let functional_output (w : Workload.t) table program =
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  w.Workload.init mem regs;
  let interp =
    T1000_machine.Interp.create ~mem ~regs
      ~ext_eval:(T1000_select.Extinstr.eval table)
      program
  in
  let steps = T1000_machine.Interp.run interp in
  (steps, Workload.output w mem)

let test_registry () =
  check_int "eight benchmarks" 8 (List.length Registry.all);
  check_bool "find works" true (Registry.find "gsm_dec" <> None);
  check_bool "find missing" true (Registry.find "nope" = None);
  Alcotest.(check (list string))
    "paper order"
    [
      "unepic"; "epic"; "gsm_dec"; "gsm_enc"; "g721_dec"; "g721_enc";
      "mpeg2_dec"; "mpeg2_enc";
    ]
    Registry.names

(* The T1000_WORKLOADS parser every CLI command shares. *)
let test_of_spec () =
  let check msg want spec =
    Alcotest.(check (result (list string) string))
      msg want
      (Result.map
         (List.map (fun (w : Workload.t) -> w.Workload.name))
         (Registry.of_spec spec))
  in
  List.iter
    (fun spec -> check "full suite" (Ok Registry.names) spec)
    [ None; Some ""; Some "  "; Some " , ,\t" ];
  check "listed order, blanks trimmed"
    (Ok [ "g721_dec"; "unepic"; "epic" ])
    (Some " g721_dec,unepic , ,epic");
  check "unknown names the workload"
    (Error
       ("unknown workload \"bogus\" in T1000_WORKLOADS (known: "
       ^ String.concat ", " Registry.names
       ^ ")"))
    (Some "unepic,bogus,epic")

let test_runs_to_completion (w : Workload.t) () =
  let steps, out = functional_output w T1000_select.Extinstr.empty w.Workload.program in
  check_bool "executes a realistic trace" true (steps > 50_000);
  check_int "output length" w.Workload.out_len (String.length out);
  (* output is not all zeroes *)
  check_bool "non-trivial output" true
    (String.exists (fun c -> c <> '\000') out)

let test_deterministic (w : Workload.t) () =
  let _, o1 = functional_output w T1000_select.Extinstr.empty w.Workload.program in
  let _, o2 = functional_output w T1000_select.Extinstr.empty w.Workload.program in
  check_bool "same output twice" true (String.equal o1 o2)

let analysis_cache : (string, T1000.Runner.analysis) Hashtbl.t =
  Hashtbl.create 8

let analyze (w : Workload.t) =
  match Hashtbl.find_opt analysis_cache w.Workload.name with
  | Some a -> a
  | None ->
      let a = T1000.Runner.analyze w in
      Hashtbl.replace analysis_cache w.Workload.name a;
      a

let test_reference_is_original_output (w : Workload.t) () =
  let _, out = functional_output w T1000_select.Extinstr.empty w.Workload.program in
  check_bool "profiling run captured the original output" true
    (String.equal (analyze w).T1000.Runner.reference out)

let test_greedy_finds_chains (w : Workload.t) () =
  let a = analyze w in
  let r =
    T1000_select.Greedy.select a.T1000.Runner.cfg a.T1000.Runner.live
      a.T1000.Runner.profile
  in
  let n = T1000_select.Extinstr.count r.T1000_select.Greedy.table in
  check_bool "finds at least one configuration" true (n >= 1);
  (* every selected instruction fits the PFU budget *)
  List.iter
    (fun e ->
      check_bool "fits 150 LUTs" true
        (e.T1000_select.Extinstr.lut_cost <= T1000_hwcost.Lut.default_budget);
      check_bool "length 2-8" true
        (let s = T1000_dfg.Dfg.size e.T1000_select.Extinstr.dfg in
         s >= 2 && s <= 8))
    (T1000_select.Extinstr.entries r.T1000_select.Greedy.table)

let test_rewrite_equivalence method_ (w : Workload.t) () =
  let a = analyze w in
  let table =
    match method_ with
    | `Greedy ->
        (T1000_select.Greedy.select a.T1000.Runner.cfg a.T1000.Runner.live
           a.T1000.Runner.profile)
          .T1000_select.Greedy.table
    | `Selective ->
        (T1000_select.Selective.select ~n_pfus:(Some 2) a.T1000.Runner.cfg
           a.T1000.Runner.loops a.T1000.Runner.live a.T1000.Runner.profile)
          .T1000_select.Selective.table
  in
  let rw = T1000_select.Rewrite.apply w.Workload.program table in
  let steps_orig, out_orig =
    functional_output w T1000_select.Extinstr.empty w.Workload.program
  in
  let steps_rw, out_rw =
    functional_output w table rw.T1000_select.Rewrite.program
  in
  check_bool "outputs identical" true (String.equal out_orig out_rw);
  check_bool "rewritten executes fewer instructions" true
    (rw.T1000_select.Rewrite.collapsed = 0 || steps_rw < steps_orig)

let test_hot_loops_have_multiple_chains () =
  (* the thrashing experiment needs >2 distinct configurations in at
     least one loop for every benchmark except g721_dec (which stresses
     branchy code instead) *)
  List.iter
    (fun (w : Workload.t) ->
      let a = analyze w in
      let r =
        T1000_select.Greedy.select a.T1000.Runner.cfg a.T1000.Runner.live
          a.T1000.Runner.profile
      in
      let n = T1000_select.Extinstr.count r.T1000_select.Greedy.table in
      check_bool (w.Workload.name ^ " has >= 3 distinct configs") true
        (n >= 3))
    (List.filter
       (fun (w : Workload.t) -> w.Workload.name <> "g721_dec")
       Registry.all)

let per_workload name f =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case (name ^ "/" ^ w.Workload.name) `Quick (f w))
    Registry.all

let () =
  Alcotest.run "t1000_workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry;
          Alcotest.test_case "T1000_WORKLOADS" `Quick test_of_spec;
        ] );
      ("completion", per_workload "runs" test_runs_to_completion);
      ("determinism", per_workload "same" test_deterministic);
      ("reference", per_workload "output" test_reference_is_original_output);
      ("chains", per_workload "greedy" test_greedy_finds_chains);
      ( "equivalence",
        per_workload "greedy" (test_rewrite_equivalence `Greedy)
        @ per_workload "selective" (test_rewrite_equivalence `Selective) );
      ( "diversity",
        [
          Alcotest.test_case "multiple chains per benchmark" `Quick
            test_hot_loops_have_multiple_chains;
        ] );
    ]
