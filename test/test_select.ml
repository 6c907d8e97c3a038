(* Tests for the selection layer: extended-instruction tables, the gain
   model, greedy selection, the containment matrix (replicating the
   paper's Figures 3-4), the selective algorithm, and the rewriter. *)

open T1000_isa
open T1000_asm
open T1000_dfg
open T1000_select
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The paper's Figure 3 loop: one maximal sequence I
   (sll 4 / addu / sll 2) and two standalone occurrences of its prefix
   J (sll 4 / addu). *)
let fig3_loop () =
  let b = Builder.create ~name:"fig3" () in
  Builder.li b R.s3 0x100000;
  Builder.li b R.s4 0x100000;
  Builder.li b R.s5 0x100000;
  Builder.li b R.t0 20;
  Builder.li b R.t3 5 (* r3 of the paper *);
  Builder.li b R.t1 9 (* r1 of the paper *);
  Builder.label b "top";
  (* Extinst_i *)
  Builder.sll b R.v0 R.t3 4;
  Builder.addu b R.v0 R.v0 R.t1;
  Builder.sll b R.v1 R.v0 2;
  Builder.addu b R.s3 R.s3 R.v1;
  (* Extinst_j, first standalone appearance *)
  Builder.sll b R.v0 R.t3 4;
  Builder.addu b R.a0 R.v0 R.t1;
  Builder.addu b R.s4 R.s4 R.a0;
  (* Extinst_j, second standalone appearance *)
  Builder.sll b R.v0 R.t3 4;
  Builder.addu b R.a1 R.v0 R.t1;
  Builder.addu b R.s5 R.s5 R.a1;
  Builder.addiu b R.t0 R.t0 (-1);
  Builder.bgtz b R.t0 "top";
  Builder.halt b;
  Builder.build b

let analyze p =
  let profile = T1000_profile.Profile.collect ~init:(fun _ _ -> ()) p in
  let cfg = Cfg.of_program p in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  let live = Liveness.compute cfg in
  (profile, cfg, dom, loops, live)

let fig3_maximal () =
  let p = fig3_loop () in
  let profile, cfg, _, loops, live = analyze p in
  let occs = Extract.maximal Extract.default_config cfg live profile in
  (p, profile, cfg, loops, live, occs)

(* ---------- Extinstr ---------- *)

let test_extinstr_grouping () =
  let _, _, _, _, _, occs = fig3_maximal () in
  check_int "three maximal occurrences" 3 (List.length occs);
  let table = Extinstr.of_selection occs in
  check_int "two distinct configurations" 2 (Extinstr.count table);
  check_int "three occurrences total" 3 (Extinstr.total_occurrences table);
  let by_occs =
    List.sort
      (fun a b ->
        compare (List.length a.Extinstr.occs) (List.length b.Extinstr.occs))
      (Extinstr.entries table)
  in
  match by_occs with
  | [ i_entry; j_entry ] ->
      check_int "I occurs once" 1 (List.length i_entry.Extinstr.occs);
      check_int "J occurs twice" 2 (List.length j_entry.Extinstr.occs);
      check_int "J is 2 ops" 2 (Dfg.size j_entry.Extinstr.dfg);
      check_int "I is 3 ops" 3 (Dfg.size i_entry.Extinstr.dfg);
      (* table evaluation matches the sequences' computations *)
      check_int "J eval" ((5 lsl 4) + 9)
        (Extinstr.eval table j_entry.Extinstr.eid 5 9);
      check_int "I eval"
        (((5 lsl 4) + 9) lsl 2)
        (Extinstr.eval table i_entry.Extinstr.eid 5 9)
  | _ -> Alcotest.fail "expected two entries"

let test_extinstr_misc () =
  check_int "empty table" 0 (Extinstr.count Extinstr.empty);
  check_bool "bad id" true
    (match Extinstr.get Extinstr.empty 0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let _, _, _, _, _, occs = fig3_maximal () in
  let table = Extinstr.of_selection occs in
  List.iter
    (fun e ->
      check_int "latency 1" 1 e.Extinstr.latency;
      check_bool "lut cost positive" true (e.Extinstr.lut_cost >= 0))
    (Extinstr.entries table)

(* ---------- Gain ---------- *)

let test_gain () =
  let _, profile, _, _, _, occs = fig3_maximal () in
  let seq_i =
    List.find (fun (o : Extract.occ) -> List.length o.Extract.members = 3) occs
  in
  let seq_j =
    List.find (fun (o : Extract.occ) -> List.length o.Extract.members = 2) occs
  in
  check_int "I saves 2 cycles/exec" 2 (Gain.per_exec seq_i.Extract.dfg);
  check_int "J saves 1 cycle/exec" 1 (Gain.per_exec seq_j.Extract.dfg);
  check_int "I count = 20 iterations" 20 (Gain.occ_count profile seq_i);
  check_int "I total gain" 40 (Gain.occ_gain profile seq_i);
  check_bool "ratio positive" true (Gain.ratio profile 40 > 0.0);
  check_bool "ratio sane" true (Gain.ratio profile 40 <= 1.0)

(* ---------- Matrix (paper Figure 4) ---------- *)

let test_matrix_figure4 () =
  let _, profile, cfg, _, live, occs = fig3_maximal () in
  let m = Matrix.build Extract.default_config cfg live profile occs in
  let seq_i =
    List.find (fun (o : Extract.occ) -> List.length o.Extract.members = 3) occs
  in
  let seq_j =
    List.find (fun (o : Extract.occ) -> List.length o.Extract.members = 2) occs
  in
  let i_idx = Option.get (Matrix.index_of_key m seq_i.Extract.key) in
  let j_idx = Option.get (Matrix.index_of_key m seq_j.Extract.key) in
  (* Figure 4: [I,I] = 1; [J,J] = 2; [J,I] = 1; [I,J] = 0 *)
  check_int "[I,I]" 1 (Matrix.entry m i_idx i_idx);
  check_int "[J,J]" 2 (Matrix.entry m j_idx j_idx);
  check_int "[J,I]" 1 (Matrix.entry m j_idx i_idx);
  check_int "[I,J]" 0 (Matrix.entry m i_idx j_idx);
  check_int "row total J = 3 appearances" 3 (Matrix.row_total m j_idx);
  (* Section 5.1's example: J's total gain (3 appearances x 1 cycle)
     beats I's (1 appearance x 2 cycles) *)
  check_int "gain J" (3 * 20) (Matrix.total_gain m j_idx);
  check_int "gain I" (2 * 20) (Matrix.total_gain m i_idx);
  (match Matrix.rank m with
  | (first, _) :: _ -> check_int "J ranked first" j_idx first
  | [] -> Alcotest.fail "empty ranking");
  (* rendering works *)
  ignore (Format.asprintf "%a" Matrix.pp m)

(* ---------- Selective ---------- *)

let run_selective ?(threshold = 0.005) p n_pfus =
  let profile, cfg, _, loops, live = analyze p in
  let params =
    { Selective.default_params with Selective.gain_threshold = threshold }
  in
  Selective.select ~params ~n_pfus cfg loops live profile

let test_selective_one_pfu_chooses_j () =
  (* with a single PFU the matrix step picks the common subsequence J,
     covering all three appearances (the paper's Section 5.1 example) *)
  let p = fig3_loop () in
  let r = run_selective p (Some 1) in
  check_int "one configuration" 1 (Extinstr.count r.Selective.table);
  let e = Extinstr.get r.Selective.table 0 in
  check_int "it is the 2-op J" 2 (Dfg.size e.Extinstr.dfg);
  check_int "covering three sites" 3 (List.length e.Extinstr.occs)

let test_selective_unlimited_keeps_all () =
  let p = fig3_loop () in
  let r = run_selective p None in
  check_int "both configurations" 2 (Extinstr.count r.Selective.table);
  check_int "hot candidates" 2 r.Selective.n_hot

let test_selective_threshold_drops_cold () =
  let p = fig3_loop () in
  let r = run_selective ~threshold:0.9 p (Some 4) in
  check_int "nothing passes a 90% threshold" 0
    (Extinstr.count r.Selective.table)

let test_selective_respects_pfu_count () =
  let p = fig3_loop () in
  let r = run_selective p (Some 2) in
  check_bool "at most 2 configurations" true
    (Extinstr.count r.Selective.table <= 2)

(* ---------- Greedy ---------- *)

let test_greedy () =
  let p = fig3_loop () in
  let profile, cfg, _, _, live = analyze p in
  let r = Greedy.select cfg live profile in
  check_int "greedy keeps both configurations" 2
    (Extinstr.count r.Greedy.table);
  check_int "nothing rejected at default budget" 0 r.Greedy.rejected_lut;
  (* an absurdly small budget rejects everything *)
  let r2 = Greedy.select ~lut_budget:0 cfg live profile in
  check_int "all rejected" 0 (Extinstr.count r2.Greedy.table);
  check_int "rejection count" 3 r2.Greedy.rejected_lut

(* ---------- Rewrite ---------- *)

let run_functional ?(table = Extinstr.empty) p =
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  let i =
    T1000_machine.Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) p
  in
  ignore (T1000_machine.Interp.run i);
  ( T1000_machine.Regfile.get regs R.s3,
    T1000_machine.Regfile.get regs R.s4,
    T1000_machine.Regfile.get regs R.s5 )

let test_rewrite_equivalence () =
  let p = fig3_loop () in
  let profile, cfg, _, _, live = analyze p in
  let r = Greedy.select cfg live profile in
  let rw = Rewrite.apply p r.Greedy.table in
  check_int "three sites collapsed" 3 rw.Rewrite.collapsed;
  check_int "no overlaps" 0 rw.Rewrite.skipped;
  (* I deletes 2 slots, each J deletes 1: four fewer instructions *)
  check_int "deleted slots" 4 rw.Rewrite.deleted_slots;
  check_int "shorter program" (Program.length p - 4)
    (Program.length rw.Rewrite.program);
  check_bool "rewritten program contains ext instrs" true
    (Program.max_ext_id rw.Rewrite.program >= 0);
  (* functional equivalence, including the branch whose target (the
     loop header) was a deleted slot *)
  Alcotest.(check (triple int int int))
    "same architectural results" (run_functional p)
    (run_functional ~table:r.Greedy.table rw.Rewrite.program)

let test_rewrite_selective_equivalence () =
  let p = fig3_loop () in
  let r = run_selective p (Some 1) in
  let rw = Rewrite.apply p r.Selective.table in
  check_int "three sites collapsed" 3 rw.Rewrite.collapsed;
  Alcotest.(check (triple int int int))
    "same architectural results" (run_functional p)
    (run_functional ~table:r.Selective.table rw.Rewrite.program)

let test_table_text_roundtrip () =
  let p = fig3_loop () in
  let profile, cfg, _, _, live = analyze p in
  let r = Greedy.select cfg live profile in
  let text = Extinstr.to_text r.Greedy.table in
  match Extinstr.of_text text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok table ->
      check_int "same entry count" (Extinstr.count r.Greedy.table)
        (Extinstr.count table);
      check_int "same occurrence count"
        (Extinstr.total_occurrences r.Greedy.table)
        (Extinstr.total_occurrences table);
      (* the reloaded table evaluates identically *)
      List.iter
        (fun e ->
          check_int
            (Printf.sprintf "eval ext#%d" e.Extinstr.eid)
            (Extinstr.eval r.Greedy.table e.Extinstr.eid 5 9)
            (Extinstr.eval table e.Extinstr.eid 5 9))
        (Extinstr.entries table);
      (* rewriting with the reloaded table yields the same program *)
      let rw1 = Rewrite.apply p r.Greedy.table in
      let rw2 = Rewrite.apply p table in
      check_int "same rewritten length"
        (Program.length rw1.Rewrite.program)
        (Program.length rw2.Rewrite.program);
      Alcotest.(check (triple int int int))
        "replayed table preserves semantics" (run_functional p)
        (run_functional ~table rw2.Rewrite.program)

let test_table_text_errors () =
  let bad s = match Extinstr.of_text s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "node outside entry" true (bad "node addu a=i0 b=i1 w=4");
  Alcotest.(check bool) "bad op" true (bad "ext 0 inputs=1 latency=1\nnode frob a=i0 b=#0 w=4");
  Alcotest.(check bool) "missing field" true (bad "ext 0 latency=1");
  Alcotest.(check bool) "garbage token" true (bad "wibble");
  Alcotest.(check bool) "non-dense ids" true
    (bad "ext 3 inputs=1 latency=1\nnode addu a=i0 b=#1 w=4");
  Alcotest.(check bool) "empty table ok" true
    (match Extinstr.of_text "# empty\n" with
    | Ok t -> Extinstr.count t = 0
    | Error _ -> false)

let test_rewrite_with_prefetch () =
  let p = fig3_loop () in
  let profile, cfg, _, _, live = analyze p in
  let r = Greedy.select cfg live profile in
  (* hint both configurations before the loop header (the first sll of
     the loop body); the back edge must skip the hints *)
  let header_slot = 6 in
  let rw =
    Rewrite.apply ~prefetch:[ (header_slot, 0); (header_slot, 1) ] p
      r.Greedy.table
  in
  check_int "hints inserted" 2 rw.Rewrite.prefetches_inserted;
  Alcotest.(check (triple int int int))
    "prefetch hints are semantically transparent" (run_functional p)
    (run_functional ~table:r.Greedy.table rw.Rewrite.program);
  (* hints must execute once, not per iteration: count dynamic cfglds *)
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  let interp =
    T1000_machine.Interp.create ~mem ~regs
      ~ext_eval:(Extinstr.eval r.Greedy.table)
      rw.Rewrite.program
  in
  let cfgld_count = ref 0 in
  T1000_machine.Interp.set_observer interp (fun index _ _ _ ->
      match (T1000_machine.Interp.code interp).(index) with
      | Instr.Cfgld _ -> incr cfgld_count
      | _ -> ());
  ignore (T1000_machine.Interp.run interp);
  check_int "hints run once (preheader, not loop body)" 2 !cfgld_count

let test_rewrite_empty_table () =
  let p = fig3_loop () in
  let rw = Rewrite.apply p Extinstr.empty in
  check_int "nothing collapsed" 0 rw.Rewrite.collapsed;
  check_int "same length" (Program.length p)
    (Program.length rw.Rewrite.program)

let () =
  Alcotest.run "t1000_select"
    [
      ( "extinstr",
        [
          Alcotest.test_case "grouping" `Quick test_extinstr_grouping;
          Alcotest.test_case "misc" `Quick test_extinstr_misc;
        ] );
      ("gain", [ Alcotest.test_case "model" `Quick test_gain ]);
      ( "matrix",
        [ Alcotest.test_case "figure 4" `Quick test_matrix_figure4 ] );
      ( "selective",
        [
          Alcotest.test_case "1 PFU chooses J" `Quick
            test_selective_one_pfu_chooses_j;
          Alcotest.test_case "unlimited keeps all" `Quick
            test_selective_unlimited_keeps_all;
          Alcotest.test_case "threshold" `Quick
            test_selective_threshold_drops_cold;
          Alcotest.test_case "PFU count respected" `Quick
            test_selective_respects_pfu_count;
        ] );
      ("greedy", [ Alcotest.test_case "basics" `Quick test_greedy ]);
      ( "rewrite",
        [
          Alcotest.test_case "greedy equivalence" `Quick
            test_rewrite_equivalence;
          Alcotest.test_case "selective equivalence" `Quick
            test_rewrite_selective_equivalence;
          Alcotest.test_case "empty table" `Quick test_rewrite_empty_table;
          Alcotest.test_case "prefetch hints" `Quick
            test_rewrite_with_prefetch;
          Alcotest.test_case "table file round trip" `Quick
            test_table_text_roundtrip;
          Alcotest.test_case "table file errors" `Quick
            test_table_text_errors;
        ] );
    ]
