(* Tests for the machine layer: sparse memory, register file and the
   functional interpreter. *)

open T1000_isa
open T1000_asm
open T1000_machine
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Memory ---------- *)

let test_memory_bytes () =
  let m = Memory.create () in
  check_int "untouched reads zero" 0 (Memory.load_byte m 0x1234);
  Memory.store_byte m 0x1234 0xAB;
  check_int "byte round trip" 0xAB (Memory.load_byte m 0x1234);
  Memory.store_byte m 0x1234 0x1FF;
  check_int "byte truncated" 0xFF (Memory.load_byte m 0x1234)

let test_memory_endianness () =
  let m = Memory.create () in
  Memory.store_word m 0x100 0x11223344;
  check_int "little-endian byte 0" 0x44 (Memory.load_byte m 0x100);
  check_int "little-endian byte 3" 0x11 (Memory.load_byte m 0x103);
  check_int "half low" 0x3344 (Memory.load_half m 0x100);
  check_int "half high" 0x1122 (Memory.load_half m 0x102)

let test_memory_word_sign () =
  let m = Memory.create () in
  Memory.store_word m 0x200 (-5);
  check_int "negative word" (-5) (Memory.load_word m 0x200)

let test_memory_cross_page () =
  let m = Memory.create () in
  let addr = Memory.page_bytes - 2 in
  Memory.store_word m addr 0x55667788;
  check_int "cross-page word" 0x55667788 (Memory.load_word m addr);
  check_int "two pages touched" 2 (Memory.touched_pages m)

let test_memory_clear () =
  let m = Memory.create () in
  Memory.store_word m 0x300 7;
  Memory.clear m;
  check_int "cleared" 0 (Memory.load_word m 0x300);
  check_int "no pages" 0 (Memory.touched_pages m)

let test_memory_blit () =
  let m = Memory.create () in
  Memory.blit_words m 0x400 [| 1; -2; 3 |];
  Alcotest.(check (array int))
    "read back" [| 1; -2; 3 |] (Memory.read_words m 0x400 3)

let test_memory_random =
  (* agreement with a Hashtbl byte-store model *)
  QCheck.Test.make ~name:"memory agrees with model" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 100)
        (pair (int_range 0 100000) (int_range 0 255)))
    (fun writes ->
      let m = Memory.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (a, v) ->
          Memory.store_byte m a v;
          Hashtbl.replace model a v)
        writes;
      List.for_all
        (fun (a, _) ->
          Memory.load_byte m a = Option.value ~default:0 (Hashtbl.find_opt model a))
        writes)

(* The page-directory edges: address 0, the cross-page byte path of a
   halfword and a word, the boundary between the first two directory
   entries, the top of the address space and wrap-around above it. *)
let test_memory_directory () =
  let m = Memory.create () in
  check_int "address 0 unmapped" 0 (Memory.load_word m 0);
  check_int "loads allocate nothing" 0 (Memory.touched_pages m);
  Memory.store_byte m 0 0x5A;
  check_int "address 0" 0x5A (Memory.load_byte m 0);
  Memory.store_half m 0xFFE 0xBEEF;
  check_int "halfword at the page end" 0xBEEF (Memory.load_half m 0xFFE);
  check_int "page 0 only" 1 (Memory.touched_pages m);
  Memory.store_word m 0xFFD 0x12345678;
  check_int "word across pages" 0x12345678 (Memory.load_word m 0xFFD);
  check_int "its last byte on page 1" 0x12 (Memory.load_byte m 0x1000);
  check_int "two pages" 2 (Memory.touched_pages m);
  Memory.store_word m 0x3FFFFC (-7);
  Memory.store_word m 0x400000 0x7ABBCCDD;
  check_int "last word of directory entry 0" (-7) (Memory.load_word m 0x3FFFFC);
  check_int "first word of directory entry 1" 0x7ABBCCDD
    (Memory.load_word m 0x400000);
  Memory.store_word m 0x3FFFFE 0x11223344;
  check_int "word across the entry boundary" 0x11223344
    (Memory.load_word m 0x3FFFFE);
  check_int "its high half in entry 1" 0x1122 (Memory.load_half m 0x400000);
  Memory.store_word m 0xFFFFFFFC 0x01020304;
  check_int "top word" 0x01020304 (Memory.load_word m 0xFFFFFFFC);
  check_int "above 2^32 wraps" 0x01020304
    (Memory.load_word m (0x1_FFFFFFFC));
  Memory.store_byte m (0x2_0000_0010) 0x77;
  check_int "a wrapped store lands low" 0x77 (Memory.load_byte m 0x10);
  let pages = Memory.touched_pages m in
  check_int "five pages" 5 pages;
  List.iter
    (fun a ->
      check_int (Printf.sprintf "unmapped 0x%x" a) 0 (Memory.load_word m a))
    [ 0x2000; 0x3FF000; 0x800000; 0x7FFFFFF0; 0xFFFFE000 ];
  check_int "unmapped loads leave the count" pages (Memory.touched_pages m);
  Memory.clear m;
  check_int "clear resets the count" 0 (Memory.touched_pages m);
  check_int "and the contents" 0 (Memory.load_word m 0x400000);
  Memory.store_word m 0x400000 1;
  check_int "usable after clear" 1 (Memory.load_word m 0x400000);
  check_int "one page after clear" 1 (Memory.touched_pages m)

(* ---------- Int_tbl ---------- *)

(* 100 k random operations against a [Hashtbl] model, over key classes
   that stress the hash: 0, keys at and above 2^30, and keys strided by
   1024 (word indices one 4 KiB page apart). *)
let test_int_tbl_model () =
  let t = Int_tbl.create 4 and model = Hashtbl.create 64 in
  let rng = Random.State.make [| 20 |] in
  let key () =
    match Random.State.int rng 4 with
    | 0 -> 0
    | 1 -> (1 lsl 30) + Random.State.int rng 5000
    | 2 -> 1024 * Random.State.int rng 5000
    | _ -> Random.State.int rng 20000
  in
  for i = 1 to 100_000 do
    let k = key () in
    match Random.State.int rng 3 with
    | 0 ->
        Int_tbl.replace t k i;
        Hashtbl.replace model k i
    | 1 ->
        let got = try Some (Int_tbl.find t k) with Not_found -> None in
        if got <> Hashtbl.find_opt model k then
          Alcotest.failf "find %d disagrees with the model" k;
        if Int_tbl.find_or t k ~default:(-1)
           <> Option.value ~default:(-1) (Hashtbl.find_opt model k)
        then Alcotest.failf "find_or %d disagrees with the model" k
    | _ ->
        if Int_tbl.mem t k <> Hashtbl.mem model k then
          Alcotest.failf "mem %d disagrees with the model" k
  done;
  (* from a 16-slot start, more than 128 bindings take at least 4
     doublings *)
  check_bool "grew through 4 resizes" true (Hashtbl.length model > 128);
  check_int "length" (Hashtbl.length model) (Int_tbl.length t);
  Hashtbl.iter
    (fun k v -> check_int (Printf.sprintf "binding %d" k) v (Int_tbl.find t k))
    model;
  check_bool "negative keys are never bound" false (Int_tbl.mem t (-1));
  Alcotest.check_raises "a negative key is rejected"
    (Invalid_argument "Int_tbl.replace: negative key") (fun () ->
      Int_tbl.replace t (-3) 1)

(* ---------- Regfile ---------- *)

let test_regfile () =
  let r = Regfile.create () in
  check_int "initial zero" 0 (Regfile.get r R.t3);
  Regfile.set r R.t3 42;
  check_int "set/get" 42 (Regfile.get r R.t3);
  Regfile.set r R.zero 99;
  check_int "r0 writes discarded" 0 (Regfile.get r R.zero);
  Regfile.set_hi r 7;
  Regfile.set_lo r 8;
  check_int "hi" 7 (Regfile.hi r);
  check_int "lo" 8 (Regfile.lo r);
  let c = Regfile.copy r in
  Regfile.set r R.t3 0;
  check_int "copy independent" 42 (Regfile.get c R.t3);
  Regfile.reset r;
  check_int "reset" 0 (Regfile.hi r)

(* ---------- Interp ---------- *)

let run_program ?ext_eval build =
  let b = Builder.create () in
  build b;
  let p = Builder.build b in
  let mem = Memory.create () in
  let regs = Regfile.create () in
  let i = Interp.create ~mem ~regs ?ext_eval p in
  let steps = Interp.run i in
  (steps, regs, mem)

let test_interp_arith () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.t0 6;
        Builder.li b R.t1 7;
        Builder.addu b R.t2 R.t0 R.t1;
        Builder.mult b R.t0 R.t1;
        Builder.mflo b R.t3;
        Builder.subu b R.t4 R.t0 R.t1;
        Builder.halt b)
  in
  check_int "add" 13 (Regfile.get regs R.t2);
  check_int "mult" 42 (Regfile.get regs R.t3);
  check_int "sub" (-1) (Regfile.get regs R.t4)

let test_interp_variable_shifts () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.t0 0x80;
        Builder.li b R.t1 3;
        Builder.sllv b R.t2 R.t0 R.t1;
        Builder.srlv b R.t3 R.t0 R.t1;
        Builder.li b R.t4 (-64);
        Builder.srav b R.t5 R.t4 R.t1;
        (* shift amounts are masked to 5 bits *)
        Builder.li b R.t6 33;
        Builder.sllv b R.t7 R.t0 R.t6;
        Builder.halt b)
  in
  check_int "sllv" 0x400 (Regfile.get regs R.t2);
  check_int "srlv" 0x10 (Regfile.get regs R.t3);
  check_int "srav" (-8) (Regfile.get regs R.t5);
  check_int "masked amount" 0x100 (Regfile.get regs R.t7)

let test_interp_muldiv_unsigned () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.t0 (-1) (* 0xFFFFFFFF unsigned *);
        Builder.li b R.t1 2;
        Builder.multu b R.t0 R.t1;
        Builder.mfhi b R.t2;
        Builder.mflo b R.t3;
        Builder.divu b R.t0 R.t1;
        Builder.mflo b R.t4 (* quotient *);
        Builder.mfhi b R.t5 (* remainder *);
        Builder.halt b)
  in
  check_int "multu hi" 1 (Regfile.get regs R.t2);
  check_int "multu lo" (-2) (Regfile.get regs R.t3);
  check_int "divu quotient" 0x7FFFFFFF (Regfile.get regs R.t4);
  check_int "divu remainder" 1 (Regfile.get regs R.t5)

let test_interp_slt_family () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.t0 (-5);
        Builder.li b R.t1 3;
        Builder.slt b R.t2 R.t0 R.t1;
        Builder.sltu b R.t3 R.t0 R.t1 (* -5 unsigned is huge *);
        Builder.slti b R.t4 R.t1 10;
        Builder.sltiu b R.t5 R.t1 2;
        Builder.halt b)
  in
  check_int "slt" 1 (Regfile.get regs R.t2);
  check_int "sltu" 0 (Regfile.get regs R.t3);
  check_int "slti" 1 (Regfile.get regs R.t4);
  check_int "sltiu" 0 (Regfile.get regs R.t5)

let test_interp_branch_conditions () =
  (* each condition both ways *)
  let run_cond f =
    let _, regs, _ =
      run_program (fun b ->
          Builder.li b R.t9 0;
          f b;
          Builder.li b R.t9 1 (* skipped when the branch is taken *);
          Builder.label b "out";
          Builder.halt b)
    in
    Regfile.get regs R.t9
  in
  check_int "beq taken" 0
    (run_cond (fun b ->
         Builder.li b R.t0 7;
         Builder.li b R.t1 7;
         Builder.beq b R.t0 R.t1 "out"));
  check_int "bne not taken" 1
    (run_cond (fun b ->
         Builder.li b R.t0 7;
         Builder.li b R.t1 7;
         Builder.bne b R.t0 R.t1 "out"));
  check_int "blez taken on zero" 0
    (run_cond (fun b ->
         Builder.li b R.t0 0;
         Builder.blez b R.t0 "out"));
  check_int "bgtz not taken on zero" 1
    (run_cond (fun b ->
         Builder.li b R.t0 0;
         Builder.bgtz b R.t0 "out"));
  check_int "bltz taken" 0
    (run_cond (fun b ->
         Builder.li b R.t0 (-1);
         Builder.bltz b R.t0 "out"));
  check_int "bgez taken on zero" 0
    (run_cond (fun b ->
         Builder.li b R.t0 0;
         Builder.bgez b R.t0 "out"))

let test_interp_branches () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.t0 0;
        Builder.li b R.t1 5;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 2;
        Builder.addiu b R.t1 R.t1 (-1);
        Builder.bgtz b R.t1 "top";
        Builder.halt b)
  in
  check_int "loop sum" 10 (Regfile.get regs R.t0)

let test_interp_memory () =
  let _, regs, mem =
    run_program (fun b ->
        Builder.li b R.t0 0x1000;
        Builder.li b R.t1 (-300);
        Builder.sw b R.t1 4 R.t0;
        Builder.lw b R.t2 4 R.t0;
        Builder.lh b R.t3 4 R.t0;
        Builder.lhu b R.t4 4 R.t0;
        Builder.lb b R.t5 4 R.t0;
        Builder.lbu b R.t6 4 R.t0;
        Builder.halt b)
  in
  check_int "sw/lw" (-300) (Regfile.get regs R.t2);
  check_int "lh sign" (-300) (Regfile.get regs R.t3);
  check_int "lhu zero-extends" 0xFED4 (Regfile.get regs R.t4);
  check_int "lb sign" (Word.sext8 0xD4) (Regfile.get regs R.t5);
  check_int "lbu" 0xD4 (Regfile.get regs R.t6);
  check_int "memory state" (Word.to_u32 (-300) land 0xFFFF)
    (Memory.load_half mem 0x1004)

let test_interp_call () =
  let _, regs, _ =
    run_program (fun b ->
        Builder.li b R.a0 5;
        Builder.jal b "double";
        Builder.move b R.t0 R.v0;
        Builder.halt b;
        Builder.label b "double";
        Builder.addu b R.v0 R.a0 R.a0;
        Builder.jr b R.ra)
  in
  check_int "call result" 10 (Regfile.get regs R.t0)

let test_interp_ext () =
  let ext_eval eid v1 v2 =
    check_int "eid" 4 eid;
    (v1 * 10) + v2
  in
  let _, regs, _ =
    run_program ~ext_eval (fun b ->
        Builder.li b R.t1 3;
        Builder.li b R.t2 7;
        Builder.ext b 4 R.t0 R.t1 R.t2;
        Builder.halt b)
  in
  check_int "ext result" 37 (Regfile.get regs R.t0)

let test_interp_ext_missing () =
  check_bool "missing evaluator faults" true
    (match
       run_program (fun b ->
           Builder.ext b 0 R.t0 R.t1 R.t2;
           Builder.halt b)
     with
    | exception Interp.Fault _ -> true
    | _ -> false)

let test_interp_faults () =
  check_bool "fall off end" true
    (match run_program (fun b -> Builder.nop b) with
    | exception Interp.Fault _ -> true
    | _ -> false);
  check_bool "unaligned lw" true
    (match
       run_program (fun b ->
           Builder.li b R.t0 0x1001;
           Builder.lw b R.t1 0 R.t0;
           Builder.halt b)
     with
    | exception Interp.Fault _ -> true
    | _ -> false);
  (* infinite loop is stopped by max_steps *)
  let b = Builder.create () in
  Builder.label b "spin";
  Builder.j b "spin";
  Builder.halt b;
  let i = Interp.create (Builder.build b) in
  check_bool "max_steps" true
    (match Interp.run ~max_steps:100 i with
    | exception Interp.Fault _ -> true
    | _ -> false)

let test_interp_step_and_state () =
  let b = Builder.create () in
  Builder.li b R.t0 1;
  Builder.halt b;
  let p = Builder.build b in
  let i = Interp.create p in
  check_int "pc starts at 0" 0 (Interp.pc i);
  check_bool "not halted" false (Interp.halted i);
  (match Interp.step i with
  | Some e ->
      check_int "entry index" 0 e.Trace.index;
      check_int "no mem addr" (-1) e.Trace.mem_addr
  | None -> Alcotest.fail "expected an entry");
  ignore (Interp.step i);
  check_bool "halted" true (Interp.halted i);
  check_bool "step after halt" true (Interp.step i = None);
  check_int "steps" 2 (Interp.steps i)

let test_interp_trace_mem_addr () =
  let b = Builder.create () in
  Builder.li b R.t0 0x2000;
  Builder.sw b R.t0 8 R.t0;
  Builder.halt b;
  let p = Builder.build b in
  let i = Interp.create p in
  ignore (Interp.step i);
  (match Interp.step i with
  | Some e -> check_int "effective address" 0x2008 e.Trace.mem_addr
  | None -> Alcotest.fail "expected store entry");
  ignore (Interp.run i)

let test_interp_observer () =
  let seen = ref [] in
  let b = Builder.create () in
  Builder.li b R.t0 5;
  Builder.addiu b R.t1 R.t0 3;
  Builder.halt b;
  let p = Builder.build b in
  let i = Interp.create p in
  Interp.set_observer i (fun index src1 src2 result ->
      seen := (index, src1, src2, result) :: !seen);
  ignore (Interp.run i);
  (* slot, operands (an immediate as the second) and result per step *)
  Alcotest.(check (list (pair int (triple int int int))))
    "observed steps"
    [ (0, (0, 5, 5)); (1, (5, 3, 8)); (2, (0, 0, 0)) ]
    (List.rev_map (fun (i, a, b, r) -> (i, (a, b, r))) !seen);
  (* clearing stops observation *)
  let i2 = Interp.create p in
  Interp.set_observer i2 (fun _ _ _ _ ->
      Alcotest.fail "observer not cleared");
  Interp.clear_observer i2;
  ignore (Interp.run i2)

(* decode(encode(p)) executes identically *)
let test_encoded_program_equivalence () =
  let b = Builder.create () in
  Builder.li b R.t0 10;
  Builder.li b R.t1 0;
  Builder.label b "top";
  Builder.addu b R.t1 R.t1 R.t0;
  Builder.addiu b R.t0 R.t0 (-1);
  Builder.bgtz b R.t0 "top";
  Builder.halt b;
  let p = Builder.build b in
  let roundtripped =
    Program.make
      (Array.init (Program.length p) (fun i ->
           Encoding.decode ~index:i
             (Encoding.encode ~index:i (Program.get p i))))
  in
  let run p =
    let regs = Regfile.create () in
    let i = Interp.create ~regs p in
    ignore (Interp.run i);
    Regfile.get regs R.t1
  in
  check_int "same result" (run p) (run roundtripped);
  check_int "sum value" 55 (run p)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "t1000_machine"
    [
      ( "memory",
        [
          Alcotest.test_case "bytes" `Quick test_memory_bytes;
          Alcotest.test_case "endianness" `Quick test_memory_endianness;
          Alcotest.test_case "word sign" `Quick test_memory_word_sign;
          Alcotest.test_case "cross page" `Quick test_memory_cross_page;
          Alcotest.test_case "clear" `Quick test_memory_clear;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          Alcotest.test_case "page directory" `Quick test_memory_directory;
        ]
        @ qsuite [ test_memory_random ] );
      ( "int_tbl",
        [ Alcotest.test_case "agrees with model" `Quick test_int_tbl_model ] );
      ("regfile", [ Alcotest.test_case "basics" `Quick test_regfile ]);
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "branches" `Quick test_interp_branches;
          Alcotest.test_case "variable shifts" `Quick
            test_interp_variable_shifts;
          Alcotest.test_case "unsigned mul/div" `Quick
            test_interp_muldiv_unsigned;
          Alcotest.test_case "slt family" `Quick test_interp_slt_family;
          Alcotest.test_case "branch conditions" `Quick
            test_interp_branch_conditions;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "call/return" `Quick test_interp_call;
          Alcotest.test_case "extended instr" `Quick test_interp_ext;
          Alcotest.test_case "missing ext evaluator" `Quick
            test_interp_ext_missing;
          Alcotest.test_case "faults" `Quick test_interp_faults;
          Alcotest.test_case "step/state" `Quick test_interp_step_and_state;
          Alcotest.test_case "trace mem addr" `Quick
            test_interp_trace_mem_addr;
          Alcotest.test_case "observer" `Quick test_interp_observer;
          Alcotest.test_case "encoded equivalence" `Quick
            test_encoded_program_equivalence;
        ] );
    ]
