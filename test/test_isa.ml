(* Unit and property tests for the ISA layer: 32-bit word arithmetic,
   registers, instruction dependence views, and the binary encoding. *)

open T1000_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Word ---------- *)

let test_sext32 () =
  check_int "identity small" 42 (Word.sext32 42);
  check_int "negative" (-1) (Word.sext32 0xFFFF_FFFF);
  check_int "msb set" (-2147483648) (Word.sext32 0x8000_0000);
  check_int "max positive" 2147483647 (Word.sext32 0x7FFF_FFFF);
  check_int "truncates" 1 (Word.sext32 0x1_0000_0001)

let test_to_u32 () =
  check_int "positive" 42 (Word.to_u32 42);
  check_int "negative wraps" 0xFFFF_FFFF (Word.to_u32 (-1));
  check_int "min int32" 0x8000_0000 (Word.to_u32 (-2147483648))

let test_add_sub_wrap () =
  check_int "add wraps" (-2147483648) (Word.add 2147483647 1);
  check_int "sub wraps" 2147483647 (Word.sub (-2147483648) 1);
  check_int "add neg" (-3) (Word.add (-1) (-2))

let test_mul () =
  check_int "mul_lo small" 56 (Word.mul_lo 7 8);
  check_int "mul_lo wraps" 0 (Word.mul_lo 0x10000 0x10000);
  check_int "mul_hi_signed" 1 (Word.mul_hi_signed 0x10000 0x10000);
  check_int "mul_hi_signed neg" (-1) (Word.mul_hi_signed (-2) 0x4000_0000)

let test_mul_hi_reference =
  QCheck.Test.make ~name:"mul_hi agrees with Int64" ~count:1000
    (QCheck.pair QCheck.int QCheck.int)
    (fun (a, b) ->
      let a = Word.sext32 a and b = Word.sext32 b in
      let signed_ref =
        Int64.to_int
          (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)
      in
      let unsigned_ref =
        Int64.to_int
          (Int64.shift_right_logical
             (Int64.mul
                (Int64.of_int (Word.to_u32 a))
                (Int64.of_int (Word.to_u32 b)))
             32)
      in
      Word.mul_hi_signed a b = Word.sext32 signed_ref
      && Word.mul_hi_unsigned a b = Word.sext32 unsigned_ref)

let test_div () =
  check_int "quot" 3 (fst (Word.div_signed 7 2));
  check_int "rem" 1 (snd (Word.div_signed 7 2));
  check_int "neg quot" (-3) (fst (Word.div_signed (-7) 2));
  check_int "div by zero quot" 0 (fst (Word.div_signed 5 0));
  check_int "div by zero rem" 5 (snd (Word.div_signed 5 0));
  check_int "divu large" 1 (fst (Word.div_unsigned (-1) 0xFFFF_FFFE));
  check_int "divu rem" 1 (snd (Word.div_unsigned (-1) 0xFFFF_FFFE))

let test_logic () =
  check_int "and" 0b1000 (Word.logand 0b1100 0b1010);
  check_int "or" 0b1110 (Word.logor 0b1100 0b1010);
  check_int "xor" 0b0110 (Word.logxor 0b1100 0b1010);
  check_int "nor" (-15) (Word.lognor 0b1100 0b1010)

let test_shifts () =
  check_int "sll" 0b1000 (Word.sll 1 3);
  check_int "sll masks amount" 2 (Word.sll 1 33);
  check_int "srl sign" 0x7FFF_FFFF (Word.srl (-1) 1);
  check_int "sra sign" (-1) (Word.sra (-1) 1);
  check_int "sra normal" (-2) (Word.sra (-8) 2);
  check_int "srl masks amount" (Word.srl (-1) 1) (Word.srl (-1) 33)

let test_compare () =
  check_int "slt true" 1 (Word.slt (-1) 0);
  check_int "slt false" 0 (Word.slt 0 (-1));
  check_int "sltu wraps" 0 (Word.sltu (-1) 0);
  check_int "sltu true" 1 (Word.sltu 0 (-1))

let test_extend () =
  check_int "sext8 neg" (-1) (Word.sext8 0xFF);
  check_int "sext8 pos" 127 (Word.sext8 0x7F);
  check_int "sext16 neg" (-32768) (Word.sext16 0x8000);
  check_int "zext8" 0xFF (Word.zext8 (-1));
  check_int "zext16" 0xFFFF (Word.zext16 (-1))

let test_width () =
  check_int "width_signed 0" 1 (Word.width_signed 0);
  check_int "width_signed -1" 1 (Word.width_signed (-1));
  check_int "width_signed 1" 2 (Word.width_signed 1);
  check_int "width_signed 255" 9 (Word.width_signed 255);
  check_int "width_signed -256" 9 (Word.width_signed (-256));
  check_int "width_signed min32" 32 (Word.width_signed (-2147483648));
  check_int "width_unsigned 0" 1 (Word.width_unsigned 0);
  check_int "width_unsigned 255" 8 (Word.width_unsigned 255);
  check_int "width_unsigned -1" 32 (Word.width_unsigned (-1))

let test_width_bounds =
  QCheck.Test.make ~name:"widths within 1..32" ~count:1000 QCheck.int
    (fun v ->
      let v = Word.sext32 v in
      let ws = Word.width_signed v and wu = Word.width_unsigned v in
      ws >= 1 && ws <= 32 && wu >= 1 && wu <= 32)

let test_width_minimal =
  QCheck.Test.make ~name:"width_signed is minimal" ~count:1000
    QCheck.(int_range (-1000000) 1000000)
    (fun v ->
      let w = Word.width_signed v in
      let fits bits = v >= -(1 lsl (bits - 1)) && v < 1 lsl (bits - 1) in
      fits w && (w = 1 || not (fits (w - 1))))

(* The bit-at-a-time loop [Word] used before its shift cascade: the
   reference the cascade must agree with everywhere. *)
let ref_bits_for_nonneg v =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  if v = 0 then 0 else go v 0

let ref_width_signed v =
  if v >= 0 then 1 + ref_bits_for_nonneg v
  else 1 + ref_bits_for_nonneg (lnot v)

let ref_width_unsigned v =
  let v = Word.to_u32 v in
  if v = 0 then 1 else ref_bits_for_nonneg v

let check_widths_match v =
  check_int (Printf.sprintf "width_signed %d" v) (ref_width_signed v)
    (Word.width_signed v);
  check_int (Printf.sprintf "width_unsigned %d" v) (ref_width_unsigned v)
    (Word.width_unsigned v)

let test_width_matches_loop () =
  List.iter check_widths_match [ 0; 1; -1; min_int; max_int ];
  for k = 0 to Sys.int_size - 2 do
    let p = 1 lsl k in
    List.iter check_widths_match [ p; -p; p - 1; -(p - 1) ]
  done

let test_width_matches_loop_random =
  QCheck.Test.make ~name:"widths agree with the bit-at-a-time loop"
    ~count:2000 QCheck.int (fun v ->
      Word.width_signed v = ref_width_signed v
      && Word.width_unsigned v = ref_width_unsigned v)

(* ---------- Reg ---------- *)

let test_reg () =
  check_int "r0" 0 (Reg.to_int Reg.zero);
  check_int "ra" 31 (Reg.to_int Reg.ra);
  check_bool "equal" true (Reg.equal Reg.t0 (Reg.of_int 8));
  Alcotest.check_raises "of_int 32"
    (Invalid_argument "Reg.of_int: out of range") (fun () ->
      ignore (Reg.of_int 32));
  Alcotest.check_raises "of_int -1"
    (Invalid_argument "Reg.of_int: out of range") (fun () ->
      ignore (Reg.of_int (-1)));
  Alcotest.(check string) "pp" "r7" (Format.asprintf "%a" Reg.pp Reg.a3)

(* ---------- Instr ---------- *)

let sorted = List.sort compare

let test_defs_uses () =
  let check_du name i defs uses =
    Alcotest.(check (list int))
      (name ^ " defs") (sorted defs)
      (sorted (Instr.defs i));
    Alcotest.(check (list int))
      (name ^ " uses") (sorted uses)
      (sorted (Instr.uses i))
  in
  check_du "alu_rrr"
    (Instr.Alu_rrr (Op.Add, Reg.t0, Reg.t1, Reg.t2))
    [ 8 ] [ 9; 10 ];
  check_du "write to r0 discarded"
    (Instr.Alu_rrr (Op.Add, Reg.zero, Reg.t1, Reg.t2))
    [] [ 9; 10 ];
  check_du "muldiv writes hilo"
    (Instr.Muldiv (Op.Mult, Reg.t0, Reg.t1))
    [ Instr.hi_reg; Instr.lo_reg ]
    [ 8; 9 ];
  check_du "mfhi" (Instr.Mfhi Reg.t3) [ 11 ] [ Instr.hi_reg ];
  check_du "load" (Instr.Load (Op.LW, Reg.t0, Reg.sp, 4)) [ 8 ] [ 29 ];
  check_du "store" (Instr.Store (Op.SW, Reg.t0, Reg.sp, 4)) [] [ 8; 29 ];
  check_du "beq uses both"
    (Instr.Branch (Op.Beq, Reg.t0, Reg.t1, 3))
    [] [ 8; 9 ];
  check_du "blez uses one"
    (Instr.Branch (Op.Blez, Reg.t0, Reg.zero, 3))
    [] [ 8 ];
  check_du "jal defs ra" (Instr.Jal 5) [ 31 ] [];
  check_du "ext one input"
    (Instr.Ext { eid = 0; dst = Reg.t0; src1 = Reg.t1; src2 = Reg.zero })
    [ 8 ] [ 9 ];
  check_du "ext two inputs"
    (Instr.Ext { eid = 0; dst = Reg.t0; src1 = Reg.t1; src2 = Reg.t2 })
    [ 8 ] [ 9; 10 ];
  check_du "cfgld" (Instr.Cfgld 3) [] [];
  check_du "nop" Instr.Nop [] []

let test_fu_class () =
  let fu = Instr.fu_class in
  check_bool "alu" true
    (fu (Instr.Alu_rrr (Op.Add, Reg.t0, Reg.t1, Reg.t2)) = Op.Fu_int_alu);
  check_bool "mult" true
    (fu (Instr.Muldiv (Op.Mult, Reg.t0, Reg.t1)) = Op.Fu_int_mult);
  check_bool "div" true
    (fu (Instr.Muldiv (Op.Div, Reg.t0, Reg.t1)) = Op.Fu_int_div);
  check_bool "load" true
    (fu (Instr.Load (Op.LW, Reg.t0, Reg.t1, 0)) = Op.Fu_mem_read);
  check_bool "store" true
    (fu (Instr.Store (Op.SW, Reg.t0, Reg.t1, 0)) = Op.Fu_mem_write);
  check_bool "branch" true
    (fu (Instr.Branch (Op.Beq, Reg.t0, Reg.t1, 0)) = Op.Fu_branch);
  check_bool "ext" true
    (fu (Instr.Ext { eid = 0; dst = Reg.t0; src1 = Reg.t1; src2 = Reg.zero })
    = Op.Fu_pfu);
  check_bool "nop" true (fu Instr.Nop = Op.Fu_none)

let test_latency () =
  check_int "alu" 1
    (Instr.latency (Instr.Alu_rrr (Op.Add, Reg.t0, Reg.t1, Reg.t2)));
  check_int "mult" 3 (Instr.latency (Instr.Muldiv (Op.Mult, Reg.t0, Reg.t1)));
  check_int "div" 20 (Instr.latency (Instr.Muldiv (Op.Div, Reg.t0, Reg.t1)));
  check_int "ext is single cycle" 1
    (Instr.latency
       (Instr.Ext { eid = 0; dst = Reg.t0; src1 = Reg.t1; src2 = Reg.zero }))

let test_map_targets () =
  let f t = t + 10 in
  (match Instr.map_targets f (Instr.Branch (Op.Bne, Reg.t0, Reg.t1, 5)) with
  | Instr.Branch (Op.Bne, _, _, 15) -> ()
  | i -> Alcotest.failf "branch remap: %a" Instr.pp i);
  (match Instr.map_targets f (Instr.Jump 7) with
  | Instr.Jump 17 -> ()
  | i -> Alcotest.failf "jump remap: %a" Instr.pp i);
  check_bool "non-control unchanged" true
    (Instr.equal
       (Instr.map_targets f (Instr.Load (Op.LW, Reg.t0, Reg.t1, 0)))
       (Instr.Load (Op.LW, Reg.t0, Reg.t1, 0)))

let test_is_control () =
  check_bool "branch" true
    (Instr.is_control (Instr.Branch (Op.Beq, Reg.t0, Reg.t1, 0)));
  check_bool "jr" true (Instr.is_control (Instr.Jr Reg.ra));
  check_bool "alu" false
    (Instr.is_control (Instr.Alu_rrr (Op.Add, Reg.t0, Reg.t1, Reg.t2)));
  check_bool "halt" false (Instr.is_control Instr.Halt)

(* ---------- Encoding ---------- *)

let reg_gen = QCheck.Gen.map Reg.of_int (QCheck.Gen.int_range 0 31)

let instr_gen : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let alu = oneofl Op.[ Add; Addu; Sub; Subu; And; Or; Xor; Nor; Slt; Sltu ] in
  let alu_imm = oneofl Op.[ Add; Addu; Slt; Sltu ] in
  let logic_imm = oneofl Op.[ And; Or; Xor ] in
  let shift = oneofl Op.[ Sll; Srl; Sra ] in
  let muldiv = oneofl Op.[ Mult; Multu; Div; Divu ] in
  let lwidth = oneofl Op.[ LB; LBU; LH; LHU; LW ] in
  let swidth = oneofl Op.[ SB; SH; SW ] in
  let cond2 = oneofl Op.[ Beq; Bne ] in
  let cond1 = oneofl Op.[ Blez; Bgtz; Bltz; Bgez ] in
  let simm = int_range (-32768) 32767 in
  let uimm = int_range 0 65535 in
  let target = int_range 0 99 in
  frequency
    [
      ( 4,
        map2
          (fun op (a, b, c) -> Instr.Alu_rrr (op, a, b, c))
          alu
          (triple reg_gen reg_gen reg_gen) );
      ( 2,
        map2
          (fun op (a, b, i) -> Instr.Alu_rri (op, a, b, i))
          alu_imm
          (triple reg_gen reg_gen simm) );
      ( 2,
        map2
          (fun op (a, b, i) -> Instr.Alu_rri (op, a, b, i))
          logic_imm
          (triple reg_gen reg_gen uimm) );
      ( 2,
        map2
          (fun op (a, b, s) -> Instr.Shift_imm (op, a, b, s))
          shift
          (triple reg_gen reg_gen (int_range 0 31)) );
      ( 2,
        map2
          (fun op (a, b, c) -> Instr.Shift_reg (op, a, b, c))
          shift
          (triple reg_gen reg_gen reg_gen) );
      (1, map2 (fun r i -> Instr.Lui (r, i)) reg_gen uimm);
      ( 1,
        map2 (fun op (a, b) -> Instr.Muldiv (op, a, b)) muldiv
          (pair reg_gen reg_gen) );
      (1, map (fun r -> Instr.Mfhi r) reg_gen);
      (1, map (fun r -> Instr.Mflo r) reg_gen);
      ( 2,
        map2
          (fun w (a, b, o) -> Instr.Load (w, a, b, o))
          lwidth
          (triple reg_gen reg_gen simm) );
      ( 2,
        map2
          (fun w (a, b, o) -> Instr.Store (w, a, b, o))
          swidth
          (triple reg_gen reg_gen simm) );
      ( 1,
        map2
          (fun c (a, b, t) -> Instr.Branch (c, a, b, t))
          cond2
          (triple reg_gen reg_gen target) );
      ( 1,
        map2
          (fun c (a, t) -> Instr.Branch (c, a, Reg.zero, t))
          cond1 (pair reg_gen target) );
      (1, map (fun t -> Instr.Jump t) target);
      (1, map (fun t -> Instr.Jal t) target);
      (1, map (fun r -> Instr.Jr r) reg_gen);
      (1, map2 (fun a b -> Instr.Jalr (a, b)) reg_gen reg_gen);
      ( 1,
        map
          (fun (e, (d, s1, s2)) ->
            Instr.Ext { eid = e; dst = d; src1 = s1; src2 = s2 })
          (pair (int_range 0 2047) (triple reg_gen reg_gen reg_gen)) );
      (1, map (fun e -> Instr.Cfgld e) (int_range 0 2047));
      (1, return Instr.Nop);
      (1, return Instr.Halt);
    ]

let test_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round trip" ~count:2000
    (QCheck.make instr_gen) (fun i ->
      let index = 50 in
      let word = Encoding.encode ~index i in
      word >= 0
      && word < 0x1_0000_0000
      && Instr.equal (Encoding.decode ~index word) i)

let test_encode_specific () =
  check_int "nop is zero" 0 (Encoding.encode ~index:0 Instr.Nop);
  let add = Instr.Alu_rrr (Op.Addu, Reg.v0, Reg.a0, Reg.a1) in
  check_int "addu encoding" 0x00851021 (Encoding.encode ~index:0 add);
  check_bool "halt decodes" true
    (Instr.equal Instr.Halt
       (Encoding.decode ~index:0 (Encoding.encode ~index:0 Instr.Halt)))

let test_encode_errors () =
  let fails f = match f () with exception Encoding.Unencodable _ -> true | _ -> false in
  check_bool "imm too large" true
    (fails (fun () ->
         Encoding.encode ~index:0
           (Instr.Alu_rri (Op.Add, Reg.t0, Reg.t1, 40000))));
  check_bool "no immediate sub" true
    (fails (fun () ->
         Encoding.encode ~index:0 (Instr.Alu_rri (Op.Sub, Reg.t0, Reg.t1, 1))));
  check_bool "branch too far" true
    (fails (fun () ->
         Encoding.encode ~index:0
           (Instr.Branch (Op.Beq, Reg.t0, Reg.t1, 100000))));
  check_bool "ext id too big" true
    (fails (fun () ->
         Encoding.encode ~index:0
           (Instr.Ext { eid = 4096; dst = Reg.t0; src1 = Reg.t1; src2 = Reg.t2 })));
  check_bool "unknown opcode" true
    (fails (fun () -> ignore (Encoding.decode ~index:0 (0x3A lsl 26))))

let test_addresses () =
  check_int "slot 0" Encoding.text_base (Encoding.address_of_index 0);
  check_int "slot 5" (Encoding.text_base + 40) (Encoding.address_of_index 5);
  check_int "round trip" 17
    (Encoding.index_of_address (Encoding.address_of_index 17));
  check_bool "bad address" true
    (match Encoding.index_of_address 3 with
    | exception Encoding.Unencodable _ -> true
    | _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "t1000_isa"
    [
      ( "word",
        [
          Alcotest.test_case "sext32" `Quick test_sext32;
          Alcotest.test_case "to_u32" `Quick test_to_u32;
          Alcotest.test_case "add/sub wrap" `Quick test_add_sub_wrap;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "logic" `Quick test_logic;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "width" `Quick test_width;
          Alcotest.test_case "width matches loop" `Quick
            test_width_matches_loop;
        ]
        @ qsuite
            [
              test_mul_hi_reference;
              test_width_bounds;
              test_width_minimal;
              test_width_matches_loop_random;
            ]
      );
      ("reg", [ Alcotest.test_case "basics" `Quick test_reg ]);
      ( "instr",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "fu_class" `Quick test_fu_class;
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "map_targets" `Quick test_map_targets;
          Alcotest.test_case "is_control" `Quick test_is_control;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "specific" `Quick test_encode_specific;
          Alcotest.test_case "errors" `Quick test_encode_errors;
          Alcotest.test_case "addresses" `Quick test_addresses;
        ]
        @ qsuite [ test_encode_roundtrip ] );
    ]
