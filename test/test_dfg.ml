(* Tests for dataflow graphs, canonicalization, and candidate-sequence
   extraction — the substrate of both selection algorithms. *)

open T1000_isa
open T1000_asm
open T1000_dfg
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Dfg ---------- *)

let n_alu op a b width = { Dfg.op = Dfg.N_alu op; a; b; width }
let n_shift op a b width = { Dfg.op = Dfg.N_shift op; a; b; width }

(* The paper's Figure 3 computation: (in0 << 4) + in1 *)
let fig3_dfg =
  Dfg.make ~n_inputs:2
    [|
      n_shift Op.Sll (Dfg.Input 0) (Dfg.Const 4) 16;
      n_alu Op.Addu (Dfg.Node 0) (Dfg.Input 1) 16;
    |]

let test_dfg_make_validation () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "empty" true (bad (fun () -> Dfg.make ~n_inputs:0 [||]));
  check_bool "bad input port" true
    (bad (fun () ->
         Dfg.make ~n_inputs:1
           [| n_alu Op.Add (Dfg.Input 1) (Dfg.Const 0) 8 |]));
  check_bool "forward node ref" true
    (bad (fun () ->
         Dfg.make ~n_inputs:0
           [| n_alu Op.Add (Dfg.Node 0) (Dfg.Const 0) 8 |]));
  check_bool "too many inputs" true
    (bad (fun () ->
         Dfg.make ~n_inputs:3
           [| n_alu Op.Add (Dfg.Input 0) (Dfg.Input 2) 8 |]))

let test_dfg_eval () =
  check_int "fig3" ((3 lsl 4) + 5) (Dfg.eval fig3_dfg 3 5);
  let sub =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Subu (Dfg.Input 0) (Dfg.Input 1) 8 |]
  in
  check_int "sub order" 2 (Dfg.eval sub 5 3);
  let shift_var =
    Dfg.make ~n_inputs:2
      [| n_shift Op.Srl (Dfg.Input 0) (Dfg.Input 1) 8 |]
  in
  check_int "variable shift masks" (Word.srl 0x100 2)
    (Dfg.eval shift_var 0x100 34);
  let with_const =
    Dfg.make ~n_inputs:1
      [|
        n_alu Op.Xor (Dfg.Input 0) (Dfg.Const 0xFF) 8;
        n_alu Op.And (Dfg.Node 0) (Dfg.Const 0x0F) 8;
      |]
  in
  check_int "chained consts" ((0x3C lxor 0xFF) land 0x0F)
    (Dfg.eval with_const 0x3C 0)

let test_dfg_eval_matches_interp =
  (* every node kind computes exactly what the ISA instruction computes *)
  QCheck.Test.make ~name:"dfg eval matches Word semantics" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let mk op = Dfg.make ~n_inputs:2 [| n_alu op (Dfg.Input 0) (Dfg.Input 1) 16 |] in
      Dfg.eval (mk Op.Addu) a b = Word.add a b
      && Dfg.eval (mk Op.Subu) a b = Word.sub a b
      && Dfg.eval (mk Op.And) a b = Word.logand a b
      && Dfg.eval (mk Op.Or) a b = Word.logor a b
      && Dfg.eval (mk Op.Xor) a b = Word.logxor a b
      && Dfg.eval (mk Op.Nor) a b = Word.lognor a b
      && Dfg.eval (mk Op.Slt) a b = Word.slt a b
      && Dfg.eval (mk Op.Sltu) a b = Word.sltu a b)

(* The allocating evaluator [Dfg.eval] used to be: a fresh results
   array per call and a local operand closure.  Kept as the reference
   for the scratch-array version. *)
let reference_eval g v0 v1 =
  let nodes = Dfg.nodes g in
  let n = Array.length nodes in
  let results = Array.make n 0 in
  let operand = function
    | Dfg.Input 0 -> v0
    | Dfg.Input _ -> v1
    | Dfg.Const c -> Word.sext32 c
    | Dfg.Node i -> results.(i)
  in
  let node_eval op a b =
    match op with
    | Dfg.N_alu (Op.Add | Op.Addu) -> Word.add a b
    | Dfg.N_alu (Op.Sub | Op.Subu) -> Word.sub a b
    | Dfg.N_alu Op.And -> Word.logand a b
    | Dfg.N_alu Op.Or -> Word.logor a b
    | Dfg.N_alu Op.Xor -> Word.logxor a b
    | Dfg.N_alu Op.Nor -> Word.lognor a b
    | Dfg.N_alu Op.Slt -> Word.slt a b
    | Dfg.N_alu Op.Sltu -> Word.sltu a b
    | Dfg.N_shift Op.Sll -> Word.sll a (b land 31)
    | Dfg.N_shift Op.Srl -> Word.srl a (b land 31)
    | Dfg.N_shift Op.Sra -> Word.sra a (b land 31)
  in
  Array.iteri
    (fun i nd -> results.(i) <- node_eval nd.Dfg.op (operand nd.a) (operand nd.b))
    nodes;
  results.(n - 1)

(* Random well-formed DFGs of 1-40 nodes: sizes past the initial
   16-entry scratch array make it grow. *)
let random_dfgs ~seed count =
  let rng = Random.State.make [| seed |] in
  let ops =
    [| Dfg.N_alu Op.Add; N_alu Op.Addu; N_alu Op.Sub; N_alu Op.Subu;
       N_alu Op.And; N_alu Op.Or; N_alu Op.Xor; N_alu Op.Nor; N_alu Op.Slt;
       N_alu Op.Sltu; N_shift Op.Sll; N_shift Op.Srl; N_shift Op.Sra |]
  in
  List.init count (fun _ ->
      let n_inputs = Random.State.int rng 3 in
      let n = 1 + Random.State.int rng 40 in
      let operand pos =
        match Random.State.int rng 3 with
        | 0 when n_inputs > 0 -> Dfg.Input (Random.State.int rng n_inputs)
        | 1 when pos > 0 -> Dfg.Node (Random.State.int rng pos)
        | _ ->
            Dfg.Const
              ((Random.State.bits rng lor (Random.State.bits rng lsl 30))
              land 0xFFFF_FFFF)
      in
      Dfg.make ~n_inputs
        (Array.init n (fun pos ->
             let op = ops.(Random.State.int rng (Array.length ops)) in
             let a = operand pos in
             { Dfg.op; a; b = operand pos; width = 32 })))

let eval_inputs = [ (0, 0); (1, -1); (0x7FFF_FFFF, 1); (-0x8000_0000, 31);
                    (12345, -678) ]

let eval_all eval dfgs =
  List.concat_map
    (fun g -> List.map (fun (a, b) -> eval g a b) eval_inputs)
    dfgs

let test_dfg_eval_reference () =
  let dfgs = random_dfgs ~seed:7 300 in
  Alcotest.(check (list int))
    "matches the allocating evaluator"
    (eval_all reference_eval dfgs) (eval_all Dfg.eval dfgs)

let test_dfg_eval_no_alloc () =
  let g = List.hd (List.filter (fun g -> Dfg.size g > 30) (random_dfgs ~seed:3 50)) in
  ignore (Dfg.eval g 1 2);
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity (Dfg.eval g i (i * 7)))
        done)
  in
  Alcotest.(check (float 0.)) "minor words over 10 000 calls" 0.
    (words -. baseline)

let test_dfg_eval_domains () =
  let dfgs = random_dfgs ~seed:11 200 in
  let expected = eval_all Dfg.eval dfgs in
  let worker () = List.init 20 (fun _ -> eval_all Dfg.eval dfgs) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  List.iter
    (fun runs ->
      List.iter
        (Alcotest.(check (list int)) "concurrent equals sequential" expected)
        runs)
    [ Domain.join d1; Domain.join d2 ]

let test_dfg_latency () =
  check_int "chain latency" 2 (Dfg.base_latency fig3_dfg);
  check_int "serial latency" 2 (Dfg.serial_latency fig3_dfg);
  (* a balanced tree: two independent ops feeding a third has depth 2
     but serial cost 3 *)
  let tree =
    Dfg.make ~n_inputs:2
      [|
        n_alu Op.Add (Dfg.Input 0) (Dfg.Const 1) 8;
        n_alu Op.Add (Dfg.Input 1) (Dfg.Const 2) 8;
        n_alu Op.Add (Dfg.Node 0) (Dfg.Node 1) 8;
      |]
  in
  check_int "tree critical path" 2 (Dfg.base_latency tree);
  check_int "tree serial" 3 (Dfg.serial_latency tree);
  check_int "max width" 16 (Dfg.max_width fig3_dfg)

let test_dfg_to_dot () =
  let dot = Dfg.to_dot ~name:"t" fig3_dfg in
  check_bool "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  let contains sub =
    let rec find i =
      i + String.length sub <= String.length dot
      && (String.equal (String.sub dot i (String.length sub)) sub
         || find (i + 1))
    in
    find 0
  in
  check_bool "has input node" true (contains "in0");
  check_bool "has op node" true (contains "addu");
  check_bool "has const" true (contains "#4")

(* ---------- Canon ---------- *)

let test_canon_commutative () =
  let a =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Addu (Dfg.Input 0) (Dfg.Input 1) 8 |]
  in
  let b =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Addu (Dfg.Input 1) (Dfg.Input 0) 8 |]
  in
  check_bool "swapped addu operands share a key" true (Canon.equal a b);
  (* subu(in1, in0) also shares subu(in0, in1)'s configuration: input
     ports are renumbered by first use and each occurrence binds its
     registers per normalized port (see input_permutation), so the same
     hardware serves both with swapped port wiring *)
  let c =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Subu (Dfg.Input 0) (Dfg.Input 1) 8 |]
  in
  let d =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Subu (Dfg.Input 1) (Dfg.Input 0) 8 |]
  in
  check_bool "subu shares via port renumbering" true (Canon.equal c d);
  (* but a genuinely different use of one input does not collapse *)
  let e =
    Dfg.make ~n_inputs:2
      [| n_alu Op.Subu (Dfg.Input 0) (Dfg.Input 0) 8 |]
  in
  check_bool "different structure differs" false (Canon.equal c e)

let test_canon_constants_and_ops () =
  let mk sh =
    Dfg.make ~n_inputs:1
      [| n_shift Op.Sll (Dfg.Input 0) (Dfg.Const sh) 8 |]
  in
  check_bool "same const same key" true (Canon.equal (mk 4) (mk 4));
  check_bool "different const different key" false (Canon.equal (mk 4) (mk 2));
  let xor_v =
    Dfg.make ~n_inputs:1 [| n_alu Op.Xor (Dfg.Input 0) (Dfg.Const 4) 8 |]
  in
  check_bool "different op different key" false (Canon.equal (mk 4) xor_v)

let test_canon_width_irrelevant () =
  let mk w =
    Dfg.make ~n_inputs:2 [| n_alu Op.Addu (Dfg.Input 0) (Dfg.Input 1) w |]
  in
  check_bool "widths do not affect the key" true (Canon.equal (mk 8) (mk 16))

let test_canon_merge_widths () =
  let mk w =
    Dfg.make ~n_inputs:2 [| n_alu Op.Addu (Dfg.Input 0) (Dfg.Input 1) w |]
  in
  let merged = Canon.merge_widths (mk 8) (mk 16) in
  check_int "pointwise max" 16 (Dfg.max_width merged);
  check_bool "different keys rejected" true
    (match
       Canon.merge_widths (mk 8)
         (Dfg.make ~n_inputs:2
            [| n_alu Op.Subu (Dfg.Input 0) (Dfg.Input 1) 8 |])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_canon_eval_preserved =
  QCheck.Test.make ~name:"normalize preserves evaluation (with permutation)"
    ~count:300
    QCheck.(pair (int_range (-100) 100) (int_range (-100) 100))
    (fun (a, b) ->
      (* input 1 appears first in the node list, so normalization permutes
         the ports *)
      let d =
        Dfg.make ~n_inputs:2
          [|
            n_shift Op.Sll (Dfg.Input 1) (Dfg.Const 2) 8;
            n_alu Op.Subu (Dfg.Node 0) (Dfg.Input 0) 8;
          |]
      in
      let norm = Canon.normalize d in
      let perm = Canon.input_permutation d in
      (* old port i's value must be fed to new port perm.(i) *)
      let inputs = Array.make 2 0 in
      inputs.(perm.(0)) <- a;
      inputs.(perm.(1)) <- b;
      Dfg.eval norm inputs.(0) inputs.(1) = Dfg.eval d a b)

(* ---------- Extract ---------- *)

let analyze f =
  let b = Builder.create () in
  f b;
  let p = Builder.build b in
  let profile = T1000_profile.Profile.collect ~init:(fun _ _ -> ()) p in
  let cfg = Cfg.of_program p in
  let live = Liveness.compute cfg in
  (cfg, live, profile)

let extract ?(config = Extract.default_config) f =
  let cfg, live, profile = analyze f in
  Extract.maximal config cfg live profile

(* a simple 3-op dependent chain, executed in a loop *)
let chain_loop b =
  Builder.li b R.s3 0x100000 (* wide accumulator: not a fold candidate *);
  Builder.li b R.t0 10;
  Builder.li b R.t1 5;
  Builder.li b R.t2 9;
  Builder.label b "top";
  Builder.sll b R.t3 R.t1 2;
  Builder.addu b R.t3 R.t3 R.t2;
  Builder.xori b R.t4 R.t3 0x0F;
  Builder.addu b R.s3 R.s3 R.t4 (* consumes the root *);
  Builder.addiu b R.t0 R.t0 (-1);
  Builder.bgtz b R.t0 "top";
  Builder.halt b

let test_extract_simple_chain () =
  match extract chain_loop with
  | [ occ ] ->
      check_int "three members" 3 (List.length occ.Extract.members);
      check_int "root is the xori slot" 6 occ.Extract.root;
      check_int "two inputs" 2 (Array.length occ.Extract.input_regs);
      check_bool "out reg" true (Reg.equal R.t4 occ.Extract.out_reg);
      (* evaluation matches the original computation *)
      let v = Dfg.eval occ.Extract.dfg in
      let direct t1 t2 = Word.logxor (Word.add (Word.sll t1 2) t2) 0x0F in
      let port0 = occ.Extract.input_regs.(0) in
      if Reg.equal port0 R.t1 then
        check_int "eval" (direct 5 9) (v 5 9)
      else check_int "eval (swapped ports)" (direct 5 9) (v 9 5)
  | occs -> Alcotest.failf "expected exactly one occurrence, got %d"
              (List.length occs)

let test_extract_rejects_wide () =
  (* same chain but with 20-bit data: candidates are filtered out *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t0 10;
        Builder.li b R.t1 0xF0000;
        Builder.li b R.t2 9;
        Builder.label b "top";
        Builder.sll b R.t3 R.t1 2;
        Builder.addu b R.t3 R.t3 R.t2;
        Builder.xori b R.t4 R.t3 0x0F;
        Builder.addu b R.s3 R.s3 R.t4;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  check_bool "no occurrence includes the wide sll" true
    (List.for_all
       (fun (o : Extract.occ) -> not (List.mem 4 o.Extract.members))
       occs)

let test_extract_respects_port_limit () =
  (* a tree combining three independent inputs: 3 external inputs
     cannot be folded whole *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t1 1;
        Builder.li b R.t2 2;
        Builder.li b R.t3 3;
        Builder.addu b R.t4 R.t1 R.t2;
        Builder.addu b R.t5 R.t4 R.t3;
        Builder.addu b R.s3 R.s3 R.t5;
        Builder.halt b)
  in
  List.iter
    (fun (o : Extract.occ) ->
      check_bool "inputs <= 2" true (Array.length o.Extract.input_regs <= 2))
    occs

let test_extract_rejects_live_intermediate () =
  (* the intermediate t3 is stored after the would-be root: no fold *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t1 5;
        Builder.li b R.t2 9;
        Builder.li b R.t5 0x1000;
        Builder.sll b R.t3 R.t1 2;
        Builder.addu b R.t4 R.t3 R.t2;
        Builder.sw b R.t3 0 R.t5 (* second use of the intermediate *);
        Builder.addu b R.s3 R.s3 R.t4;
        Builder.halt b)
  in
  check_bool "chain through t3 not collapsed" true
    (List.for_all
       (fun (o : Extract.occ) ->
         not
           (List.mem 4 o.Extract.members && List.mem 5 o.Extract.members))
       occs)

let test_extract_rejects_clobbered_input () =
  (* t2 (an external input of the 2nd member) is rewritten between the
     first member and the root by a non-member *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.s4 0x100000;
        Builder.li b R.t1 5;
        Builder.li b R.t2 9;
        Builder.sll b R.t3 R.t1 2 (* member 1 *);
        Builder.li b R.t1 77 (* clobbers member 1's input before root *);
        Builder.addu b R.t4 R.t3 R.t2 (* root *);
        Builder.addu b R.s3 R.s3 R.t4;
        Builder.addu b R.s4 R.s4 R.t1;
        Builder.halt b)
  in
  check_bool "clobbered-input chain not collapsed" true
    (List.for_all
       (fun (o : Extract.occ) ->
         not (List.mem 4 o.Extract.members && List.mem 6 o.Extract.members))
       occs)

let test_extract_r0_is_constant () =
  (* li t1, 42 = addiu t1, r0, 42 inside a chain: r0 becomes Const 0,
     consuming no input port *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t0 4;
        Builder.label b "top";
        Builder.addiu b R.t1 R.zero 42;
        Builder.xori b R.t2 R.t1 0x3;
        Builder.addu b R.s3 R.s3 R.t2;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let with_const =
    List.filter
      (fun (o : Extract.occ) -> List.mem 2 o.Extract.members)
      occs
  in
  check_bool "found" true (with_const <> []);
  List.iter
    (fun (o : Extract.occ) ->
      check_int "no input ports for r0" 0 (Array.length o.Extract.input_regs))
    with_const

let test_extract_max_len () =
  (* a 6-op chain with max_len 4 is trimmed to at most 4 *)
  let config = { Extract.default_config with Extract.max_len = 4 } in
  let cfg, live, profile =
    analyze (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t1 3;
        Builder.label b "top";
        Builder.sll b R.t2 R.t1 1;
        Builder.addiu b R.t2 R.t2 1;
        Builder.xori b R.t2 R.t2 2;
        Builder.addiu b R.t2 R.t2 3;
        Builder.xori b R.t2 R.t2 4;
        Builder.andi b R.t3 R.t2 0xFF;
        Builder.addu b R.s3 R.s3 R.t3;
        Builder.addiu b R.t1 R.t1 (-1);
        Builder.bgtz b R.t1 "top";
        Builder.halt b)
  in
  let occs = Extract.maximal config cfg live profile in
  check_bool "some occurrence" true (occs <> []);
  List.iter
    (fun (o : Extract.occ) ->
      check_bool "length <= 4" true (List.length o.Extract.members <= 4))
    occs

let test_extract_subsequences_fig3 () =
  (* Figure 3: maximal = sll;addu;sll — its subsequences include the
     2-op prefix (sll 4 / addu) whose key matches a standalone
     occurrence elsewhere *)
  let cfg, live, profile =
    analyze (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.s4 0x100000;
        Builder.li b R.t0 8;
        Builder.li b R.t3 5;
        Builder.li b R.t1 9;
        Builder.label b "top";
        (* Extinst_i: sll r2,r3,4; addu r2,r2,r1; sll r2,r2,2 *)
        Builder.sll b R.v0 R.t3 4;
        Builder.addu b R.v0 R.v0 R.t1;
        Builder.sll b R.v1 R.v0 2;
        Builder.addu b R.s3 R.s3 R.v1;
        (* standalone Extinst_j: sll r2,r3,4; addu r2,r2,r1 *)
        Builder.sll b R.v0 R.t3 4;
        Builder.addu b R.a3 R.v0 R.t1;
        Builder.addu b R.s4 R.s4 R.a3;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let occs = Extract.maximal Extract.default_config cfg live profile in
  check_int "two maximal sequences" 2 (List.length occs);
  let seq_i =
    List.find
      (fun (o : Extract.occ) -> List.length o.Extract.members = 3)
      occs
  in
  let seq_j =
    List.find
      (fun (o : Extract.occ) -> List.length o.Extract.members = 2)
      occs
  in
  let subs =
    Extract.subsequences Extract.default_config cfg live profile seq_i
  in
  (* the 2-op prefix of I has the same configuration key as standalone J *)
  check_bool "shared subsequence key" true
    (List.exists
       (fun (s : Extract.occ) -> String.equal s.Extract.key seq_j.Extract.key)
       subs);
  (* subsequences include the full sequence itself *)
  check_bool "includes itself" true
    (List.exists
       (fun (s : Extract.occ) ->
         s.Extract.members = seq_i.Extract.members)
       subs)

let test_extract_dag_shape () =
  (* the branch-free abs idiom is a DAG, not a chain: subu feeds both
     sra and xor, sra feeds both xor and the final subu *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t1 5;
        Builder.li b R.t2 9;
        Builder.label b "top";
        Builder.subu b R.t3 R.t1 R.t2;
        Builder.sra b R.t4 R.t3 31;
        Builder.xor b R.t3 R.t3 R.t4;
        Builder.subu b R.t5 R.t3 R.t4;
        Builder.addu b R.s3 R.s3 R.t5;
        Builder.addiu b R.t1 R.t1 1;
        Builder.andi b R.t1 R.t1 0xFF;
        Builder.bgtz b R.t1 "top";
        Builder.halt b)
  in
  let abs_occ =
    List.find_opt
      (fun (o : Extract.occ) -> List.length o.Extract.members = 4)
      occs
  in
  match abs_occ with
  | None -> Alcotest.fail "abs DAG not extracted"
  | Some o ->
      check_int "two inputs" 2 (Array.length o.Extract.input_regs);
      (* the DAG evaluates to |a - b| *)
      let v a b =
        let inputs = o.Extract.input_regs in
        if Reg.equal inputs.(0) R.t1 then Dfg.eval o.Extract.dfg a b
        else Dfg.eval o.Extract.dfg b a
      in
      check_int "abs(5-9)" 4 (v 5 9);
      check_int "abs(9-5)" 4 (v 9 5);
      (* this DAG is path-dominated: subu -> sra -> xor -> subu *)
      check_int "critical path" 4 (Dfg.base_latency o.Extract.dfg);
      check_int "serial latency" 4 (Dfg.serial_latency o.Extract.dfg)

let test_extract_min_len () =
  (* single candidate instructions are never occurrences *)
  let occs =
    extract (fun b ->
        Builder.li b R.s3 0x100000;
        Builder.li b R.t1 5;
        Builder.sll b R.t2 R.t1 2;
        Builder.addu b R.s3 R.s3 R.t2;
        Builder.halt b)
  in
  List.iter
    (fun (o : Extract.occ) ->
      check_bool "length >= 2" true (List.length o.Extract.members >= 2))
    occs

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "t1000_dfg"
    [
      ( "dfg",
        [
          Alcotest.test_case "validation" `Quick test_dfg_make_validation;
          Alcotest.test_case "eval" `Quick test_dfg_eval;
          Alcotest.test_case "eval reference" `Quick test_dfg_eval_reference;
          Alcotest.test_case "eval allocates nothing" `Quick
            test_dfg_eval_no_alloc;
          Alcotest.test_case "eval across domains" `Quick
            test_dfg_eval_domains;
          Alcotest.test_case "latency" `Quick test_dfg_latency;
          Alcotest.test_case "to_dot" `Quick test_dfg_to_dot;
        ]
        @ qsuite [ test_dfg_eval_matches_interp ] );
      ( "canon",
        [
          Alcotest.test_case "commutative" `Quick test_canon_commutative;
          Alcotest.test_case "constants/ops" `Quick
            test_canon_constants_and_ops;
          Alcotest.test_case "width irrelevant" `Quick
            test_canon_width_irrelevant;
          Alcotest.test_case "merge widths" `Quick test_canon_merge_widths;
        ]
        @ qsuite [ test_canon_eval_preserved ] );
      ( "extract",
        [
          Alcotest.test_case "simple chain" `Quick test_extract_simple_chain;
          Alcotest.test_case "width filter" `Quick test_extract_rejects_wide;
          Alcotest.test_case "port limit" `Quick
            test_extract_respects_port_limit;
          Alcotest.test_case "live intermediate" `Quick
            test_extract_rejects_live_intermediate;
          Alcotest.test_case "clobbered input" `Quick
            test_extract_rejects_clobbered_input;
          Alcotest.test_case "r0 as constant" `Quick
            test_extract_r0_is_constant;
          Alcotest.test_case "max length" `Quick test_extract_max_len;
          Alcotest.test_case "figure 3 subsequences" `Quick
            test_extract_subsequences_fig3;
          Alcotest.test_case "min length" `Quick test_extract_min_len;
          Alcotest.test_case "dag shape (abs idiom)" `Quick
            test_extract_dag_shape;
        ] );
    ]
