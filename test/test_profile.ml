(* Tests for the profiler: execution counts and dynamic bitwidths. *)

open T1000_isa
open T1000_asm
open T1000_profile
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build f =
  let b = Builder.create () in
  f b;
  Builder.build b

let collect ?(init = fun _ _ -> ()) p = Profile.collect ~init p

let test_counts () =
  (* 5-iteration loop: body executes 5x, prologue once *)
  let p =
    build (fun b ->
        Builder.li b R.t0 5;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let prof = collect p in
  check_int "prologue once" 1 (Profile.count prof 0);
  check_int "body 5x" 5 (Profile.count prof 1);
  check_int "branch 5x" 5 (Profile.count prof 2);
  check_int "halt once" 1 (Profile.count prof 3);
  check_int "total" 12 (Profile.total_instrs prof)

let test_total_weight () =
  (* weight counts base latencies: mult = 3, alu = 1 *)
  let p =
    build (fun b ->
        Builder.li b R.t0 4;
        Builder.mult b R.t0 R.t0;
        Builder.halt b)
  in
  let prof = collect p in
  check_int "weight" (1 + 3 + 1) (Profile.total_weight prof)

let test_bitwidths () =
  let p =
    build (fun b ->
        Builder.li b R.t0 255;
        (* slot 1: operands 255 (9 bits signed), result 255<<4 (13 bits) *)
        Builder.sll b R.t1 R.t0 4;
        Builder.halt b)
  in
  let prof = collect p in
  check_int "operand width" 9 (Profile.operand_width prof 1);
  check_int "result width" 13
    (T1000_profile.Bitwidth.result_width (Profile.bitwidth prof) 1);
  check_int "instr width is max" 13 (Profile.instr_width prof 1)

let test_bitwidth_max_over_run () =
  (* the slot's width is the max over executions *)
  let p =
    build (fun b ->
        Builder.li b R.t0 1;
        Builder.li b R.t1 2;
        Builder.label b "top";
        Builder.addu b R.t0 R.t0 R.t0 (* doubles every iteration *);
        Builder.addiu b R.t1 R.t1 (-1);
        Builder.bgtz b R.t1 "top";
        Builder.halt b)
  in
  let prof = collect p in
  (* t0: 1 -> 2 -> 4; operands max 2 -> width 3 (signed), result max 4 *)
  check_int "operand max" 3 (Profile.operand_width prof 2);
  check_int "result max" 4
    (T1000_profile.Bitwidth.result_width (Profile.bitwidth prof) 2)

let test_unexecuted_conservative () =
  let p =
    build (fun b ->
        Builder.j b "end";
        Builder.addu b R.t0 R.t1 R.t2 (* never executed *);
        Builder.label b "end";
        Builder.halt b)
  in
  let prof = collect p in
  check_int "count zero" 0 (Profile.count prof 1);
  check_bool "not executed" false
    (Bitwidth.executed (Profile.bitwidth prof) 1);
  check_int "width conservative" 32 (Profile.instr_width prof 1)

let test_init_data () =
  let p =
    build (fun b ->
        Builder.li b R.t0 0x1000;
        Builder.lw b R.t1 0 R.t0;
        Builder.halt b)
  in
  let prof =
    Profile.collect
      ~init:(fun mem _ -> T1000_machine.Memory.store_word mem 0x1000 12345)
      p
  in
  (* load result width reflects the initialized data *)
  check_int "load result width" (Word.width_signed 12345)
    (Bitwidth.result_width (Profile.bitwidth prof) 1)

(* Values the width fold must get right at the edges: zero and -1 (one
   bit each), both sides of +-2^31, and the native extremes, whose
   sign-normalised magnitudes fill every bit below the sign. *)
let edge_values =
  [
    0; 1; -1; 255; -256; 1 lsl 31; -(1 lsl 31); (1 lsl 31) - 1;
    -(1 lsl 31) - 1; min_int; max_int;
  ]

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl edge_values);
        (2, int);
        (2, map Word.sext32 int);
        (2, int_range (-300) 300);
      ])

let test_or_width_is_max =
  QCheck.Test.make ~name:"OR-accumulated width is the max width" ~count:1000
    QCheck.(
      make
        ~print:Print.(list (triple int int int))
        Gen.(list_size (int_range 1 12) (triple value_gen value_gen value_gen)))
    (fun steps ->
      let bw = Bitwidth.create ~n_slots:1 in
      List.iter (fun (a, b, r) -> Bitwidth.record bw 0 a b r) steps;
      let max_width f = List.fold_left (fun m x -> max m (f x)) 0 steps in
      let res = max_width (fun (_, _, r) -> Word.width_signed r)
      and opd =
        max_width (fun (a, b, _) ->
            max (Word.width_signed a) (Word.width_signed b))
      in
      Bitwidth.executed bw 0
      && Bitwidth.result_width bw 0 = res
      && Bitwidth.operand_width bw 0 = opd
      && Bitwidth.instr_width bw 0 = max res opd)

let test_kernels_match_reference () =
  (* every registry kernel: counts, widths, executed flags and totals
     equal a per-step max-of-widths fold over a second interpretation *)
  List.iter
    (fun (w : T1000_workloads.Workload.t) ->
      let prof =
        Profile.collect ~init:w.T1000_workloads.Workload.init
          w.T1000_workloads.Workload.program
      in
      match T1000_fuzz.Oracle.profile_widths w prof with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s: %s" w.T1000_workloads.Workload.name d)
    T1000_workloads.Registry.all

let test_pp_hot () =
  let p =
    build (fun b ->
        Builder.li b R.t0 3;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let prof = collect p in
  let s = Format.asprintf "%a" (Profile.pp_hot ~limit:2) prof in
  check_bool "mentions the hot slot" true
    (String.length s > 0 && String.index_opt s '3' <> None)

let test_mix () =
  let p =
    build (fun b ->
        Builder.li b R.t0 2;
        Builder.label b "top";
        Builder.lw b R.t1 0 R.zero;
        Builder.addu b R.t2 R.t1 R.t1;
        Builder.sw b R.t2 4 R.zero;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let s = Mix.static_mix p in
  check_int "static total" 7 s.Mix.total;
  check_int "static loads" 1 (List.assoc Mix.Cat_load s.Mix.counts);
  check_int "static branches" 1 (List.assoc Mix.Cat_branch s.Mix.counts);
  let prof = collect p in
  let d = Mix.dynamic_mix prof in
  check_int "dynamic total" (Profile.total_instrs prof) d.Mix.total;
  check_int "dynamic loads (2 iterations)" 2
    (List.assoc Mix.Cat_load d.Mix.counts);
  check_bool "alu fraction dominates" true
    (Mix.fraction d Mix.Cat_alu > Mix.fraction d Mix.Cat_load);
  ignore (Format.asprintf "%a" Mix.pp d)

let () =
  Alcotest.run "t1000_profile"
    [
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "total weight" `Quick test_total_weight;
          Alcotest.test_case "bitwidths" `Quick test_bitwidths;
          Alcotest.test_case "max over run" `Quick test_bitwidth_max_over_run;
          Alcotest.test_case "unexecuted conservative" `Quick
            test_unexecuted_conservative;
          Alcotest.test_case "init data" `Quick test_init_data;
          QCheck_alcotest.to_alcotest test_or_width_is_max;
          Alcotest.test_case "kernels match the reference fold" `Quick
            test_kernels_match_reference;
          Alcotest.test_case "pp_hot" `Quick test_pp_hot;
          Alcotest.test_case "instruction mix" `Quick test_mix;
        ] );
    ]
