(* Tests for the parallel experiment engine: the Domain worker pool
   (ordering, exception propagation, T1000_NJOBS), the compute-once
   memo table, the selection-table and run caches, and — the property everything
   above exists to preserve — bit-identical experiment rows whether the
   sweeps run sequentially or fanned out over domains. *)

open T1000
open T1000_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_env var v f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match saved with Some s -> s | None -> ""))
    f

let with_njobs v f = with_env "T1000_NJOBS" v f

(* ---------- Pool ---------- *)

let test_pool_order () =
  let xs = List.init 1000 Fun.id in
  let expected = List.map (fun i -> i * i) xs in
  check_bool "njobs=4 preserves order" true
    (Pool.parallel_map ~njobs:4 (fun i -> i * i) xs = expected);
  check_bool "njobs=1 preserves order" true
    (Pool.parallel_map ~njobs:1 (fun i -> i * i) xs = expected);
  check_bool "more workers than tasks" true
    (Pool.parallel_map ~njobs:64 (fun i -> i + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]);
  check_bool "empty input" true
    (Pool.parallel_map ~njobs:4 (fun i -> i) [] = [])

let test_pool_exception () =
  (* Both index 37 and index 500 fail; the pool must surface the
     lowest-index failure regardless of completion order. *)
  let f i =
    if i = 37 then failwith "boom-37"
    else if i = 500 then failwith "boom-500"
    else i
  in
  (match Pool.parallel_map ~njobs:4 f (List.init 1000 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> check_bool "lowest index wins" true (msg = "boom-37"));
  match Pool.parallel_map ~njobs:1 f (List.init 50 Fun.id) with
  | _ -> Alcotest.fail "expected Failure (sequential)"
  | exception Failure msg ->
      check_bool "sequential propagates too" true (msg = "boom-37")

let test_pool_njobs_env () =
  with_njobs "1" (fun () ->
      check_int "T1000_NJOBS=1 honored" 1 (Pool.default_njobs ()));
  with_njobs "7" (fun () ->
      check_int "T1000_NJOBS=7 honored" 7 (Pool.default_njobs ()));
  with_njobs "" (fun () ->
      check_int "empty means unset" (Domain.recommended_domain_count ())
        (Pool.default_njobs ()));
  with_njobs "zero" (fun () ->
      check_bool "garbage rejected" true
        (match Pool.default_njobs () with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* ---------- Memo ---------- *)

let test_memo_compute_once () =
  let m = Memo.create 4 in
  let computes = Atomic.make 0 in
  let f () =
    Atomic.incr computes;
    [ 1; 2; 3 ]
  in
  (* 64 tasks on 4 domains all demand the same key: exactly one
     computation, and every caller shares the same physical value. *)
  let vs =
    Pool.parallel_map ~njobs:4
      (fun _ -> Memo.find_or_compute m "k" f)
      (List.init 64 Fun.id)
  in
  check_int "computed exactly once" 1 (Atomic.get computes);
  let first = List.hd vs in
  check_bool "all callers share one value" true
    (List.for_all (fun v -> v == first) vs);
  check_int "one binding" 1 (Memo.length m)

let test_memo_failure_retries () =
  let m = Memo.create 4 in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts = 1 then failwith "first try fails" else 42
  in
  check_bool "first call raises" true
    (match Memo.find_or_compute m "k" flaky with
    | _ -> false
    | exception Failure _ -> true);
  check_int "failure leaves no binding" 0 (Memo.length m);
  check_int "second call retries and caches" 42
    (Memo.find_or_compute m "k" flaky);
  check_int "third call hits the cache" 42
    (Memo.find_or_compute m "k" flaky);
  check_int "two attempts total" 2 !attempts

(* ---------- sequential/parallel equivalence ---------- *)

let workload name =
  match Registry.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let suite () = [ workload "unepic"; workload "g721_dec" ]

let rows ~njobs =
  with_njobs (string_of_int njobs) (fun () ->
      let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
      let f2 = Experiment.figure2 ctx in
      let f6 = Experiment.figure6 ctx in
      let s52 = Experiment.penalty_sweep ~penalties:[ 10; 100 ] ctx in
      (f2, f6, s52))

let test_parallel_matches_sequential () =
  let f2_seq, f6_seq, s52_seq = rows ~njobs:1 in
  let f2_par, f6_par, s52_par = rows ~njobs:4 in
  check_bool "figure2 identical" true (f2_seq = f2_par);
  check_bool "figure6 identical" true (f6_seq = f6_par);
  check_bool "penalty sweep identical" true (s52_seq = s52_par)

(* ---------- selection-table cache ---------- *)

let test_selection_cache () =
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  (* A penalty sweep must run selection once: every swept point returns
     the physically same table. *)
  ignore (Experiment.penalty_sweep ~penalties:[ 10; 50; 100 ] ctx);
  let sel p = Runner.setup ~n_pfus:(Some 2) ~penalty:p Runner.Selective in
  let t10 = Experiment.selection_table ctx w (sel 10) in
  let t50 = Experiment.selection_table ctx w (sel 50) in
  let t100 = Experiment.selection_table ctx w (sel 100) in
  check_bool "penalty 10/50 share the table" true (t10 == t50);
  check_bool "penalty 50/100 share the table" true (t50 == t100);
  (* Runs built from cached tables expose the sharing too. *)
  let r10 = Experiment.run_setup ctx w (sel 10) in
  let r50 = Experiment.run_setup ctx w (sel 50) in
  check_bool "run tables physically equal" true
    (r10.Runner.table == r50.Runner.table);
  (* Replacement policy is simulation-only: same key, same table. *)
  let fifo =
    { (sel 10) with Runner.replacement = T1000_ooo.Mconfig.Fifo }
  in
  check_bool "replacement sweep shares the table" true
    (Experiment.selection_table ctx w fifo == t10);
  (* Selection-relevant parameters do miss the cache. *)
  let t_4pfu =
    Experiment.selection_table ctx w
      (Runner.setup ~n_pfus:(Some 4) ~penalty:10 Runner.Selective)
  in
  check_bool "different n_pfus selects anew" true (not (t_4pfu == t10));
  (* Greedy ignores n_pfus at selection time: one cached greedy table. *)
  let g2 =
    Experiment.selection_table ctx w
      (Runner.setup ~n_pfus:(Some 2) Runner.Greedy)
  in
  let g_unl =
    Experiment.selection_table ctx w
      (Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy)
  in
  check_bool "greedy table shared across pfu counts" true (g2 == g_unl)

(* ---------- run cache ---------- *)

let sim_calls () = T1000_obs.Metrics.get "phase.sim.calls"

let test_run_cache () =
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let s = Runner.setup ~n_pfus:(Some 2) ~penalty:50 Runner.Greedy in
  let r1 = Experiment.run_setup ctx w s in
  let calls = sim_calls () in
  let r2 = Experiment.run_setup ctx w { s with Runner.penalty = 50 } in
  check_bool "a repeated setup returns the physically same run" true (r1 == r2);
  check_int "and simulates nothing" calls (sim_calls ());
  (* Baselines are runs like any other: the default-machine baseline is
     the Baseline setup's run. *)
  check_bool "baseline is run_setup of the Baseline setup" true
    (Experiment.baseline_for ctx w T1000_ooo.Mconfig.default
    == Experiment.run_setup ctx w (Runner.setup Runner.Baseline));
  (* Figure 7 measures the 4-PFU selective machine that Figure 6 has
     already simulated, so on a shared ctx it simulates nothing. *)
  ignore (Experiment.figure6 ctx);
  let calls = sim_calls () in
  let f7 = Experiment.figure7 ctx in
  ignore (Format.asprintf "%a" Report.pp_figure7 f7);
  check_int "figure 7 after figure 6 adds no simulation" calls (sim_calls ())

(* ---------- run-memo key ---------- *)

(* The run memo is keyed on what the simulation consumes
   (Runner.inputs_key), not on the setup. *)

let same_table ctx w a b =
  let text s =
    T1000_select.Extinstr.to_text (Experiment.selection_table ctx w s)
  in
  String.equal (text a) (text b)

let selective ?(selfcheck = false) g =
  {
    (Runner.setup ~selfcheck ~n_pfus:(Some 2) ~penalty:10 Runner.Selective) with
    Runner.gain_threshold = g;
  }

let test_run_key_shares_gain () =
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let lo = selective 0.001 and hi = selective 0.02 in
  check_bool "both thresholds select the same table" true
    (same_table ctx w lo hi);
  let calls = sim_calls () in
  let r_lo = Experiment.run_setup ctx w lo in
  let r_hi = Experiment.run_setup ctx w hi in
  check_int "one simulation for both setups" (calls + 1) (sim_calls ());
  check_bool "equal stats" true (r_lo.Runner.stats = r_hi.Runner.stats);
  check_bool "each run keeps its own setup" true
    (r_lo.Runner.used = lo && r_hi.Runner.used = hi);
  check_bool "the first setup gets its own run back" true
    (Experiment.run_setup ctx w lo == r_lo)

(* [selfcheck] is covered by [test_run_key_selfcheck]. *)
let test_run_key_separates_inputs () =
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let base = selective 0.005 in
  ignore (Experiment.run_setup ctx w base);
  let adds what s =
    let calls = sim_calls () in
    ignore (Experiment.run_setup ctx w s);
    check_int (what ^ " simulates anew") (calls + 1) (sim_calls ())
  in
  adds "penalty" { base with Runner.penalty = 50 };
  adds "replacement" { base with Runner.replacement = T1000_ooo.Mconfig.Fifo };
  adds "n_pfus" { base with Runner.n_pfus = Some 4 };
  adds "config_prefetch" { base with Runner.config_prefetch = true };
  adds "bpred"
    {
      base with
      Runner.machine =
        {
          base.Runner.machine with
          T1000_ooo.Mconfig.bpred = T1000_bpred.Predictor.Bimodal 11;
        };
    };
  (* The LUT-level delay model moves no latency on unepic, so it
     shares the single-cycle run; on mpeg2_dec it moves one. *)
  let lut s = { s with Runner.ext_timing = `Lut_levels } in
  let calls = sim_calls () in
  ignore (Experiment.run_setup ctx w (lut base));
  check_int "an ext_timing that moves no latency shares" calls (sim_calls ());
  let m = workload "mpeg2_dec" in
  let ctx = Experiment.create_ctx ~workloads:[ m ] () in
  let moved =
    List.exists
      (fun (e : T1000_select.Extinstr.entry) ->
        T1000_hwcost.Lut.latency_estimate e.T1000_select.Extinstr.dfg
        <> e.T1000_select.Extinstr.latency)
      (T1000_select.Extinstr.entries (Experiment.selection_table ctx m base))
  in
  check_bool "mpeg2_dec has an entry the delay model slows" true moved;
  ignore (Experiment.run_setup ctx m base);
  let calls = sim_calls () in
  ignore (Experiment.run_setup ctx m (lut base));
  check_int "an ext_timing that moves a latency simulates anew" (calls + 1)
    (sim_calls ())

let test_run_key_selfcheck () =
  (* Same table, same machine: only [selfcheck] differs, in either
     order, and the checked setup must get a checked simulation. *)
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let plain = selective 0.001 and checked = selective ~selfcheck:true 0.02 in
  check_bool "both thresholds select the same table" true
    (same_table ctx w plain checked);
  ignore (Experiment.run_setup ctx w plain);
  let calls = sim_calls () in
  let r = Experiment.run_setup ctx w checked in
  check_int "an unchecked run never serves a checked setup" (calls + 1)
    (sim_calls ());
  check_bool "the run is the checked setup's" true
    r.Runner.used.Runner.selfcheck;
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  ignore (Experiment.run_setup ctx w checked);
  let calls = sim_calls () in
  ignore (Experiment.run_setup ctx w plain);
  check_int "nor a checked run an unchecked one" (calls + 1) (sim_calls ())

let test_run_key_dse_njobs () =
  (* A space whose three gain thresholds pick one table on unepic: the
     shared simulations are the same at any worker count. *)
  let space =
    {
      T1000_dse.Space.default with
      T1000_dse.Space.ax_pfus = [ 1; 2 ];
      ax_penalties = [ 0; 100 ];
      ax_lut_budgets = [ 150 ];
      ax_replacements = [ T1000_ooo.Mconfig.Lru ];
      ax_gains = [ 0.001; 0.005; 0.02 ];
      ax_widths = [ 4 ];
    }
  in
  let explore njobs =
    with_njobs (string_of_int njobs) @@ fun () ->
    let ctx = Experiment.create_ctx ~workloads:[ workload "unepic" ] () in
    let calls = sim_calls () in
    let r =
      T1000_dse.Engine.explore ~budget:(T1000_dse.Space.size space)
        ~sample:`Full ctx space
    in
    (Format.asprintf "%a" T1000_dse.Engine.pp_frontier r,
     List.length r.T1000_dse.Engine.measured,
     sim_calls () - calls)
  in
  let f1, measured, calls1 = explore 1 in
  let f2, _, calls2 = explore 2 in
  check_bool "frontier identical" true (String.equal f1 f2);
  check_int "phase.sim calls identical" calls1 calls2;
  check_bool "fewer simulations than measured points" true (calls1 < measured)

(* ---------- like-with-like speedups ---------- *)

(* Every speedup is taken against the no-PFU baseline on the same
   machine: under T1000_BPRED, Figure 6's 2-PFU cell is the speedup of
   a selective run over a baseline with the same speculative front
   end, exactly as two plain Runner.run calls made under the same
   environment measure it — not over the perfect-prediction default. *)
let test_speedup_same_machine () =
  with_env "T1000_BPRED" "gshare@11" @@ fun () ->
  let w = workload "g721_dec" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let f6 = Experiment.figure6_result ctx in
  check_int "figure 6 has no faults" 0 (List.length f6.Experiment.faults);
  let expected =
    Runner.speedup
      ~baseline:(Runner.run w (Runner.setup Runner.Baseline))
      (Runner.run w
         (Runner.setup ~n_pfus:(Some 2) ~penalty:10 Runner.Selective))
  in
  Alcotest.(check (float 0.0))
    "2-PFU cell = Runner speedup against a same-predictor baseline" expected
    (List.hd f6.Experiment.rows).Experiment.f6_sel_2

let () =
  Alcotest.run "t1000_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map order" `Quick test_pool_order;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "T1000_NJOBS" `Quick test_pool_njobs_env;
        ] );
      ( "memo",
        [
          Alcotest.test_case "compute once" `Quick test_memo_compute_once;
          Alcotest.test_case "failure clears pending" `Quick
            test_memo_failure_retries;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parallel = sequential" `Slow
            test_parallel_matches_sequential;
          Alcotest.test_case "selection-table cache" `Slow
            test_selection_cache;
          Alcotest.test_case "run cache" `Slow test_run_cache;
          Alcotest.test_case "run key: gain thresholds share" `Slow
            test_run_key_shares_gain;
          Alcotest.test_case "run key: simulation inputs separate" `Slow
            test_run_key_separates_inputs;
          Alcotest.test_case "run key: selfcheck" `Slow test_run_key_selfcheck;
          Alcotest.test_case "run key: dse at any worker count" `Slow
            test_run_key_dse_njobs;
          Alcotest.test_case "speedup against a same-machine baseline" `Slow
            test_speedup_same_machine;
        ] );
    ]
