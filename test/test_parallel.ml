(* Tests for the parallel experiment engine: the Domain worker pool
   (ordering, T1000_NJOBS), the compute-once memo table, the
   selection-table and run caches, and — the property everything above
   exists to preserve — bit-identical experiment rows whether the
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
  let map njobs f xs = Pool.parallel_map_result ~njobs f xs in
  let expected = List.map (fun i -> Ok (i * i)) xs in
  check_bool "njobs=4 preserves order" true
    (map 4 (fun i -> i * i) xs = expected);
  check_bool "njobs=1 preserves order" true
    (map 1 (fun i -> i * i) xs = expected);
  check_bool "more workers than tasks" true
    (map 64 (fun i -> i + 1) [ 1; 2; 3 ] = [ Ok 2; Ok 3; Ok 4 ]);
  check_bool "empty input" true (map 4 (fun i -> i) [] = [])

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
    Pool.parallel_map_result ~njobs:4
      (fun _ -> Memo.find_or_compute m "k" f)
      (List.init 64 Fun.id)
    |> List.map Result.get_ok
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
  check_bool "a repeated setup returns the physically same stats" true
    (r1.Runner.stats == r2.Runner.stats);
  check_int "and simulates nothing" calls (sim_calls ());
  (* Baselines are runs like any other: the default-machine baseline is
     the Baseline setup's run. *)
  check_bool "baseline is run_setup of the Baseline setup" true
    ((Experiment.baseline_for ctx w T1000_ooo.Mconfig.default).Runner.stats
    == (Experiment.run_setup ctx w (Runner.setup Runner.Baseline)).Runner.stats);
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
  check_bool "a repeated setup gets the physically same stats back" true
    ((Experiment.run_setup ctx w lo).Runner.stats == r_lo.Runner.stats)

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

(* ---------- run-memo key: PFU-equivalent machines ---------- *)

(* A PFU file with a unit for every configuration the program names
   never evicts, so the run key reads it as the unlimited file: n =
   confs, n > confs and None share one simulation under every
   replacement policy.  Only n < confs keys a run apart, and at n = 1
   only by penalty: one unit is the only victim under every policy. *)

let pfu_points base ns =
  List.concat_map
    (fun n_pfus ->
      List.map
        (fun replacement -> { base with Runner.n_pfus; replacement })
        T1000_ooo.Mconfig.[ Lru; Fifo; Random_det ])
    ns

let pfu_label (s : Runner.setup) =
  Printf.sprintf "%s/%s"
    (match s.Runner.n_pfus with
    | None -> "unlimited"
    | Some n -> string_of_int n)
    (match s.Runner.replacement with
    | T1000_ooo.Mconfig.Lru -> "lru"
    | Fifo -> "fifo"
    | Random_det -> "rand")

let test_run_key_pfu_equivalent () =
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let unl = Runner.setup ~n_pfus:None ~penalty:10 Runner.Selective in
  let calls = sim_calls () in
  let r = Experiment.run_setup ctx w unl in
  let confs = Runner.configurations r.Runner.program in
  check_bool "the table loads several configurations" true (confs > 1);
  let points = pfu_points unl [ Some confs; Some (confs + 4); None ] in
  List.iter
    (fun s ->
      check_bool
        (pfu_label s ^ " selects the unlimited table")
        true (same_table ctx w unl s);
      check_bool
        (pfu_label s ^ " shares the unlimited run")
        true
        ((Experiment.run_setup ctx w s).Runner.stats == r.Runner.stats))
    points;
  check_int "one simulation for all nine points" (calls + 1) (sim_calls ());
  (* The sharing is exact: each point simulated on its own machine,
     outside the memo, gives the same statistics. *)
  let analysis = Experiment.analysis ctx w
  and table = Experiment.selection_table ctx w unl in
  List.iter
    (fun s ->
      check_bool
        (pfu_label s ^ " simulates to the unlimited stats")
        true
        ((Runner.run ~analysis ~table w s).Runner.stats = r.Runner.stats))
    points

let test_run_key_pfu_separates () =
  (* Fewer units than configurations: the file evicts, and the count
     and policy are simulation inputs again, except at one unit. *)
  let w = workload "epic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let unl = Runner.setup ~n_pfus:None ~penalty:10 Runner.Greedy in
  let confs =
    Runner.configurations (Experiment.run_setup ctx w unl).Runner.program
  in
  check_bool "greedy on epic names more than two configurations" true
    (confs > 2);
  List.iter
    (fun s ->
      let calls = sim_calls () in
      ignore (Experiment.run_setup ctx w s);
      let one_unit_rerun =
        s.Runner.n_pfus = Some 1 && s.Runner.replacement <> T1000_ooo.Mconfig.Lru
      in
      if one_unit_rerun then
        check_int (pfu_label s ^ " shares 1/lru") calls (sim_calls ())
      else
        check_int (pfu_label s ^ " simulates anew") (calls + 1) (sim_calls ()))
    (pfu_points unl [ Some 1; Some 2; Some (confs - 1) ]
    |> List.sort_uniq compare)

let test_run_key_one_pfu_shares () =
  (* Greedy epic thrashes a one-unit file, which evicts its only unit
     under every policy: one simulation per penalty. *)
  let w = workload "epic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let base = Runner.setup ~n_pfus:(Some 1) ~penalty:10 Runner.Greedy in
  List.iter
    (fun penalty ->
      let points = pfu_points { base with Runner.penalty } [ Some 1 ] in
      let calls = sim_calls () in
      let runs = List.map (Experiment.run_setup ctx w) points in
      check_int
        (Printf.sprintf "one simulation at penalty %d" penalty)
        (calls + 1) (sim_calls ());
      let first = List.hd runs in
      check_bool "the file thrashes" true
        (first.Runner.stats.T1000_ooo.Stats.pfu_misses
        > Runner.configurations first.Runner.program);
      (* The sharing is exact: each point simulated on its own machine,
         outside the memo, gives the same statistics. *)
      let analysis = Experiment.analysis ctx w in
      List.iter2
        (fun s (r : Runner.run) ->
          check_bool
            (Printf.sprintf "%s at penalty %d simulates to the shared stats"
               (pfu_label s) penalty)
            true
            ((Runner.run ~analysis ~table:r.Runner.table w s).Runner.stats
            = first.Runner.stats))
        points runs)
    [ 10; 100 ]

let test_run_key_empty_table () =
  (* A selective setup whose filter keeps nothing runs the original
     program on a PFU file nobody asks: its no-PFU baseline's run. *)
  let w = workload "unepic" in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let s =
    {
      (Runner.setup ~n_pfus:(Some 3) ~penalty:50 Runner.Selective) with
      Runner.gain_threshold = 1.0;
      replacement = T1000_ooo.Mconfig.Fifo;
    }
  in
  check_int "the table is empty" 0
    (T1000_select.Extinstr.count (Experiment.selection_table ctx w s));
  let b = Experiment.baseline_for ctx w s.Runner.machine in
  let calls = sim_calls () in
  let r = Experiment.run_setup ctx w s in
  check_int "no simulation after the baseline" calls (sim_calls ());
  check_bool "the baseline's stats" true (r.Runner.stats == b.Runner.stats)

(* ---------- like-with-like speedups ---------- *)

(* Every speedup is taken against the no-PFU baseline on the same
   machine: on a gshare ctx, Figure 6's 2-PFU cell is the speedup of a
   selective run over a baseline with the same speculative front end,
   exactly as two plain Runner.run calls on that predictor measure it —
   not over the perfect-prediction default. *)
let test_speedup_same_machine () =
  let w = workload "g721_dec" in
  let bpred = T1000_bpred.Predictor.Gshare 11 in
  let ctx = Experiment.create_ctx ~workloads:[ w ] ~bpred () in
  let f6 = Experiment.figure6_result ctx in
  check_int "figure 6 has no faults" 0 (List.length f6.Experiment.faults);
  let expected =
    Runner.speedup
      ~baseline:(Runner.run w (Runner.setup ~bpred Runner.Baseline))
      (Runner.run w
         (Runner.setup ~n_pfus:(Some 2) ~penalty:10 ~bpred Runner.Selective))
  in
  Alcotest.(check (float 0.0))
    "2-PFU cell = Runner speedup against a same-predictor baseline" expected
    (List.hd f6.Experiment.rows).Experiment.f6_sel_2

let () =
  Alcotest.run "t1000_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map_result order" `Quick
            test_pool_order;
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
          Alcotest.test_case "run key: PFU-equivalent machines share" `Slow
            test_run_key_pfu_equivalent;
          Alcotest.test_case "run key: n < confs separates" `Slow
            test_run_key_pfu_separates;
          Alcotest.test_case "run key: one-PFU policies share" `Slow
            test_run_key_one_pfu_shares;
          Alcotest.test_case "run key: an empty table shares the baseline"
            `Slow test_run_key_empty_table;
          Alcotest.test_case "speedup against a same-machine baseline" `Slow
            test_speedup_same_machine;
        ] );
    ]
