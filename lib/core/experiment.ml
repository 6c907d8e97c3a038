open T1000_ooo
open T1000_workloads

(* Selection-cache key: the selection-relevant subset of a
   Runner.setup.  Penalty, replacement policy, timing model, prefetch
   and machine shape all affect only the simulation, not which table
   Runner.select_table returns, so sweeps over those parameters share
   one cached table per workload. *)
type sel_key =
  | Kgreedy of T1000_dfg.Extract.config * int
  | Kselective of T1000_dfg.Extract.config * float * int * int option

let sel_key (s : Runner.setup) =
  match s.Runner.method_ with
  | Runner.Baseline -> None
  | Runner.Greedy -> Some (Kgreedy (s.Runner.extract, s.Runner.lut_budget))
  | Runner.Selective ->
      Some
        (Kselective
           ( s.Runner.extract,
             s.Runner.gain_threshold,
             s.Runner.lut_budget,
             s.Runner.n_pfus ))

type ctx = {
  suite : Workload.t list;
  analyses : (string, Runner.analysis) Memo.t;
  runs : (string * string, Runner.run) Memo.t;
  tables : (string * sel_key, T1000_select.Extinstr.t) Memo.t;
}

let create_ctx ?(workloads = Registry.all) () =
  {
    suite = workloads;
    analyses = Memo.create ~name:"analysis" 8;
    runs = Memo.create ~name:"run" ~cap:1024 64;
    tables = Memo.create ~name:"tables" 32;
  }

let workloads ctx = ctx.suite

let analysis ctx (w : Workload.t) =
  Memo.find_or_compute ctx.analyses w.Workload.name (fun () -> Runner.analyze w)

let selection_table ctx (w : Workload.t) s =
  match sel_key s with
  | None -> T1000_select.Extinstr.empty
  | Some k ->
      Memo.find_or_compute ctx.tables
        (w.Workload.name, k)
        (fun () -> Runner.select_table s (analysis ctx w))

(* A run is a pure function of what [Runner.simulate] consumes, so the
   memo is keyed on exactly that ([Runner.inputs_key]), not on the
   setup: DSE points whose gain thresholds or LUT budgets pick the same
   table share one simulation and one set of checks.  The same setup
   gets the physically same run back; another setup gets the shared
   statistics under its own [used].  The cap bounds a DSE sweep (runs
   are a few KB each). *)
let run_setup ctx (w : Workload.t) s =
  let p =
    Runner.prepare ~analysis:(analysis ctx w) ~table:(selection_table ctx w s)
      w s
  in
  let r =
    Memo.find_or_compute ctx.runs
      (w.Workload.name, Runner.inputs_key p)
      (fun () -> Runner.simulate p)
  in
  if r.Runner.used = s then r else { r with Runner.used = s }

let baseline_for ctx w machine =
  run_setup ctx w { (Runner.setup Runner.Baseline) with Runner.machine }

(* Like with like: against the no-PFU baseline on the setup's own
   machine, so a speculative front end (T1000_BPRED, a DSE width axis)
   is compared with a baseline that speculates the same way. *)
let speedup_of ctx w s =
  let r = run_setup ctx w s in
  Runner.speedup ~baseline:(baseline_for ctx w s.Runner.machine) r

(* -------- fault-isolated fan-out over (workload x point) tasks -------- *)

type point_fault = {
  fault_workload : string;
  fault_point : string;
  fault : Fault.t;
}

type 'row partial = { rows : 'row list; faults : point_fault list }

(* Test hook: T1000_FAULT_INJECT names one workload whose every task
   raises Fault.Injected before evaluating, so the fault-isolation and
   checkpoint-resume paths can be exercised end to end from the CLI and
   CI without a real bug. *)
let fault_inject_target () =
  match Sys.getenv_opt "T1000_FAULT_INJECT" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> Some (String.trim s)

(* The one (workload x point) fan-out (see the .mli).  Determinism:
   every task is a pure function of (w, p) — the shared memo tables only
   change *when* a value is computed, never what it is — and marshalled
   journal values round-trip exactly, so the cells are identical at any
   worker count and on resume. *)
let fan_out ?journal ?(on_cached = ignore) ~id ~label ctx points eval =
  let inject = fault_inject_target () in
  let key ((w : Workload.t), p) =
    Printf.sprintf "%s/%s/%s" id w.Workload.name (label p)
  in
  let eval_task (((w : Workload.t), p) as t) =
    (match inject with
    | Some name when name = w.Workload.name ->
        raise
          (Fault.Error
             (Fault.Injected
                (Printf.sprintf "T1000_FAULT_INJECT=%s hit point %s" name
                   (key t))))
    | Some _ | None -> ());
    eval w p
  in
  let tasks =
    List.concat_map (fun w -> List.map (fun p -> (w, p)) points) ctx.suite
  in
  (* Journal hits are served as they are; only the rest reach the pool. *)
  let found =
    List.map
      (fun t ->
        match Option.bind journal (Checkpoint.find ~key:(key t)) with
        | Some v ->
            on_cached ();
            Either.Left v
        | None -> Either.Right t)
      tasks
  in
  let todo = Array.of_list (List.filter_map Either.find_right found) in
  let fresh =
    Array.of_list
      (Pool.parallel_map_result
         ?on_result:
           (Option.map
              (fun j k r ->
                Result.iter (Checkpoint.record j ~key:(key todo.(k))) r)
              journal)
         eval_task (Array.to_list todo))
  in
  let next = ref (-1) in
  let results =
    Array.of_list
      (List.map
         (function
           | Either.Left v -> Ok v
           | Either.Right _ ->
               incr next;
               fresh.(!next))
         found)
  in
  let n = List.length points in
  let cells =
    List.mapi
      (fun i w -> (w, List.mapi (fun k _ -> results.((i * n) + k)) points))
      ctx.suite
  in
  let faults =
    List.concat_map
      (fun ((w : Workload.t), rs) ->
        List.combine points rs
        |> List.filter_map (function
             | _, Ok _ -> None
             | p, Error fault ->
                 Some
                   {
                     fault_workload = w.Workload.name;
                     fault_point = label p;
                     fault;
                   }))
      cells
  in
  (cells, faults)

(* The drivers' view of [fan_out]: a workload's row survives only if
   every one of its points succeeded. *)
let map_partial ?journal ~id ~label ctx points eval =
  T1000_obs.Tracer.with_span ~cat:"experiment" ("experiment." ^ id)
  @@ fun () ->
  T1000_obs.Metrics.time ("experiment." ^ id) @@ fun () ->
  let cells, faults = fan_out ?journal ~id ~label ctx points eval in
  ( List.filter_map
      (fun (w, rs) ->
        if List.for_all Result.is_ok rs then Some (w, List.map Result.get_ok rs)
        else None)
      cells,
    faults )

(* Strict facade over a partial result: the historical drivers abort on
   the first fault, as they did when any task exception escaped. *)
let strict (p : 'row partial) =
  match p.faults with
  | [] -> p.rows
  | { fault; _ } :: _ -> raise (Fault.Error fault)

(* -------- Figure 2 -------- *)

type f2_row = {
  f2_name : string;
  f2_greedy_unlimited : float;
  f2_greedy_2pfu : float;
}

let figure2_result ?journal ctx =
  let points =
    [
      ("greedy-unlimited", Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy);
      ("greedy-2pfu", Runner.setup ~n_pfus:(Some 2) ~penalty:10 Runner.Greedy);
    ]
  in
  let rows, faults =
    map_partial ?journal ~id:"figure2" ~label:fst ctx points (fun w (_, s) ->
        speedup_of ctx w s)
  in
  {
    rows =
      List.map
        (function
          | (w : Workload.t), [ unlimited; two_pfu ] ->
              {
                f2_name = w.Workload.name;
                f2_greedy_unlimited = unlimited;
                f2_greedy_2pfu = two_pfu;
              }
          | _ -> assert false)
        rows;
    faults;
  }

let figure2 ctx = strict (figure2_result ctx)

(* -------- Section 4.1 table -------- *)

type t41_row = {
  t41_name : string;
  t41_distinct : int;
  t41_shortest : int;
  t41_longest : int;
  t41_occurrences : int;
}

let table41_result ?journal ctx =
  let rows, faults =
    map_partial ?journal ~id:"table41" ~label:fst ctx
      [ ("greedy", ()) ]
      (fun (w : Workload.t) (_, ()) ->
        let table =
          selection_table ctx w (Runner.setup ~n_pfus:None Runner.Greedy)
        in
        let entries = T1000_select.Extinstr.entries table in
        let sizes =
          List.map
            (fun e -> T1000_dfg.Dfg.size e.T1000_select.Extinstr.dfg)
            entries
        in
        {
          t41_name = w.Workload.name;
          t41_distinct = List.length entries;
          (* An empty selection has no shortest/longest sequence; report
             0 rather than the fold seeds (max_int / 0). *)
          t41_shortest =
            (match sizes with
            | [] -> 0
            | _ -> List.fold_left min max_int sizes);
          t41_longest = List.fold_left max 0 sizes;
          t41_occurrences = T1000_select.Extinstr.total_occurrences table;
        })
  in
  {
    rows =
      List.map
        (function _, [ row ] -> row | _ -> assert false)
        rows;
    faults;
  }

let table41 ctx = strict (table41_result ctx)

(* -------- Figure 6 -------- *)

type f6_row = {
  f6_name : string;
  f6_sel_2 : float;
  f6_sel_4 : float;
  f6_sel_unlimited : float;
}

let figure6_result ?journal ctx =
  let sel n = Runner.setup ~n_pfus:n ~penalty:10 Runner.Selective in
  let points =
    [ ("2", sel (Some 2)); ("4", sel (Some 4)); ("unlimited", sel None) ]
  in
  let rows, faults =
    map_partial ?journal ~id:"figure6" ~label:fst ctx points (fun w (_, s) ->
        speedup_of ctx w s)
  in
  {
    rows =
      List.map
        (function
          | (w : Workload.t), [ two; four; unlimited ] ->
              {
                f6_name = w.Workload.name;
                f6_sel_2 = two;
                f6_sel_4 = four;
                f6_sel_unlimited = unlimited;
              }
          | _ -> assert false)
        rows;
    faults;
  }

let figure6 ctx = strict (figure6_result ctx)

(* -------- Section 5.2 penalty sweep -------- *)

type s52_row = {
  s52_name : string;
  s52_points : (int * float * float) list;
}

let penalty_sweep_result ?journal ?(penalties = [ 10; 50; 100; 250; 500 ]) ctx =
  let rows, faults =
    map_partial ?journal ~id:"s52" ~label:string_of_int ctx penalties
      (fun w p ->
        ( p,
          speedup_of ctx w
            (Runner.setup ~n_pfus:(Some 2) ~penalty:p Runner.Selective),
          speedup_of ctx w
            (Runner.setup ~n_pfus:(Some 2) ~penalty:p Runner.Greedy) ))
  in
  {
    rows =
      List.map
        (fun ((w : Workload.t), points) ->
          { s52_name = w.Workload.name; s52_points = points })
        rows;
    faults;
  }

let penalty_sweep ?penalties ctx = strict (penalty_sweep_result ?penalties ctx)

(* -------- Figure 7 -------- *)

type f7_result = {
  f7_costs : (string * int list) list;
  f7_histogram : T1000_hwcost.Area.t;
  f7_max : int;
}

let figure7_result ?journal ctx =
  let rows, faults =
    map_partial ?journal ~id:"figure7" ~label:fst ctx
      [ ("costs", ()) ]
      (fun (w : Workload.t) (_, ()) ->
        let r =
          run_setup ctx w (Runner.setup ~n_pfus:(Some 4) Runner.Selective)
        in
        List.map
          (fun e -> e.T1000_select.Extinstr.lut_cost)
          (T1000_select.Extinstr.entries r.Runner.table))
  in
  let costs =
    List.map
      (function
        | (w : Workload.t), [ cs ] -> (w.Workload.name, cs)
        | _ -> assert false)
      rows
  in
  let all = List.concat_map snd costs in
  ( {
      f7_costs = costs;
      f7_histogram = T1000_hwcost.Area.histogram all;
      f7_max = List.fold_left max 0 all;
    },
    faults )

let figure7 ctx =
  let r, faults = figure7_result ctx in
  match faults with
  | [] -> r
  | { fault; _ } :: _ -> raise (Fault.Error fault)

(* -------- Ablations -------- *)

type sweep_row = {
  sweep_name : string;
  sweep_points : (string * float) list;
}

(* Sweeps that report (label, speedup) points per workload.  The point
   payload never enters the journal key — only its label does — so the
   (label, payload) pairs must have distinct labels within a sweep. *)
let sweep_partial ?journal ~id ctx points eval =
  let rows, faults =
    map_partial ?journal ~id ~label:fst ctx points (fun w (_, p) -> eval w p)
  in
  {
    rows =
      List.map
        (fun ((w : Workload.t), vs) ->
          {
            sweep_name = w.Workload.name;
            sweep_points = List.map2 (fun (l, _) v -> (l, v)) points vs;
          })
        rows;
    faults;
  }

let pfu_count_sweep_result ?journal ?(counts = [ 1; 2; 3; 4; 6; 8 ]) ctx =
  sweep_partial ?journal ~id:"a1" ctx
    (List.map (fun n -> (string_of_int n, n)) counts)
    (fun w n ->
      speedup_of ctx w (Runner.setup ~n_pfus:(Some n) Runner.Selective))

let pfu_count_sweep ?counts ctx = strict (pfu_count_sweep_result ?counts ctx)

let width_threshold_sweep_result ?journal ?(widths = [ 8; 12; 18; 24; 32 ]) ctx
    =
  sweep_partial ?journal ~id:"a2" ctx
    (List.map (fun n -> (string_of_int n, n)) widths)
    (fun w width ->
      let s = Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy in
      let s =
        {
          s with
          Runner.extract =
            { s.Runner.extract with T1000_dfg.Extract.width_threshold = width };
        }
      in
      speedup_of ctx w s)

let width_threshold_sweep ?widths ctx =
  strict (width_threshold_sweep_result ?widths ctx)

let gain_threshold_sweep_result ?journal ?(thresholds = [ 0.001; 0.005; 0.02 ])
    ctx =
  sweep_partial ?journal ~id:"a3" ctx
    (List.map (fun th -> (Printf.sprintf "%.3f" th, th)) thresholds)
    (fun w th ->
      let s = Runner.setup ~n_pfus:(Some 2) Runner.Selective in
      let s = { s with Runner.gain_threshold = th } in
      speedup_of ctx w s)

let gain_threshold_sweep ?thresholds ctx =
  strict (gain_threshold_sweep_result ?thresholds ctx)

let replacement_sweep_result ?journal ctx =
  let policies =
    [
      ("lru", Mconfig.Lru);
      ("fifo", Mconfig.Fifo);
      ("rand", Mconfig.Random_det);
    ]
  in
  sweep_partial ?journal ~id:"a4" ctx policies (fun w pol ->
      let s = Runner.setup ~n_pfus:(Some 2) Runner.Selective in
      let s = { s with Runner.replacement = pol } in
      speedup_of ctx w s)

let replacement_sweep ctx = strict (replacement_sweep_result ctx)

let machine_sweep_result ?journal ctx =
  let machines =
    [
      ( "2-wide/ruu32",
        {
          Mconfig.default with
          Mconfig.fetch_width = 2;
          decode_width = 2;
          issue_width = 2;
          commit_width = 2;
          ruu_size = 32;
          n_int_alu = 2;
          n_mem_ports = 1;
        } );
      ("4-wide/ruu64", Mconfig.default);
      ( "8-wide/ruu128",
        {
          Mconfig.default with
          Mconfig.fetch_width = 8;
          decode_width = 8;
          issue_width = 8;
          commit_width = 8;
          ruu_size = 128;
          n_int_alu = 8;
          n_mem_ports = 4;
        } );
    ]
  in
  sweep_partial ?journal ~id:"a5" ctx machines (fun w m ->
      speedup_of ctx w
        {
          (Runner.setup ~n_pfus:(Some 4) Runner.Selective) with
          Runner.machine = m;
        })

let machine_sweep ctx = strict (machine_sweep_result ctx)

let latency_model_sweep_result ?journal ctx =
  let models = [ ("1-cycle", `Single_cycle); ("lut-levels", `Lut_levels) ] in
  sweep_partial ?journal ~id:"a6" ctx models (fun w m ->
      let s = Runner.setup ~n_pfus:(Some 4) Runner.Selective in
      let s = { s with Runner.ext_timing = m } in
      speedup_of ctx w s)

let latency_model_sweep ctx = strict (latency_model_sweep_result ctx)

let branch_predictor_sweep_result ?journal ctx =
  let preds =
    T1000_bpred.Predictor.
      [ ("perfect", Perfect); ("bimodal-2k", Bimodal 11 (* 2048 counters *)) ]
  in
  sweep_partial ?journal ~id:"a7" ctx preds (fun w bp ->
      let machine = { Mconfig.default with Mconfig.bpred = bp } in
      let sel_setup =
        {
          (Runner.setup ~n_pfus:(Some 4) Runner.Selective) with
          Runner.machine;
        }
      in
      speedup_of ctx w sel_setup)

let branch_predictor_sweep ctx = strict (branch_predictor_sweep_result ctx)

let prefetch_sweep_result ?journal ?(penalties = [ 100; 500 ]) ctx =
  let points =
    List.concat_map
      (fun pen ->
        List.map
          (fun (label, pf) -> (Printf.sprintf "%d%s" pen label, (pen, pf)))
          [ ("cyc", false); ("cyc+pf", true) ])
      penalties
  in
  sweep_partial ?journal ~id:"a8" ctx points (fun w (pen, pf) ->
      let s = Runner.setup ~n_pfus:(Some 2) ~penalty:pen Runner.Selective in
      let s = { s with Runner.config_prefetch = pf } in
      speedup_of ctx w s)

let prefetch_sweep ?penalties ctx = strict (prefetch_sweep_result ?penalties ctx)

let speculation_sweep_result ?journal ctx =
  let module Bp = T1000_bpred.Predictor in
  let preds =
    [
      ("perfect", Bp.Perfect);
      ("static", Bp.Static);
      ("bim2k", Bp.Bimodal 11);
      ("gsh2k", Bp.Gshare 11);
    ]
  in
  let points =
    List.concat_map
      (fun (pl, bp) ->
        List.map
          (fun (ml, m) -> (Printf.sprintf "%s/%s" pl ml, (bp, m)))
          [ ("gr", Runner.Greedy); ("sel", Runner.Selective) ])
      preds
  in
  sweep_partial ?journal ~id:"a9" ctx points (fun w (bp, m) ->
      (* Like A7, compare like with like: the no-PFU baseline runs
         under the same front-end predictor, so each column isolates
         what speculation does to the PFU gain rather than to the raw
         cycle count.  2 PFUs, not 4: with replacement pressure the
         greedy tables also pay for wrong-path reconfigurations, which
         is exactly the interaction this sweep is after. *)
      let machine = { Mconfig.default with Mconfig.bpred = bp } in
      speedup_of ctx w
        { (Runner.setup ~n_pfus:(Some 2) m) with Runner.machine })

let speculation_sweep ctx = strict (speculation_sweep_result ctx)
