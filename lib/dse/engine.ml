open T1000_workloads

type measured = {
  point : Space.point;
  obj : Pareto.objectives;
  per_workload : (string * float) list;
}

type result = {
  space : Space.t;
  sample : [ `Coarse | `Full ];
  budget : int;
  rounds : int;
  measured : measured list;
  frontier : measured list;
  pruned : Space.point list;
  faulted : Space.point list;
  faults : T1000.Experiment.point_fault list;
}

(* One (point, workload) task: the workload's like-with-like speedup
   under the point's setup and the LUT area of the workload's selected
   instruction table.  Pure given (p, w) — the ctx memo tables only
   change *when* values are computed, never what they are — which is
   what makes fan-out order irrelevant and the journal value stable
   across resumes. *)
let eval_task ctx p (w : Workload.t) =
  let s = Space.setup p in
  let table = T1000.Experiment.selection_table ctx w s in
  let area =
    List.fold_left
      (fun acc e -> acc + e.T1000_select.Extinstr.lut_cost)
      0
      (T1000_select.Extinstr.entries table)
  in
  (T1000.Experiment.speedup_of ctx w s, area)

let combine p per =
  let n = List.length per in
  let geomean =
    exp
      (List.fold_left (fun acc (_, (s, _)) -> acc +. log s) 0.0 per
      /. float_of_int n)
  in
  let area = List.fold_left (fun acc (_, (_, a)) -> acc + a) 0 per in
  {
    point = p;
    obj =
      { Pareto.speedup = geomean; area_luts = area; pfus = p.Space.pfus };
    per_workload = List.map (fun (name, (s, _)) -> (name, s)) per;
  }

let eval_point ctx p =
  let per =
    List.map
      (fun (w : Workload.t) -> (w.Workload.name, eval_task ctx p w))
      (T1000.Experiment.workloads ctx)
  in
  combine p per

(* Evaluate one wave of points through the Experiment fan-out (which
   owns fault injection, journaling and the pool) and regroup per point.
   Returns, in wave order, each point's measurement ([None] when any of
   its workloads faulted) plus the per-task faults. *)
let evaluate_wave ?journal ctx wave =
  T1000_obs.Tracer.with_span ~cat:"dse" "dse.wave" @@ fun () ->
  let cells, faults =
    T1000.Experiment.fan_out ?journal
      ~on_cached:(fun () -> T1000_obs.Metrics.incr "dse.cached")
      ~id:"dse" ~label:Space.key ctx wave
      (fun w p ->
        T1000_obs.Metrics.incr "dse.sim_tasks";
        eval_task ctx p w)
  in
  let measure j p =
    let per =
      List.map
        (fun ((w : Workload.t), rs) -> (w.Workload.name, List.nth rs j))
        cells
    in
    if List.for_all (fun (_, r) -> Result.is_ok r) per then
      Some (combine p (List.map (fun (n, r) -> (n, Result.get_ok r)) per))
    else None
  in
  (List.mapi (fun j p -> (p, measure j p)) wave, faults)

let default_budget = 64

(* Relative speedup margin a dominator must clear before a penalty
   group's tail is pruned.  Speedup is non-increasing in penalty only
   up to the timing simulator's cycle-alignment noise (observed ~3e-5
   relative); 1e-3 is ~30x that, so a noise-sized inversion can never
   turn a pruned point into a frontier member, while real dominance
   gaps (typically >1e-2) still prune. *)
let prune_slack = 1e-3

let explore ?journal ?(budget = default_budget) ?(sample = `Coarse)
    ?(prune = true) ctx space =
  Space.validate space;
  if budget <= 0 then
    T1000.Fault.invalid_config "dse budget must be positive, got %d" budget;
  T1000_obs.Tracer.with_span ~cat:"dse" "dse.explore" @@ fun () ->
  T1000_obs.Metrics.time "dse.explore" @@ fun () ->
  let measured_tbl : (Space.point, measured) Hashtbl.t = Hashtbl.create 64 in
  let faulted_tbl : (Space.point, unit) Hashtbl.t = Hashtbl.create 8 in
  let pruned_tbl : (Space.point, unit) Hashtbl.t = Hashtbl.create 64 in
  let faults = ref [] in
  let evaluated = ref 0 in
  let rounds = ref 0 in
  let visited p =
    Hashtbl.mem measured_tbl p || Hashtbl.mem faulted_tbl p
    || Hashtbl.mem pruned_tbl p
  in
  let all_measured () =
    Hashtbl.fold (fun _ m acc -> (m, m.obj) :: acc) measured_tbl []
  in
  (* Evaluate a candidate list (already deduplicated, unvisited, in
     canonical order, within budget): penalty-monotone groups advance
     one member per wave, lowest penalty first; a group whose freshest
     member is strictly dominated by any measured point has its whole
     unsimulated tail pruned. *)
  let run_candidates cands =
    let groups = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun p ->
        let g = Space.group_key p in
        match Hashtbl.find_opt groups g with
        | None ->
            Hashtbl.add groups g [ p ];
            order := g :: !order
        | Some ps -> Hashtbl.replace groups g (p :: ps))
      cands;
    let pending =
      ref
        (List.rev_map
           (fun g ->
             List.sort
               (fun a b ->
                 compare a.Space.penalty b.Space.penalty)
               (List.rev (Hashtbl.find groups g)))
           !order
        |> List.rev)
    in
    while !pending <> [] do
      let wave = List.map List.hd !pending in
      T1000_obs.Metrics.incr ~by:(List.length wave) "dse.simulated";
      let results, wave_faults = evaluate_wave ?journal ctx wave in
      faults := !faults @ wave_faults;
      List.iter
        (fun (p, m) ->
          incr evaluated;
          match m with
          | Some m -> Hashtbl.replace measured_tbl p m
          | None -> Hashtbl.replace faulted_tbl p ())
        results;
      let all = all_measured () in
      pending :=
        List.filter_map
          (fun group ->
            let head = List.hd group in
            match List.tl group with
            | [] -> None
            | tail ->
                let dominated =
                  prune
                  && (match Hashtbl.find_opt measured_tbl head with
                     | Some m ->
                         List.exists
                           (fun (_, o) ->
                             Pareto.dominates_with_margin ~slack:prune_slack
                               o m.obj)
                           all
                     | None -> false)
                in
                if dominated then begin
                  (* Area and PFU count are penalty-invariant and
                     speedup is non-increasing in penalty up to
                     alignment noise well under prune_slack, so the
                     same dominator strictly dominates every
                     higher-penalty member: skip the simulations
                     entirely. *)
                  T1000_obs.Metrics.incr ~by:(List.length tail) "dse.pruned";
                  List.iter (fun p -> Hashtbl.replace pruned_tbl p ()) tail;
                  None
                end
                else Some tail)
          !pending;
      incr rounds
    done
  in
  let canonical ps = List.sort (Space.compare_points space) ps in
  let frontier_now () =
    let ms =
      Hashtbl.fold (fun _ m acc -> m :: acc) measured_tbl []
      |> List.sort (fun a b -> Space.compare_points space a.point b.point)
    in
    List.map fst (Pareto.frontier (List.map (fun m -> (m, m.obj)) ms))
  in
  let take_budget ps =
    let rec go n acc = function
      | [] -> List.rev acc
      | _ when n <= 0 -> List.rev acc
      | p :: tl -> go (n - 1) (p :: acc) tl
    in
    go (budget - !evaluated) [] ps
  in
  let initial =
    match sample with
    | `Full -> Space.enumerate space
    | `Coarse -> canonical (Space.enumerate (Space.coarse space))
  in
  run_candidates (take_budget initial);
  (match sample with
  | `Full -> ()
  | `Coarse ->
      (* Successive-halving refinement: propose axis neighbors of the
         incumbent frontier at the current stride; when a round adds no
         frontier member (or proposes nothing new), halve the stride;
         stop at stride 1 or an exhausted budget. *)
      let stride = ref (Space.initial_stride space) in
      let continue_ = ref true in
      while !continue_ && !evaluated < budget do
        let front = frontier_now () in
        let seen = Hashtbl.create 16 in
        let proposals =
          List.concat_map
            (fun m -> Space.refine space ~stride:!stride m.point)
            front
          |> List.filter (fun p ->
                 if visited p || Hashtbl.mem seen p then false
                 else begin
                   Hashtbl.add seen p ();
                   true
                 end)
          |> canonical |> take_budget
        in
        if proposals = [] then
          if !stride <= 1 then continue_ := false else stride := !stride / 2
        else begin
          let before = List.map (fun m -> m.point) front in
          run_candidates proposals;
          let after = List.map (fun m -> m.point) (frontier_now ()) in
          if after = before then
            if !stride <= 1 then continue_ := false
            else stride := !stride / 2
        end
      done);
  T1000_obs.Metrics.incr ~by:!rounds "dse.rounds";
  let measured =
    Hashtbl.fold (fun _ m acc -> m :: acc) measured_tbl []
    |> List.sort (fun a b -> Space.compare_points space a.point b.point)
  in
  {
    space;
    sample;
    budget;
    rounds = !rounds;
    measured;
    frontier = frontier_now ();
    pruned = canonical (Hashtbl.fold (fun p () acc -> p :: acc) pruned_tbl []);
    faulted =
      canonical (Hashtbl.fold (fun p () acc -> p :: acc) faulted_tbl []);
    faults = !faults;
  }

(* -------- rendering -------- *)

let rule ppf width = Format.fprintf ppf "%s@," (String.make width '-')

let pp_frontier ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Design-space Pareto frontier — maximize speedup, minimize LUT area \
     and PFUs@,";
  rule ppf 72;
  Format.fprintf ppf "%-36s %10s %12s %6s@," "config" "geomean" "area(LUTs)"
    "PFUs";
  rule ppf 72;
  List.iter
    (fun m ->
      Format.fprintf ppf "%-36s %10.3f %12d %6d@," (Space.key m.point)
        m.obj.Pareto.speedup m.obj.Pareto.area_luts m.obj.Pareto.pfus)
    r.frontier;
  rule ppf 72;
  Format.fprintf ppf
    "evaluated %d of %d configs in %d round(s) (%d pruned as dominated, %d \
     faulted); frontier: %d@,"
    (List.length r.measured + List.length r.faulted)
    (Space.size r.space) r.rounds
    (List.length r.pruned)
    (List.length r.faulted)
    (List.length r.frontier);
  Format.fprintf ppf "@]"

let to_json r =
  let open T1000_obs.Json in
  let frontier_set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace frontier_set m.point ()) r.frontier;
  let point_json m =
    Obj
      [
        ("key", Str (Space.key m.point));
        ("pfus", Num (float_of_int m.point.Space.pfus));
        ("penalty", Num (float_of_int m.point.Space.penalty));
        ("lut_budget", Num (float_of_int m.point.Space.lut_budget));
        ( "replacement",
          Str (Space.repl_to_string m.point.Space.replacement) );
        ("gain", Num m.point.Space.gain);
        ("width", Num (float_of_int m.point.Space.width));
        ( "bpred",
          Str (T1000_bpred.Predictor.spec_to_string m.point.Space.bpred) );
        ("speedup", Num m.obj.Pareto.speedup);
        ("area_luts", Num (float_of_int m.obj.Pareto.area_luts));
        ("frontier", Bool (Hashtbl.mem frontier_set m.point));
        ( "per_workload",
          Obj (List.map (fun (n, s) -> (n, Num s)) m.per_workload) );
      ]
  in
  Obj
    [
      ( "space",
        Obj
          [
            ( "pfus",
              List
                (List.map (fun v -> Num (float_of_int v)) r.space.Space.ax_pfus)
            );
            ( "penalty",
              List
                (List.map
                   (fun v -> Num (float_of_int v))
                   r.space.Space.ax_penalties) );
            ( "lut",
              List
                (List.map
                   (fun v -> Num (float_of_int v))
                   r.space.Space.ax_lut_budgets) );
            ( "repl",
              List
                (List.map
                   (fun rp -> Str (Space.repl_to_string rp))
                   r.space.Space.ax_replacements) );
            ("gain", List (List.map (fun v -> Num v) r.space.Space.ax_gains));
            ( "width",
              List
                (List.map
                   (fun v -> Num (float_of_int v))
                   r.space.Space.ax_widths) );
          ] );
      ("total_configs", Num (float_of_int (Space.size r.space)));
      ( "sample",
        Str (match r.sample with `Coarse -> "coarse" | `Full -> "full") );
      ("budget", Num (float_of_int r.budget));
      ("rounds", Num (float_of_int r.rounds));
      ("evaluated", Num (float_of_int (List.length r.measured)));
      ("pruned", Num (float_of_int (List.length r.pruned)));
      ("faulted", Num (float_of_int (List.length r.faulted)));
      ( "faults",
        List
          (List.map
             (fun (f : T1000.Experiment.point_fault) ->
               Obj
                 [
                   ("workload", Str f.T1000.Experiment.fault_workload);
                   ("point", Str f.T1000.Experiment.fault_point);
                   ( "fault",
                     Str (T1000.Fault.to_string f.T1000.Experiment.fault) );
                 ])
             r.faults) );
      ("frontier", List (List.map point_json r.frontier));
      ("measured", List (List.map point_json r.measured));
    ]
