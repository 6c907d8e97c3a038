(* Tests for the design-space exploration engine (lib/dse): Space
   enumeration/parsing, Pareto dominance properties (QCheck), and the
   engine's load-bearing guarantees — pruning never changes the
   frontier, pruned points are never simulated, results are
   byte-identical across worker counts, the checkpoint journal makes
   re-runs simulation-free, and the engine agrees point-for-point with
   a hand-rolled Runner sweep (the old examples/design_space.ml). *)

open T1000

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_env var v f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match saved with Some s -> s | None -> ""))
    f

let with_njobs v f = with_env "T1000_NJOBS" v f

(* Tiny deterministic loop kernels from the fuzz generator: fast enough
   to sweep a grid in a unit test, real enough to exercise the whole
   analyze/select/simulate pipeline. *)
let toy_workload seed = T1000_fuzz.Gen.workload (T1000_fuzz.Gen.generate ~seed)

let toy_ctx = lazy (Experiment.create_ctx ~workloads:[ toy_workload 101; toy_workload 202 ] ())

(* A 2 x 3 (pfus x penalty) grid around the selective defaults. *)
let toy_space =
  {
    T1000_dse.Space.ax_pfus = [ 1; 2 ];
    ax_penalties = [ 0; 200; 800 ];
    ax_lut_budgets = [ 150 ];
    ax_replacements = [ T1000_ooo.Mconfig.Lru ];
    ax_gains = [ 0.005 ];
    ax_widths = [ 4 ];
    ax_bpreds = [ T1000_bpred.Predictor.Perfect ];
  }

let counter snap name =
  Option.value ~default:0
    (List.assoc_opt name snap.Obs.Metrics.counters)

let keys_of ms =
  List.map (fun m -> T1000_dse.Space.key m.T1000_dse.Engine.point) ms

(* ---------- Space ---------- *)

let test_space_enumerate () =
  let s = toy_space in
  let pts = T1000_dse.Space.enumerate s in
  check_int "size matches enumeration" (T1000_dse.Space.size s)
    (List.length pts);
  List.iteri
    (fun i p ->
      check_int "rank = position in enumerate" i (T1000_dse.Space.rank s p))
    pts;
  (* Penalty-innermost: each group's members are adjacent and
     penalty-ascending, so a group never interleaves with another. *)
  let rec groups_adjacent seen = function
    | [] -> ()
    | p :: tl ->
        let g = T1000_dse.Space.group_key p in
        (match List.assoc_opt g seen with
        | Some last_pen ->
            check_bool "penalty ascending within adjacent group" true
              (p.T1000_dse.Space.penalty > last_pen)
        | None ->
            check_bool "group appears once (no interleaving)" false
              (List.mem_assoc g seen));
        groups_adjacent ((g, p.T1000_dse.Space.penalty) :: List.remove_assoc g seen) tl
  in
  ignore (groups_adjacent [] pts);
  check_int "default space is the full 6-axis grid" 1620
    (T1000_dse.Space.size T1000_dse.Space.default)

let test_space_of_spec () =
  (match T1000_dse.Space.of_spec "pfus=4,1,2:penalty=0,100:width=8" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok s ->
      check_bool "values sorted and deduped" true
        (s.T1000_dse.Space.ax_pfus = [ 1; 2; 4 ]);
      check_bool "penalty parsed" true
        (s.T1000_dse.Space.ax_penalties = [ 0; 100 ]);
      check_bool "width parsed" true (s.T1000_dse.Space.ax_widths = [ 8 ]);
      check_bool "omitted axes keep defaults" true
        (s.T1000_dse.Space.ax_gains
        = T1000_dse.Space.default.T1000_dse.Space.ax_gains));
  let rejected spec =
    match T1000_dse.Space.of_spec spec with
    | Error _ -> true
    | Ok _ -> false
  in
  check_bool "unknown axis rejected" true (rejected "bogus=1");
  check_bool "bad value rejected" true (rejected "pfus=banana");
  check_bool "bad width rejected" true (rejected "width=5");
  check_bool "negative penalty rejected" true (rejected "penalty=-1");
  check_bool "empty spec rejected" true (rejected "");
  check_bool "missing = rejected" true (rejected "pfus")

let test_space_refine () =
  let s = T1000_dse.Space.default in
  let p =
    {
      T1000_dse.Space.pfus = 2;
      penalty = 50;
      lut_budget = 150;
      replacement = T1000_ooo.Mconfig.Fifo;
      gain = 0.005;
      width = 4;
      bpred = T1000_bpred.Predictor.Perfect;
    }
  in
  let neighbors = T1000_dse.Space.refine s ~stride:1 p in
  check_bool "refine proposes something" true (neighbors <> []);
  List.iter
    (fun q ->
      check_bool "neighbor differs from origin" true (q <> p);
      (* Every neighbor stays on the space's axes (rank would raise
         otherwise). *)
      ignore (T1000_dse.Space.rank s q);
      let diffs =
        List.length
          (List.filter Fun.id
             [
               q.T1000_dse.Space.pfus <> p.T1000_dse.Space.pfus;
               q.T1000_dse.Space.penalty <> p.T1000_dse.Space.penalty;
               q.T1000_dse.Space.lut_budget <> p.T1000_dse.Space.lut_budget;
               q.T1000_dse.Space.replacement <> p.T1000_dse.Space.replacement;
               q.T1000_dse.Space.gain <> p.T1000_dse.Space.gain;
               q.T1000_dse.Space.width <> p.T1000_dse.Space.width;
             ])
      in
      check_int "neighbor moves exactly one axis" 1 diffs)
    neighbors

(* ---------- Pareto (QCheck) ---------- *)

let objectives_gen =
  QCheck.Gen.(
    map3
      (fun s a p ->
        {
          T1000_dse.Pareto.speedup = float_of_int s /. 8.0;
          area_luts = a;
          pfus = p;
        })
      (int_range 1 24) (int_range 0 6) (int_range 1 4))

let objectives_list =
  QCheck.make
    ~print:(fun os ->
      String.concat "; "
        (List.map (Format.asprintf "%a" T1000_dse.Pareto.pp) os))
    QCheck.Gen.(list_size (int_range 0 30) objectives_gen)

let prop_frontier_nondominated =
  QCheck.Test.make ~count:500 ~name:"frontier mutually non-dominated"
    objectives_list (fun os ->
      let tagged = List.mapi (fun i o -> (i, o)) os in
      let front = T1000_dse.Pareto.frontier tagged in
      List.for_all
        (fun (_, o) ->
          not
            (List.exists (fun (_, o') -> T1000_dse.Pareto.dominates o' o) front))
        front)

let prop_frontier_covers =
  QCheck.Test.make ~count:500 ~name:"every excluded point is dominated"
    objectives_list (fun os ->
      let tagged = List.mapi (fun i o -> (i, o)) os in
      let front = T1000_dse.Pareto.frontier tagged in
      List.for_all
        (fun (i, o) ->
          List.mem_assoc i front
          || List.exists (fun (_, o') -> T1000_dse.Pareto.dominates o' o) front)
        tagged)

let prop_dominates_irreflexive =
  QCheck.Test.make ~count:500 ~name:"dominance is irreflexive and asymmetric"
    (QCheck.make QCheck.Gen.(pair objectives_gen objectives_gen))
    (fun (a, b) ->
      (not (T1000_dse.Pareto.dominates a a))
      && not (T1000_dse.Pareto.dominates a b && T1000_dse.Pareto.dominates b a))

(* ---------- Engine ---------- *)

(* Pruning is an optimization, not an approximation: the frontier of
   the pruned exhaustive run must equal the unpruned one, pruned and
   measured must partition the space, and the metric deltas must agree
   with the result — which is also how we assert a pruned config is
   never simulated. *)
let test_prune_sound () =
  let ctx = Lazy.force toy_ctx in
  let size = T1000_dse.Space.size toy_space in
  Obs.Metrics.reset ();
  let rp =
    T1000_dse.Engine.explore ~budget:size ~sample:`Full ~prune:true ctx
      toy_space
  in
  let snap = Obs.Metrics.snapshot () in
  let rf =
    T1000_dse.Engine.explore ~budget:size ~sample:`Full ~prune:false ctx
      toy_space
  in
  check_string "pruned frontier = exhaustive frontier"
    (String.concat "|" (keys_of rf.T1000_dse.Engine.frontier))
    (String.concat "|" (keys_of rp.T1000_dse.Engine.frontier));
  check_int "exhaustive run measures every point" size
    (List.length rf.T1000_dse.Engine.measured);
  check_int "measured + pruned partition the space" size
    (List.length rp.T1000_dse.Engine.measured
    + List.length rp.T1000_dse.Engine.pruned);
  List.iter
    (fun p ->
      check_bool "pruned point never measured" false
        (List.exists
           (fun m -> m.T1000_dse.Engine.point = p)
           rp.T1000_dse.Engine.measured))
    rp.T1000_dse.Engine.pruned;
  check_int "dse.simulated counts only unpruned points"
    (List.length rp.T1000_dse.Engine.measured)
    (counter snap "dse.simulated");
  check_int "dse.pruned matches the result"
    (List.length rp.T1000_dse.Engine.pruned)
    (counter snap "dse.pruned");
  check_bool "something was pruned on this grid" true
    (List.length rp.T1000_dse.Engine.pruned > 0)

let test_njobs_identical () =
  let ctx = Lazy.force toy_ctx in
  let run () =
    Format.asprintf "%a" T1000_dse.Engine.pp_frontier
      (T1000_dse.Engine.explore ~budget:64 ctx toy_space)
  in
  let seq = with_njobs "1" run in
  let par = with_njobs "4" run in
  check_string "frontier byte-identical njobs 1 vs 4" seq par

let test_budget () =
  let ctx = Lazy.force toy_ctx in
  let r = T1000_dse.Engine.explore ~budget:3 ~sample:`Full ctx toy_space in
  check_bool "budget caps evaluations" true
    (List.length r.T1000_dse.Engine.measured
     + List.length r.T1000_dse.Engine.faulted
    <= 3);
  check_bool "budget still measures something" true
    (r.T1000_dse.Engine.measured <> []);
  check_bool "invalid budget rejected" true
    (match T1000_dse.Engine.explore ~budget:0 ctx toy_space with
    | _ -> false
    | exception Fault.Error (Fault.Invalid_config _) -> true)

let test_journal_resume () =
  let dir = Filename.temp_file "t1000_dse_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let ctx = Lazy.force toy_ctx in
  let journal = Checkpoint.create ~fresh:true ~dir ~run:"dse" () in
  let r1 = T1000_dse.Engine.explore ~journal ~budget:64 ctx toy_space in
  Obs.Metrics.reset ();
  let journal2 = Checkpoint.create ~fresh:false ~dir ~run:"dse" () in
  let r2 = T1000_dse.Engine.explore ~journal:journal2 ~budget:64 ctx toy_space in
  let snap = Obs.Metrics.snapshot () in
  check_string "resumed frontier identical"
    (Format.asprintf "%a" T1000_dse.Engine.pp_frontier r1)
    (Format.asprintf "%a" T1000_dse.Engine.pp_frontier r2);
  check_int "resumed run simulates nothing" 0 (counter snap "dse.sim_tasks");
  check_bool "resumed run is journal-fed" true (counter snap "dse.cached" > 0)

(* A faulting workload poisons only its own (point, workload) cells:
   every point is reported faulted, the other workload's cells still
   land in the journal, and a resume simulates exactly the missing
   cells and reproduces a clean run's frontier.  One penalty per group,
   so no pruning decision depends on which cells arrived. *)
let test_fault_isolation_resume () =
  let workload name = Option.get (T1000_workloads.Registry.find name) in
  let fresh_ctx () =
    Experiment.create_ctx
      ~workloads:[ workload "unepic"; workload "g721_dec" ]
      ()
  in
  let space = { toy_space with T1000_dse.Space.ax_penalties = [ 10 ] } in
  let explore ?journal () =
    T1000_dse.Engine.explore ?journal ~budget:(T1000_dse.Space.size space)
      ~sample:`Full (fresh_ctx ()) space
  in
  let dir = Filename.temp_file "t1000_dse_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let clean = explore () in
  let points = T1000_dse.Space.enumerate space in
  with_env "T1000_FAULT_INJECT" "g721_dec" (fun () ->
      let journal = Checkpoint.create ~fresh:true ~dir ~run:"dse" () in
      let r = explore ~journal () in
      check_int "nothing measured" 0 (List.length r.T1000_dse.Engine.measured);
      check_string "every point faulted"
        (String.concat "|" (List.map T1000_dse.Space.key points))
        (String.concat "|"
           (List.map T1000_dse.Space.key r.T1000_dse.Engine.faulted));
      let sorted ks = String.concat "|" (List.sort compare ks) in
      check_string "one fault per point, named by its key"
        (sorted (List.map T1000_dse.Space.key points))
        (sorted
           (List.map
              (fun (f : Experiment.point_fault) -> f.Experiment.fault_point)
              r.T1000_dse.Engine.faults));
      List.iter
        (fun (f : Experiment.point_fault) ->
          check_string "fault names the workload" "g721_dec"
            f.Experiment.fault_workload)
        r.T1000_dse.Engine.faults;
      check_int "journal holds only the unepic cells" (List.length points)
        (Checkpoint.completed journal);
      List.iter
        (fun p ->
          check_bool "unepic cell journaled" true
            (Checkpoint.mem journal
               ~key:("dse/unepic/" ^ T1000_dse.Space.key p)))
        points);
  let before = Obs.Metrics.get "dse.sim_tasks" in
  let resumed =
    explore ~journal:(Checkpoint.create ~dir ~run:"dse" ()) ()
  in
  check_string "resumed frontier = clean frontier"
    (Format.asprintf "%a" T1000_dse.Engine.pp_frontier clean)
    (Format.asprintf "%a" T1000_dse.Engine.pp_frontier resumed);
  check_int "resume simulates only the g721_dec cells" (List.length points)
    (Obs.Metrics.get "dse.sim_tasks" - before)

(* The engine agrees point-for-point with the hand-rolled Runner sweep
   the design_space example used to be: same speedups, same frontier. *)
let test_example_agreement () =
  let w = toy_workload 303 in
  let ctx = Experiment.create_ctx ~workloads:[ w ] () in
  let analysis = Runner.analyze w in
  let baseline = Runner.run ~analysis w (Runner.setup Runner.Baseline) in
  let grid =
    List.concat_map
      (fun pfus -> List.map (fun pen -> (pfus, pen)) [ 0; 400 ])
      [ 1; 2 ]
  in
  let measured =
    List.map
      (fun (pfus, pen) ->
        let m =
          T1000_dse.Engine.eval_point ctx
            {
              T1000_dse.Space.pfus;
              penalty = pen;
              lut_budget = 150;
              replacement = T1000_ooo.Mconfig.Lru;
              gain = 0.005;
              width = 4;
              bpred = T1000_bpred.Predictor.Perfect;
            }
        in
        let direct =
          Runner.speedup ~baseline
            (Runner.run ~analysis w
               (Runner.setup ~n_pfus:(Some pfus) ~penalty:pen Runner.Selective))
        in
        (match m.T1000_dse.Engine.per_workload with
        | [ (name, s) ] ->
            check_string "per-workload name" w.T1000_workloads.Workload.name
              name;
            Alcotest.(check (float 1e-12)) "library = hand-rolled sweep" direct s
        | other ->
            Alcotest.failf "expected 1 per-workload entry, got %d"
              (List.length other));
        Alcotest.(check (float 1e-9))
          "1-workload geomean = the speedup" direct
          m.T1000_dse.Engine.obj.T1000_dse.Pareto.speedup;
        m)
      grid
  in
  (* And explore over the same 2-axis space lands on the frontier of
     exactly these measurements. *)
  let space =
    {
      toy_space with
      T1000_dse.Space.ax_pfus = [ 1; 2 ];
      ax_penalties = [ 0; 400 ];
    }
  in
  let r =
    T1000_dse.Engine.explore ~budget:64 ~sample:`Full ~prune:false ctx space
  in
  check_string "explore frontier = frontier of the example grid"
    (String.concat "|"
       (List.map
          (fun (m, _) -> T1000_dse.Space.key m.T1000_dse.Engine.point)
          (T1000_dse.Pareto.frontier
             (List.map (fun m -> (m, m.T1000_dse.Engine.obj)) measured))))
    (String.concat "|" (keys_of r.T1000_dse.Engine.frontier))

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "enumerate/rank/groups" `Quick test_space_enumerate;
          Alcotest.test_case "of_spec" `Quick test_space_of_spec;
          Alcotest.test_case "refine" `Quick test_space_refine;
        ] );
      ( "pareto",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_frontier_nondominated;
            prop_frontier_covers;
            prop_dominates_irreflexive;
          ] );
      ( "engine",
        [
          Alcotest.test_case "pruning sound + never simulated" `Slow
            test_prune_sound;
          Alcotest.test_case "njobs determinism" `Slow test_njobs_identical;
          Alcotest.test_case "budget" `Slow test_budget;
          Alcotest.test_case "journal resume" `Slow test_journal_resume;
          Alcotest.test_case "fault isolation + resume" `Slow
            test_fault_isolation_resume;
          Alcotest.test_case "example agreement" `Slow test_example_agreement;
        ] );
    ]
