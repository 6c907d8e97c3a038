(* Per-layer observations read from the [Obs.Metrics] counters the
   library already keeps: the [phase.*] timers of Runner, the [memo.*]
   hit/miss counts of the shared caches and the [dse.*] exploration
   counts.  [get]/[getf] abstract over where the counters come from: this
   process's own registry, or the dump a daemon prints at exit. *)

(* The experiment context's tables, then the serve daemon's. *)
let memo_tables =
  [
    "analysis"; "baseline"; "tables"; "serve.analysis"; "serve.baseline";
    "serve.tables"; "serve.results";
  ]

let of_counters ~get ~getf ~base_s =
  let pct name = 100.0 *. Harness.ratio (getf (name ^ ".seconds")) base_s in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 memo_tables in
  let hits = sum (fun t -> get ("memo." ^ t ^ ".hits"))
  and misses = sum (fun t -> get ("memo." ^ t ^ ".misses")) in
  let simulated = get "dse.simulated" and pruned = get "dse.pruned" in
  let fi = float_of_int in
  [
    ("core.phase_sim_pct", pct "phase.sim");
    ("core.phase_verify_pct", pct "phase.verify");
    ("core.phase_analyze_pct", pct "phase.analyze");
    ("core.phase_select_pct", pct "phase.select");
    ("core.sim_calls", fi (get "phase.sim.calls"));
    ("core.verify_calls", fi (get "phase.verify.calls"));
    ("core.memo_hit_ratio", Harness.ratio (fi hits) (fi (hits + misses)));
    ("dse.simulated", fi simulated);
    ("dse.pruned", fi pruned);
    ("dse.prune_ratio", Harness.ratio (fi pruned) (fi (simulated + pruned)));
  ]

(* This process's counters since the last [Metrics.reset]; [base_s] is
   the raw seconds the phase timers are shares of. *)
let local ~base_s =
  of_counters ~get:Harness.Metrics.get ~getf:Harness.Metrics.get_float
    ~base_s

(* The flat text dump [Metrics.pp] prints (the CLI's [T1000_METRICS=1]
   output): "name value" rows for counters and accumulators, and
   "name: count N, sum S, ..., mean M" rows for histograms, whose mean
   is kept under [name ^ ".mean"]. *)
let parse_dump text =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [ name; v ] -> (
             match float_of_string_opt v with
             | Some f -> Hashtbl.replace tbl name f
             | None -> ())
         | name :: "count" :: _ as fields
           when String.ends_with ~suffix:":" name -> (
             let name = String.sub name 0 (String.length name - 1) in
             match List.rev fields with
             | mean :: "mean" :: _ -> (
                 match float_of_string_opt mean with
                 | Some f -> Hashtbl.replace tbl (name ^ ".mean") f
                 | None -> ())
             | _ -> ())
         | _ -> ());
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
