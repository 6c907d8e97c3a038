(* Result files: what [run] writes (a manifest plus, per workload, every
   run's end-to-end values with their median and quartiles, and the
   traced run's per-layer values) and how [compare] judges two of them. *)

open Harness

let config_file = "BENCHMARK.json"

let git_rev () =
  match
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] null w null
    in
    Unix.close w;
    let out = In_channel.input_all (Unix.in_channel_of_descr r) in
    Unix.close r;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> String.trim out
    | _ -> "unknown"
  with
  | rev -> rev
  | exception Unix.Unix_error _ -> "unknown"

let manifest ~seed ~runs ~workloads =
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("seed", Json.Num (float_of_int seed));
      ("runs", Json.Num (float_of_int runs));
      ("workloads", Json.List (List.map (fun w -> Json.Str w) workloads));
      ( "config_digest",
        Json.Str
          (if Sys.file_exists config_file then Digest.to_hex (Digest.file config_file)
           else "missing") );
    ]

let summary unit_ values =
  let q1, med, q3 = quartiles values in
  Json.Obj
    [
      ("unit", Json.Str unit_);
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("values", Json.List (List.map (fun v -> Json.Num v) values));
    ]

(* ---- reading ---- *)

let field k j = Option.get (Json.member k j)
let num j = match j with Json.Num f -> f | _ -> nan
let obj j = match j with Json.Obj fs -> fs | _ -> []

let load path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error m -> failwith (path ^ ": " ^ m)

(* Bounds and directions come from the BENCHMARK.json in force. *)
let bounds config =
  List.map
    (fun e ->
      ( (match field "name" e with Json.Str s -> s | _ -> ""),
        (num (field "bound" e), field "better" e = Json.Str "lower") ))
    (match field "end_to_end" (load config) with Json.List l -> l | _ -> [])

type verdict = Better | Worse | Same | Unresolved

let verdict_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* A change is judged only when both sides' spread (quartile distance
   over median) is within the metric's bound; then it is worse past the
   bound, better past the old side's own spread. *)
let judge ~bound ~lower ~old_ ~new_ =
  let m j = num (field "median" j) in
  let spread j = ratio (num (field "q3" j) -. num (field "q1" j)) (Float.abs (m j)) in
  let delta = ratio (m new_ -. m old_) (Float.abs (m old_)) in
  let worse = if lower then delta > 0.0 else delta < 0.0 in
  let v =
    if Float.max (spread old_) (spread new_) > bound then Unresolved
    else if worse && Float.abs delta > bound then Worse
    else if (not worse) && Float.abs delta > spread old_ then Better
    else Same
  in
  (delta, v)

let compare_files ~config old_path new_path =
  let bounds = bounds config in
  let old_w = obj (field "workloads" (load old_path))
  and new_w = obj (field "workloads" (load new_path)) in
  let regress = ref false in
  let q j =
    Printf.sprintf "%.4g [%.4g, %.4g]" (num (field "median" j))
      (num (field "q1" j)) (num (field "q3" j))
  in
  Printf.printf "%-8s %-18s %-28s %-28s %8s  %s\n" "workload" "metric" "old"
    "new" "delta" "verdict";
  List.iter
    (fun (w, nw) ->
      match List.assoc_opt w old_w with
      | None -> Printf.printf "%-8s (not in %s)\n" w old_path
      | Some ow ->
          List.iter
            (fun (name, nm) ->
              match (List.assoc_opt name (obj (field "metrics" ow)), List.assoc_opt name bounds) with
              | Some om, Some (bound, lower) ->
                  let delta, v = judge ~bound ~lower ~old_:om ~new_:nm in
                  if v = Worse then regress := true;
                  Printf.printf "%-8s %-18s %-28s %-28s %+7.2f%%  %s\n" w name
                    (q om) (q nm) (100.0 *. delta) (verdict_string v)
              | _ -> ())
            (obj (field "metrics" nw));
          let fail_rate j = ratio (num (field "failed" j)) (num (field "attempted" j)) in
          if fail_rate nw > fail_rate ow then begin
            regress := true;
            Printf.printf "%-8s failed/attempted rose from %g to %g\n" w
              (fail_rate ow) (fail_rate nw)
          end)
    new_w;
  !regress
