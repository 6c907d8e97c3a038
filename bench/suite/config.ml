(* BENCHMARK.json: rendering it from the catalogue ([print-config]) and
   checking a file against both the benchmark-description rules and the
   catalogue ([check-config]).  Runs no simulation. *)

module Json = Harness.Json

let command =
  [
    "dune"; "exec"; "--root"; "."; "--display"; "quiet"; "--";
    "bench/suite/t1000_bench.exe"; "once";
  ]

let paths = [ "bench/suite" ]
let run_seconds = 20

let to_json () =
  let str s = Json.Str s and num f = Json.Num f in
  Json.Obj
    [
      ("command", Json.List (List.map str command));
      ("paths", Json.List (List.map str paths));
      ("run_seconds", num (float_of_int run_seconds));
      ( "workloads",
        Json.List
          (List.map
             (fun (name, _, why) -> Json.Obj [ ("name", str name); ("why", str why) ])
             Catalog.workloads) );
      ( "end_to_end",
        Json.List
          (List.map
             (fun (e : Catalog.e2e) ->
               Json.Obj
                 [
                   ("name", str e.name);
                   ("unit", str e.unit_);
                   ("better", str (Catalog.better_string e.better));
                   ("bound", num e.bound);
                 ])
             Catalog.end_to_end) );
      ( "per_layer",
        Json.List
          (List.map
             (fun (x : Catalog.layer) ->
               Json.Obj
                 [
                   ("name", str x.lname);
                   ("unit", str x.lunit);
                   ("better", str (Catalog.better_string x.lbetter));
                 ])
             Catalog.per_layer) );
    ]

(* One object per line inside each list, so the file diffs well. *)
let render () =
  match to_json () with
  | Json.Obj fields ->
      let field (k, v) =
        Printf.sprintf "  %S: %s" k
          (match v with
          | Json.List items ->
              "[\n"
              ^ String.concat ",\n"
                  (List.map (fun i -> "    " ^ Json.to_string i) items)
              ^ "\n  ]"
          | v -> Json.to_string v)
      in
      "{\n" ^ String.concat ",\n" (List.map field fields) ^ "\n}\n"
  | _ -> assert false

(* ---- checking ---- *)

let charset ok s = String.for_all ok s

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && charset (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && charset
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       s

let valid_path s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && (not (List.mem ".." (String.split_on_char '/' s)))
  && charset (fun c -> is_alnum c || String.contains "_.-/" c) s

let check text =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if String.length text > 65536 then err "file is larger than 64 KiB";
  (match Json.of_string text with
  | Error m -> err "not JSON: %s" m
  | Ok (Json.Obj fields as j) ->
      let keys = List.map fst fields in
      let expected_keys =
        [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      in
      if List.sort compare keys <> List.sort compare expected_keys then
        err "top-level keys must be exactly %s" (String.concat ", " expected_keys);
      let list k =
        match Json.member k j with Some (Json.List l) -> l | _ -> []
      in
      let strs k =
        List.filter_map (function Json.Str s -> Some s | _ -> None) (list k)
      in
      let objs k keys =
        List.filter_map
          (fun o ->
            match o with
            | Json.Obj fs when List.sort compare (List.map fst fs) = List.sort compare keys ->
                Some (fun f -> List.assoc f fs)
            | _ ->
                err "%s: every entry must have exactly the keys %s" k
                  (String.concat ", " keys);
                None)
          (list k)
      in
      let str = function Json.Str s -> s | _ -> "" in
      let cmd = strs "command" in
      if cmd = [] || List.length cmd > 32 || List.length cmd <> List.length (list "command")
      then err "command: 1 to 32 strings";
      List.iter
        (fun s ->
          if String.length s > 200 then err "command: %S is too long" s;
          if s <> "" && s.[0] = '/' then err "command: absolute path %S" s)
        cmd;
      let ps = strs "paths" in
      if ps = [] || List.length ps > 16 then err "paths: 1 to 16 directories";
      List.iter (fun p -> if not (valid_path p) then err "paths: bad path %S" p) ps;
      (match Json.member "run_seconds" j with
      | Some (Json.Num f) when Float.is_integer f && f >= 1.0 && f <= 60.0 -> ()
      | _ -> err "run_seconds: a whole number from 1 to 60");
      let names = ref [] in
      let name k n =
        if not (valid_name n) then err "%s: bad name %S" k n;
        if List.mem n !names then err "%s: name %S used twice" k n;
        names := n :: !names
      in
      let ws = objs "workloads" [ "name"; "why" ] in
      if List.length ws < 2 || List.length ws > 8 then err "workloads: 2 to 8";
      List.iter
        (fun f ->
          name "workloads" (str (f "name"));
          let why = str (f "why") in
          if why = "" || String.length why > 200 || String.contains why '\n' then
            err "workloads: %S needs a one-line why of at most 200 characters"
              (str (f "name")))
        ws;
      let e2e = objs "end_to_end" [ "name"; "unit"; "better"; "bound" ] in
      if e2e = [] || List.length e2e > 16 then err "end_to_end: 1 to 16 metrics";
      let dir k f =
        match str (f "better") with
        | "lower" | "higher" -> ()
        | _ -> err "%s: %S: better must be lower or higher" k (str (f "name"))
      in
      List.iter
        (fun f ->
          name "end_to_end" (str (f "name"));
          if not (valid_unit (str (f "unit"))) then
            err "end_to_end: bad unit for %S" (str (f "name"));
          dir "end_to_end" f;
          match f "bound" with
          | Json.Num b when b > 0.0 && b <= 0.25 -> ()
          | _ -> err "end_to_end: %S: bound must be in (0, 0.25]" (str (f "name")))
        e2e;
      if
        not
          (List.exists
             (fun f ->
               str (f "name") = "setup_s" && str (f "unit") = "s"
               && str (f "better") = "lower")
             e2e)
      then err "end_to_end: setup_s (s, lower) is required";
      let pl = objs "per_layer" [ "name"; "unit"; "better" ] in
      if pl = [] || List.length pl > 128 then err "per_layer: 1 to 128 metrics";
      List.iter
        (fun f ->
          name "per_layer" (str (f "name"));
          if not (valid_unit (str (f "unit"))) then
            err "per_layer: bad unit for %S" (str (f "name"));
          dir "per_layer" f)
        pl;
      (* The file must describe what the harness actually reports. *)
      if Json.to_string j <> Json.to_string (to_json ()) then
        err "does not match the harness catalogue (regenerate with print-config)"
  | Ok _ -> err "top level must be an object");
  (* Every predicted effect names a real metric and workload. *)
  let wnames = List.map (fun (n, _, _) -> n) Catalog.workloads in
  List.iter
    (fun (x : Catalog.layer) ->
      List.iter
        (fun (m, ws) ->
          if not (List.exists (fun (e : Catalog.e2e) -> e.name = m) Catalog.end_to_end)
          then err "%s moves unknown metric %s" x.lname m;
          List.iter
            (fun w ->
              if not (List.mem w wnames) then
                err "%s moves %s on unknown workload %s" x.lname m w)
            ws)
        x.moves)
    Catalog.per_layer;
  List.rev !errors
