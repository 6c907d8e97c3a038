(* The repository benchmark.  See README.md in this directory.

     t1000_bench.exe once --workload W --seed N --seconds S --trace 0|1
                          [--trace-dir DIR]
     t1000_bench.exe run --runs N --seed S [--workload W]... [--seconds S]
                         [--out FILE] [--trace DIR]
     t1000_bench.exe compare OLD.json NEW.json [--config BENCHMARK.json]
     t1000_bench.exe check-config [BENCHMARK.json]
     t1000_bench.exe print-config
     t1000_bench.exe promote

   Paths are relative to the repository root, where every subcommand
   except compare and check-config must run. *)

open Harness

let usage () =
  prerr_endline
    "usage: t1000_bench.exe (once | run | compare | check-config | \
     print-config | promote) [options]; see bench/suite/README.md";
  exit 2

(* "--key value" options (repeatable) and positional arguments. *)
let parse args =
  let rec go opts pos = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: opts) pos rest
    | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (List.rev opts, List.rev pos)
  in
  go [] [] args

let int_opt opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> usage ())

let all_workloads = List.map (fun (n, _, _) -> n) Catalog.workloads

(* Spawn [once] in a child process and return its result line. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "once" :: args)) in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Json.of_string last with
      | Ok j -> j
      | Error m -> failwith ("unreadable result line: " ^ m))
  | _ -> failwith ("run failed: once " ^ String.concat " " args)

let run opts =
  let runs = int_opt opts "runs" ~default:5 and seed = int_opt opts "seed" ~default:1 in
  let seconds = int_opt opts "seconds" ~default:Config.run_seconds in
  let workloads =
    match List.filter_map (fun (k, v) -> if k = "workload" then Some v else None) opts with
    | [] -> all_workloads
    | ws ->
        List.iter (fun w -> if not (List.mem w all_workloads) then usage ()) ws;
        ws
  in
  let values = Hashtbl.create 64 and counts = Hashtbl.create 8 in
  let record w j =
    let a, f = Option.value ~default:(0, 0) (Hashtbl.find_opt counts w) in
    Hashtbl.replace counts w
      ( a + int_of_float (Results.num (Results.field "attempted" j)),
        f + int_of_float (Results.num (Results.field "failed" j)) )
  in
  (* Runs interleave across workloads, so drift on the machine spreads
     over all of them instead of landing on one. *)
  for r = 0 to runs - 1 do
    List.iter
      (fun w ->
        let j =
          child
            [ "--workload"; w; "--seed"; string_of_int (seed + r);
              "--seconds"; string_of_int seconds; "--trace"; "0" ]
        in
        record w j;
        List.iter
          (fun (m, v) ->
            let k = (w, m) in
            Hashtbl.replace values k
              (Results.num (Results.field "value" v)
              :: Option.value ~default:[] (Hashtbl.find_opt values k)))
          (Results.obj (Results.field "metrics" j));
        Printf.eprintf "run %d/%d %s done\n%!" (r + 1) runs w)
      workloads
  done;
  let layers =
    match List.assoc_opt "trace" opts with
    | None -> []
    | Some dir ->
        List.map
          (fun w ->
            let j =
              child
                [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                  string_of_int seconds; "--trace"; "1"; "--trace-dir";
                  Filename.concat dir w ]
            in
            record w j;
            (w, Results.field "metrics" j))
          workloads
  in
  let failed = ref 0 in
  let per_workload w =
    let a, f = Hashtbl.find counts w in
    failed := !failed + f;
    let metrics =
      List.map
        (fun (e : Catalog.e2e) ->
          let vs = List.rev (Hashtbl.find values (w, e.name)) in
          let q1, med, q3 = quartiles vs in
          Printf.printf "%-8s %-18s %12.6g %-9s [%.6g, %.6g]\n" w e.name med
            e.unit_ q1 q3;
          (e.name, Results.summary e.unit_ vs))
        Catalog.end_to_end
    in
    Printf.printf "%-8s attempted %d, failed %d\n" w a f;
    ( w,
      Json.Obj
        ([
           ("attempted", Json.Num (float_of_int a));
           ("failed", Json.Num (float_of_int f));
           ("metrics", Json.Obj metrics);
         ]
        @ match List.assoc_opt w layers with Some l -> [ ("layers", l) ] | None -> [])
    )
  in
  let result =
    Json.Obj
      [
        ("manifest", Results.manifest ~seed ~runs ~workloads);
        ("workloads", Json.Obj (List.map per_workload workloads));
      ]
  in
  Option.iter
    (fun path -> write_file path (Json.to_string result ^ "\n"))
    (List.assoc_opt "out" opts);
  if !failed > 0 then exit 3

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "once" :: args ->
      let opts, _ = parse args in
      let workload =
        match List.assoc_opt "workload" opts with Some w -> w | None -> usage ()
      in
      let trace =
        match List.assoc_opt "trace" opts with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ()
      in
      (try
         Once.run ~workload ~seed:(int_opt opts "seed" ~default:1)
           ~seconds:(float_of_int (int_opt opts "seconds" ~default:Config.run_seconds))
           ~trace ~trace_dir:(List.assoc_opt "trace-dir" opts)
       with e ->
         Printf.eprintf "t1000_bench: %s: %s\n" workload (Printexc.to_string e);
         exit 1)
  | "run" :: args -> run (fst (parse args))
  | "compare" :: args -> (
      match parse args with
      | opts, [ old_; new_ ] ->
          let config = Option.value ~default:Results.config_file (List.assoc_opt "config" opts) in
          if Results.compare_files ~config old_ new_ then exit 1
      | _ -> usage ())
  | "check-config" :: args -> (
      let file = match args with [ f ] -> f | [] -> Results.config_file | _ -> usage () in
      match Config.check (read_file file) with
      | [] -> Printf.printf "%s: ok\n" file
      | errs ->
          List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) errs;
          exit 1)
  | [ "print-config" ] -> print_string (Config.render ())
  | [ "promote" ] ->
      Kernels.promote ();
      Dse.promote ();
      print_endline "re-recorded bench/suite/expect/{kernels,dse}.txt"
  | _ -> usage ()
