let all =
  [
    Unepic.workload;
    Epic.workload;
    Gsm_dec.workload;
    Gsm_enc.workload;
    G721_dec.workload;
    G721_enc.workload;
    Mpeg2_dec.workload;
    Mpeg2_enc.workload;
  ]

let find name =
  List.find_opt (fun w -> String.equal w.Workload.name name) all

let names = List.map (fun w -> w.Workload.name) all

let of_spec spec =
  let requested =
    Option.value ~default:"" spec
    |> String.split_on_char ','
    |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  match List.find_opt (fun n -> find n = None) requested with
  | Some n ->
      Error
        (Printf.sprintf "unknown workload %S in T1000_WORKLOADS (known: %s)" n
           (String.concat ", " names))
  | None when requested = [] -> Ok all
  | None -> Ok (List.filter_map find requested)

let of_env () = of_spec (Sys.getenv_opt "T1000_WORKLOADS")
