module Pool = T1000.Pool
module Fault = T1000.Fault
module Checkpoint = T1000.Checkpoint
module Experiment = T1000.Experiment
module Workload = T1000_workloads.Workload
module Registry = T1000_workloads.Registry

type failure = {
  index : int;
  case_seed : int;
  method_ : string;
  invariant : string;
  detail : string;
  shrunk : Gen.case;
  instrs : int;
  repro_path : string option;
}

type outcome = {
  run_seed : int;
  cases : int;
  failures : failure list;
  elapsed_s : float;
  cases_per_s : float;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "case %d (seed %d): [%s] %s: %s@\n  shrunk to %d instructions%s" f.index
    f.case_seed f.method_ f.invariant f.detail f.instrs
    (match f.repro_path with
    | None -> ""
    | Some p -> Printf.sprintf "\n  reproducer: %s" p)

(* ---- small file helpers (no extra deps) ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = Filename.dir_sep || Sys.file_exists dir
  then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

(* ---- reproducer artifacts ---- *)

let write_repro ~out_dir ~run_seed ~index ~case_seed ~(failure : Oracle.failure)
    shrunk =
  mkdir_p out_dir;
  let path =
    Filename.concat out_dir
      (Printf.sprintf "seed%d.case%d.repro" run_seed index)
  in
  let prog = Gen.program shrunk in
  let b = Buffer.create 1024 in
  Printf.bprintf b "t1000 fuzz reproducer\n";
  Printf.bprintf b "run seed: %d, case index: %d, case seed: %d\n" run_seed
    index case_seed;
  Printf.bprintf b "failure: %s\n"
    (Format.asprintf "%a" Oracle.pp_failure failure);
  Printf.bprintf b "instructions: %d\n" (T1000_asm.Program.length prog);
  Printf.bprintf b
    "reproduce: dune exec bin/t1000_cli.exe -- fuzz --seed %d --cases %d\n"
    run_seed (index + 1);
  Printf.bprintf b "\n--- shrunk spec ---\n%s\n"
    (Format.asprintf "%a" Gen.pp_case shrunk);
  Printf.bprintf b "\n--- shrunk program ---\n%s"
    (T1000_asm.Asm_text.to_string prog);
  write_file path (Buffer.contents b);
  path

(* ---- the fuzz sweep ---- *)

let run_cases ?(out_dir = "_fuzz") ?njobs ~seed ~cases () =
  let t0 = Unix.gettimeofday () in
  let checked =
    Pool.parallel_map_result ?njobs
      (fun i ->
        let cs = Rng.derive seed i in
        (i, cs, Oracle.check (Gen.generate ~seed:cs)))
      (List.init cases Fun.id)
    (* [Oracle.check] turns every exception into an [Error], so a fault
       here is a T1000_CHAOS injection that outlived its retries; the
       lowest-index one is raised, as [Experiment.strict] does. *)
    |> List.map (function Ok c -> c | Error f -> raise (Fault.Error f))
  in
  let failures =
    List.filter_map
      (function
        | _, _, Ok () -> None
        | i, cs, Error (_ : Oracle.failure) ->
            let c = Gen.generate ~seed:cs in
            let still_fails c = Result.is_error (Oracle.check c) in
            let shrunk = Shrink.shrink ~still_fails c in
            (* re-run the oracle on the minimal case so the artifact
               reports the failure it actually exhibits *)
            let f =
              match Oracle.check shrunk with
              | Error f -> f
              | Ok () ->
                  { Oracle.method_ = "shrink"; invariant = "unstable";
                    detail = "shrunk case stopped failing" }
            in
            let path =
              write_repro ~out_dir ~run_seed:seed ~index:i ~case_seed:cs
                ~failure:f shrunk
            in
            Some
              {
                index = i;
                case_seed = cs;
                method_ = f.Oracle.method_;
                invariant = f.Oracle.invariant;
                detail = f.Oracle.detail;
                shrunk;
                instrs = Gen.instr_count shrunk;
                repro_path = Some path;
              })
      checked
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  {
    run_seed = seed;
    cases;
    failures;
    elapsed_s;
    cases_per_s = Float.of_int cases /. Float.max 1e-9 elapsed_s;
  }

(* ---- checkpoint corruption drills ---- *)

let drill ~dir rng round =
  let errors = ref [] in
  let err fmt =
    Format.kasprintf
      (fun m -> errors := Printf.sprintf "drill %d: %s" round m :: !errors)
      fmt
  in
  let run = Printf.sprintf "drill%d_%d" (Unix.getpid ()) round in
  let j = Checkpoint.create ~fresh:true ~dir ~run () in
  let k = Rng.range rng 3 10 in
  let keys = List.init k (fun i -> Printf.sprintf "k%02d" i) in
  let vals = List.map (fun _ -> Rng.float rng) keys in
  List.iter2 (fun key v -> Checkpoint.record j ~key v) keys vals;
  let path = Checkpoint.path j in
  let reload () = Checkpoint.create ~dir ~run () in
  (* The journal appends records in the order they are recorded, k00
     to k09, so line [i] of the file is exactly [List.nth keys i]. *)
  let line_bounds s =
    (* offsets of (start, length) of each newline-terminated line *)
    let rec go off acc =
      match String.index_from_opt s off '\n' with
      | None -> List.rev acc
      | Some nl -> go (nl + 1) ((off, nl - off) :: acc)
    in
    go 0 []
  in
  (* Truncate inside the final record, as a crash mid-append would,
     keeping at most the file's first [len - keep] bytes. *)
  let tear ~keep =
    let s = read_file path in
    let len = String.length s in
    let body = String.sub s 0 (len - 1) in
    let idx =
      match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0
    in
    write_file path (String.sub s 0 (Rng.range rng (idx + 1) (len - keep)))
  in
  let last = List.nth keys (k - 1) in
  let damaged, expect_corrupt =
    match Rng.int rng 5 with
    | 0 ->
        tear ~keep:2;
        ([ last ], 1)
    | 1 ->
        (* flip a low bit of one byte inside a random record: whether it
           lands in the magic, the digest, the hex key or the payload,
           the checksum (or the line shape) must reject the record *)
        let s = read_file path in
        let li = Rng.int rng k in
        let off, len = List.nth (line_bounds s) li in
        let pos = off + Rng.int rng len in
        let b = Bytes.of_string s in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Rng.range rng 0 2)));
        write_file path (Bytes.to_string b);
        ([ List.nth keys li ], 1)
    | 2 ->
        (* duplicate key: a stale record appended after the current one
           must lose... i.e. the *appended* (last) record must win.  We
           append the original record after overwriting the key, so the
           load must come back to the original value. *)
        let s = read_file path in
        let li = Rng.int rng k in
        let off, len = List.nth (line_bounds s) li in
        let old_line = String.sub s off len in
        let key = List.nth keys li in
        Checkpoint.record j ~key (Rng.float rng);
        let s2 = read_file path in
        write_file path (s2 ^ old_line ^ "\n");
        ([], 0)
    | 3 ->
        (* blank lines are tolerated; a garbage line is one corrupt
           record and nothing else *)
        let s = read_file path in
        write_file path (s ^ "\n\nthis is not a journal record\n");
        ([], 1)
    | _ ->
        (* torn append, down to a last record that lost only its
           newline: the reload compacts the tail away, so the record
           that follows appends a whole line instead of gluing onto
           the torn one *)
        tear ~keep:1;
        Checkpoint.record (reload ()) ~key:last (List.nth vals (k - 1));
        ([], 0)
  in
  let j2 = reload () in
  let n_corrupt = List.length (Checkpoint.corrupt j2) in
  if n_corrupt <> expect_corrupt then
    err "expected exactly %d corrupt record(s), got %d (%s)" expect_corrupt
      n_corrupt
      (String.concat "; " (Checkpoint.corrupt j2));
  if Checkpoint.completed j2 <> k - List.length damaged then
    err "expected %d surviving record(s), got %d" (k - List.length damaged)
      (Checkpoint.completed j2);
  List.iter2
    (fun key v ->
      if List.mem key damaged then begin
        match Checkpoint.find j2 ~key with
        | (Some _ : float option) -> err "damaged key %s survived the load" key
        | None -> ()
      end
      else
        match (Checkpoint.find j2 ~key : float option) with
        | Some v' when v' = v -> ()
        | Some _ -> err "healthy key %s came back with a different value" key
        | None -> err "healthy key %s was lost" key)
    keys vals;
  (* a resumed sweep recomputes exactly the damaged records; the reload
     that dropped them compacted the journal, so the re-records append
     cleanly and a further reload must be pristine *)
  if damaged <> [] then begin
    List.iter2
      (fun key v -> if List.mem key damaged then Checkpoint.record j2 ~key v)
      keys vals;
    let j3 = reload () in
    if Checkpoint.corrupt j3 <> [] then
      err "journal still corrupt after recomputing damaged records";
    List.iter2
      (fun key v ->
        match (Checkpoint.find j3 ~key : float option) with
        | Some v' when v' = v -> ()
        | _ -> err "key %s wrong after heal" key)
      keys vals
  end;
  (try Sys.remove path with Sys_error _ -> ());
  List.rev !errors

let corruption_drills ?dir ~seed ~rounds () =
  let dir =
    match dir with Some d -> d | None -> Filename.get_temp_dir_name ()
  in
  List.concat
    (List.init rounds (fun r ->
         drill ~dir (Rng.create (Rng.derive seed r)) r))

(* ---- chaos soak ---- *)

let soak_names = [ "unepic"; "g721_dec" ]

let chaos_soak ?(p = 0.2) ~seed () =
  let suite =
    List.filter (fun w -> List.mem w.Workload.name soak_names) Registry.all
  in
  if List.length suite <> List.length soak_names then
    Error "soak suite workloads missing from the registry"
  else
    let sweep () =
      let ctx = Experiment.create_ctx ~workloads:suite () in
      Experiment.penalty_sweep_result ~penalties:[ 10; 100 ] ctx
    in
    let calm = with_env "T1000_CHAOS" "" sweep in
    if calm.Experiment.faults <> [] then
      Error "calm reference run faulted; nothing to compare against"
    else
      let stormy =
        with_env "T1000_CHAOS" (Printf.sprintf "%g" p) (fun () ->
            with_env "T1000_CHAOS_SEED" (string_of_int seed) sweep)
      in
      if stormy.Experiment.faults <> [] then
        Error
          (Printf.sprintf
             "chaos run lost %d point(s) despite retries (T1000_CHAOS=%g)"
             (List.length stormy.Experiment.faults)
             p)
      else if stormy.Experiment.rows <> calm.Experiment.rows then
        Error "chaos run rows diverge from the calm run"
      else Ok ()
