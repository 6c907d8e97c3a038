(* Golden-artifact regression suite: the rendered text of every paper
   figure/table and DESIGN.md ablation, snapshotted under test/golden/
   and byte-diffed on every `dune runtest`.  The renderings come from
   Report's artifact table, the one `t1000_cli experiment ID` prints
   (its stdout is test/golden/ID.txt plus a newline); the DSE frontier
   is the one entry local to this file.

   The experiment engine is deterministic, so any diff is a real
   behavior change — either a bug or an intentional model change.  To
   re-record after an intentional change:

     make golden        # = T1000_PROMOTE=1 dune exec test/test_golden.exe

   The snapshots are taken on a fixed two-workload suite (unepic +
   g721_dec, one EPIC-family and one telecom benchmark) so the suite
   stays fast and hermetic: T1000_WORKLOADS is deliberately ignored
   here, a subset run must not silently re-golden the repo. *)

open T1000

let golden_dir =
  match Sys.getenv_opt "T1000_GOLDEN_DIR" with
  | Some d when String.trim d <> "" -> d
  | Some _ | None -> "golden"

let promote () =
  match Sys.getenv_opt "T1000_PROMOTE" with
  | Some "1" -> true
  | Some _ | None -> false

let ctx =
  lazy
    (match T1000_workloads.Registry.of_spec (Some "unepic,g721_dec") with
    | Ok workloads -> Experiment.create_ctx ~workloads ()
    | Error e -> Alcotest.fail e)

(* A faulted point withholds its workload's row, so a rendering with
   faults is never a golden one. *)
let render id c =
  match Option.get (Report.render c id) with
  | text, [] -> text
  | _, faults -> Alcotest.failf "%s faulted:@\n%a" id Report.pp_faults faults

let artifacts : (string * (Experiment.ctx -> string)) list =
  List.map (fun id -> (id, render id)) Report.artifact_ids
  @ [
      ( "dse",
        fun c ->
          Format.asprintf "%a" T1000_dse.Engine.pp_frontier
            (T1000_dse.Engine.explore ~budget:12 c
               (match
                  T1000_dse.Space.of_spec
                    "pfus=1,2,4:penalty=0,100,500:lut=150:repl=lru:gain=0.005:width=4"
                with
               | Ok s -> s
               | Error e -> Alcotest.failf "golden dse space: %s" e)) );
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* First line where the two renderings part ways, for a readable
   failure without shipping a diff implementation. *)
let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end of golden file>")
    | [], y :: _ -> Some (i, "<end of output>", y)
    | x :: ta, y :: tb ->
        if String.equal x y then go (i + 1) ta tb else Some (i, x, y)
  in
  go 1 la lb

let check name render () =
  let got = render (Lazy.force ctx) in
  let path = Filename.concat golden_dir (name ^ ".txt") in
  if promote () then begin
    write_file path got;
    Format.printf "promoted %s@." path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "no golden file %s — record it with `make golden` (T1000_PROMOTE=1)"
      path
  else
    let want = read_file path in
    if not (String.equal got want) then
      match first_divergence got want with
      | Some (line, g, w) ->
          Alcotest.failf
            "%s drifted from %s at line %d:@\n\
            \  output: %s@\n\
            \  golden: %s@\n\
             re-record intentional changes with `make golden`"
            name path line g w
      | None -> Alcotest.failf "%s differs from %s (whitespace only?)" name path

let () =
  Alcotest.run "golden"
    [
      ( "artifacts",
        List.map
          (fun (name, render) ->
            Alcotest.test_case name `Slow (check name render))
          artifacts );
    ]
