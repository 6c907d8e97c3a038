(* kernels: the dense simulator hot loop.  All eight registry kernels x
   {baseline, greedy 2-PFU, selective 2-PFU} at penalty 10 x {perfect,
   bimodal@11, gshare@11} front ends, each a direct [Sim.run] on a
   program rewritten during set-up: no Runner, no verify, no memo.  The
   seed only shuffles the order of the 72 simulations. *)

open Harness
module W = T1000_workloads
module Mconfig = T1000_ooo.Mconfig
module Bp = T1000_bpred.Predictor
module Extinstr = T1000_select.Extinstr

let expect_file = "bench/suite/expect/kernels.txt"

type config = {
  key : string;  (** kernel/setup/predictor *)
  program : T1000_asm.Program.t;
  table : Extinstr.t;
  mconfig : Mconfig.t;
  init : T1000_machine.Memory.t -> T1000_machine.Regfile.t -> unit;
}

let predictors = [ Bp.Perfect; Bp.Bimodal 11; Bp.Gshare 11 ]

(* The 72 configurations in canonical (registry x setup x predictor)
   order; analysis, selection and rewriting happen here. *)
let matrix () =
  List.concat_map
    (fun (w : W.Workload.t) ->
      let analysis = T1000.Runner.analyze w in
      let rewritten method_ =
        let table =
          T1000.Runner.select_table
            (T1000.Runner.setup ~n_pfus:(Some 2) ~selfcheck:false method_)
            analysis
        in
        (table, (T1000_select.Rewrite.apply w.W.Workload.program table).program)
      in
      let setups =
        [
          ("baseline", (Extinstr.empty, w.W.Workload.program), Some 0);
          ("greedy2", rewritten T1000.Runner.Greedy, Some 2);
          ("selective2", rewritten T1000.Runner.Selective, Some 2);
        ]
      in
      List.concat_map
        (fun (label, (table, program), pfus) ->
          List.map
            (fun bp ->
              let m = { Mconfig.default with Mconfig.bpred = bp } in
              {
                key =
                  String.concat "/"
                    [ w.W.Workload.name; label; Bp.spec_to_string bp ];
                program;
                table;
                mconfig = Mconfig.with_pfus ~penalty:10 pfus m;
                init = w.W.Workload.init;
              })
            predictors)
        setups)
    W.Registry.all

let simulate c =
  T1000_ooo.Sim.run ~mconfig:c.mconfig
    ~ext_latency:(fun eid -> (Extinstr.get c.table eid).Extinstr.latency)
    ~ext_eval:(Extinstr.eval c.table) ~init:c.init c.program

(* The simulated statistics a host-speed change must leave identical. *)
let stats_line key (s : T1000_ooo.Stats.t) =
  Printf.sprintf
    "%s cycles=%d committed=%d ext=%d pfu_misses=%d pfu_stalls=%d \
     ruu_full=%d mispredicts=%d squashed=%d fetch_stalls=%d"
    key s.cycles s.committed s.ext_committed s.pfu_misses s.pfu_stalls
    s.ruu_full_stalls s.branch_mispredicts s.squashed_instrs
    s.fetch_stall_cycles

let promote () =
  let lines = List.map (fun c -> stats_line c.key (simulate c)) (matrix ()) in
  write_file expect_file (String.concat "\n" lines ^ "\n")

let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.sort compare |> List.map snd

let measure env =
  let expected = Hashtbl.create 128 in
  String.split_on_char '\n' (read_file expect_file)
  |> List.iter (fun l ->
         match String.index_opt l ' ' with
         | Some i -> Hashtbl.replace expected (String.sub l 0 i) l
         | None -> ());
  let first, setup_s = setups ~k:5 (fun () -> shuffle env.seed (matrix ())) in
  let attempted = ref 0 and failed = ref 0 and committed = ref 0 in
  let ops = ref [] in
  Metrics.reset ();
  let pass configs =
    List.iter
      (fun c ->
        let s, dt = time (fun () -> span "ooo" c.key (fun () -> simulate c)) in
        incr attempted;
        committed := !committed + s.T1000_ooo.Stats.committed;
        ops := (dt *. 1e3) :: !ops;
        if Hashtbl.find_opt expected c.key <> Some (stats_line c.key s) then begin
          incr failed;
          Printf.eprintf "kernels: %s does not match %s\n%!" c.key expect_file
        end)
      configs
  in
  let pass_s, raw_s =
    passes ~seconds:env.seconds ~first
      ~prepare:(fun () -> shuffle (env.seed + 1) first)
      pass
  in
  let timed_s = sum pass_s in
  {
    attempted = !attempted;
    failed = !failed;
    setup_s;
    pass_s;
    ops = List.length !ops;
    op_ms = !ops;
    timed_s;
    committed = !committed;
    rss_mb = peak_rss_mb None;
    layers = Obs_layers.local ~base_s:raw_s;
    probe_kernels = W.Registry.names;
  }
