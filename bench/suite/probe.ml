(* The layer probe a traced run makes after its timed region: the same
   procedure on every workload, over the kernels that workload runs, so
   each per-layer number is measured everywhere.  Each kernel is taken
   through the pipeline one public call at a time (analyse, select,
   rewrite, verify, interpret, simulate) with the greedy 2-PFU table,
   the one that exercises the PFU file hardest; then the cache
   hierarchy, the PFU file and the branch predictor are replayed alone
   on the access streams of the kernel's interpreter trace. *)

open Harness
module W = T1000_workloads
module Instr = T1000_isa.Instr
module Interp = T1000_machine.Interp
module Hier = T1000_cache.Hierarchy
module Bp = T1000_bpred.Predictor
module Extinstr = T1000_select.Extinstr

(* Categories every traced run's trace.json must contain. *)
let layer_cats = [ "profile"; "select"; "core"; "machine"; "ooo"; "cache"; "bpred" ]

let fetch = 0 and load = 1 and store = 2

(* Access streams of one functional run: cache accesses in program order
   (an I-fetch per new line, then the data access), the [Conf] stream of
   extended instructions, and every conditional branch's outcome. *)
type streams = {
  mem : int array;  (** [addr * 4 + kind] *)
  confs : int array;
  branches : (int * int * bool) array;  (** slot, target, taken *)
}

let collect (w : W.Workload.t) table program =
  let mem_st = T1000_machine.Memory.create ()
  and regs = T1000_machine.Regfile.create () in
  w.W.Workload.init mem_st regs;
  let it =
    Interp.create ~mem:mem_st ~regs ~ext_eval:(Extinstr.eval table) program
  in
  let mem = ref [] and confs = ref [] and branches = ref [] in
  let line = ref (-1) and pending = ref None in
  let line_bytes = Hier.default_config.Hier.l1i_line in
  let rec go () =
    match Interp.step it with
    | None -> ()
    | Some (e : T1000_machine.Trace.entry) ->
        (match !pending with
        | Some (slot, target) ->
            branches := (slot, target, e.index <> slot + 1) :: !branches;
            pending := None
        | None -> ());
        let addr = T1000_isa.Encoding.address_of_index e.index in
        if addr / line_bytes <> !line then begin
          line := addr / line_bytes;
          mem := ((addr * 4) + fetch) :: !mem
        end;
        (match e.instr with
        | Instr.Load _ -> mem := ((e.mem_addr * 4) + load) :: !mem
        | Instr.Store _ -> mem := ((e.mem_addr * 4) + store) :: !mem
        | Instr.Ext { eid; _ } -> confs := eid :: !confs
        | Instr.Branch (_, _, _, target) -> pending := Some (e.index, target)
        | _ -> ());
        go ()
  in
  go ();
  let arr l = Array.of_list (List.rev l) in
  { mem = arr !mem; confs = arr !confs; branches = arr !branches }

let replay_cache s =
  let h = Hier.create Hier.default_config in
  Array.iter
    (fun a ->
      let addr = a lsr 2 in
      ignore
        (match a land 3 with
        | 0 -> Hier.fetch_latency h ~addr
        | 1 -> Hier.load_latency h ~addr
        | _ -> Hier.store_latency h ~addr))
    s.mem;
  let module C = T1000_cache.Cache in
  ( C.accesses (Hier.l1i h) + C.accesses (Hier.l1d h),
    C.misses (Hier.l1d h),
    C.misses (Hier.l2 h) )

let replay_pfu s =
  let p =
    T1000_ooo.Pfu_file.create ~n:(Some 2) ~penalty:10
      ~replacement:T1000_ooo.Mconfig.Lru
  in
  Array.iteri
    (fun now conf ->
      match T1000_ooo.Pfu_file.request p ~now ~conf with
      | T1000_ooo.Pfu_file.Ready { unit_id; _ } ->
          T1000_ooo.Pfu_file.release p ~unit_id
      | T1000_ooo.Pfu_file.Stall -> ())
    s.confs;
  T1000_ooo.Pfu_file.misses p

let replay_bpred s =
  let p = Bp.create (Bp.Gshare 11) in
  Array.fold_left
    (fun miss (index, target, taken) ->
      let dir = Bp.predict_dir p ~index ~target in
      Bp.train_dir p ~index ~taken;
      if dir <> taken then miss + 1 else miss)
    0 s.branches

(* [Checkpoint.record] rewrites the whole journal, so its mean cost over
   a DSE-sized journal grows with the record count. *)
let journal_records = 1024

let checkpoint dir =
  let j = T1000.Checkpoint.create ~fresh:true ~dir ~run:"probe" () in
  let (), rec_s =
    time (fun () ->
        for i = 0 to journal_records - 1 do
          T1000.Checkpoint.record j
            ~key:(Printf.sprintf "dse/p2.pen%d.lut150.lru.g0.005.w4/unepic" i)
            (1.0 +. (float_of_int i /. 1e4), 100 + i)
        done)
  in
  let _, load_s =
    time (fun () -> T1000.Checkpoint.create ~dir ~run:"probe" ())
  in
  (rec_s *. 1e3 /. float_of_int journal_records, load_s *. 1e3)

let run ~work names =
  let acc = Hashtbl.create 32 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let timed cat key f =
    let r, dt = time (fun () -> span cat key f) in
    add key dt;
    r
  in
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let open T1000 in
      let analysis = timed "profile" "profile.analyze_s" (fun () -> Runner.analyze w) in
      let greedy = Runner.setup ~n_pfus:(Some 2) ~selfcheck:false Runner.Greedy in
      let table =
        timed "select" "select.greedy_s" (fun () -> Runner.select_table greedy analysis)
      in
      ignore
        (timed "select" "select.selective_s" (fun () ->
             Runner.select_table
               (Runner.setup ~n_pfus:(Some 2) ~selfcheck:false Runner.Selective)
               analysis));
      let program =
        timed "select" "select.rewrite_s" (fun () ->
            (T1000_select.Rewrite.apply w.W.Workload.program table).program)
      in
      timed "core" "core.verify_s" (fun () -> Runner.verify_outputs w table program);
      let steps =
        timed "machine" "machine.interp_s" (fun () ->
            let mem = T1000_machine.Memory.create ()
            and regs = T1000_machine.Regfile.create () in
            w.W.Workload.init mem regs;
            Interp.run
              (Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program))
      in
      add "machine.instrs" (float_of_int steps);
      let mconfig =
        T1000_ooo.Mconfig.with_pfus ~penalty:10 (Some 2)
          { T1000_ooo.Mconfig.default with T1000_ooo.Mconfig.bpred = Bp.Gshare 11 }
      in
      let (st : T1000_ooo.Stats.t) =
        timed "ooo" "ooo.sim_s" (fun () ->
            T1000_ooo.Sim.run ~mconfig ~ext_eval:(Extinstr.eval table)
              ~init:w.W.Workload.init program)
      in
      List.iter
        (fun (k, v) -> add k (float_of_int v))
        [
          ("model.cycles", st.cycles);
          ("model.committed", st.committed);
          ("model.pfu_misses", st.pfu_misses);
          ("model.pfu_stalls", st.pfu_stalls);
          ("model.ruu_full_stalls", st.ruu_full_stalls);
          ("model.mispredicts", st.branch_mispredicts);
          ("model.squashed_instrs", st.squashed_instrs);
          ("model.fetch_stall_cycles", st.fetch_stall_cycles);
        ];
      let s = collect w table program in
      let accesses, l1d, l2 = timed "cache" "cache.replay_s" (fun () -> replay_cache s) in
      add "cache.accesses" (float_of_int accesses);
      add "cache.l1d_misses" (float_of_int l1d);
      add "cache.l2_misses" (float_of_int l2);
      let misses = timed "ooo" "ooo.pfu_replay_s" (fun () -> replay_pfu s) in
      add "ooo.pfu_requests" (float_of_int (Array.length s.confs));
      add "ooo.pfu_misses" (float_of_int misses);
      let mp = timed "bpred" "bpred.replay_s" (fun () -> replay_bpred s) in
      add "bpred.branches" (float_of_int (Array.length s.branches));
      add "bpred.mispredicts" (float_of_int mp))
    names;
  let rec_ms, load_ms =
    span "core" "checkpoint" (fun () -> checkpoint (Filename.concat work "probe"))
  in
  let g k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
  let sim = g "ooo.sim_s" and interp = g "machine.interp_s" in
  let instrs = g "machine.instrs" in
  Hashtbl.remove acc "machine.instrs";
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  @ [
      ("machine.interp_minstr_per_s", ratio instrs interp /. 1e6);
      ("ooo.timing_s", sim -. interp);
      ("ooo.ns_per_instr", 1e9 *. ratio sim (g "model.committed"));
      ("ooo.ns_per_cycle", 1e9 *. ratio sim (g "model.cycles"));
      ("model.ipc", ratio (g "model.committed") (g "model.cycles"));
      ("core.checkpoint_record_ms", rec_ms);
      ("core.checkpoint_load_ms", load_ms);
    ]
