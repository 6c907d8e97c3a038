open T1000_isa
open T1000_asm
open T1000_machine
open T1000_profile
open T1000_select
open T1000_ooo
open T1000_workloads

type method_ =
  | Baseline
  | Greedy
  | Selective

type setup = {
  method_ : method_;
  n_pfus : int option;
  penalty : int;
  replacement : Mconfig.pfu_replacement;
  extract : T1000_dfg.Extract.config;
  gain_threshold : float;
  lut_budget : int;
  ext_timing : [ `Single_cycle | `Lut_levels ];
  config_prefetch : bool;
  machine : Mconfig.t;
  selfcheck : bool;
}

let validate s =
  (match s.n_pfus with
  | Some n when n <= 0 ->
      Fault.invalid_config "n_pfus must be positive (or None for unlimited), got %d" n
  | Some _ | None -> ());
  if s.penalty < 0 then
    Fault.invalid_config "penalty must be non-negative, got %d" s.penalty;
  (* The negated comparison also catches NaN. *)
  if not (s.gain_threshold >= 0.0 && s.gain_threshold <= 1.0) then
    Fault.invalid_config "gain_threshold must be in [0, 1], got %g"
      s.gain_threshold;
  if s.lut_budget <= 0 then
    Fault.invalid_config "lut_budget must be positive, got %d" s.lut_budget;
  try T1000_bpred.Predictor.validate_spec s.machine.Mconfig.bpred
  with Invalid_argument m -> Fault.invalid_config "%s" m

let setup ?(n_pfus = Some 2) ?(penalty = 10)
    ?(bpred = T1000_bpred.Predictor.Perfect) ?(selfcheck = false) method_ =
  let s =
    {
      method_;
      n_pfus;
      penalty;
      replacement = Mconfig.Lru;
      extract = T1000_dfg.Extract.default_config;
      gain_threshold = 0.005;
      lut_budget = T1000_hwcost.Lut.default_budget;
      ext_timing = `Single_cycle;
      config_prefetch = false;
      machine = { Mconfig.default with Mconfig.bpred };
      selfcheck;
    }
  in
  validate s;
  s

type analysis = {
  profile : Profile.t;
  cfg : Cfg.t;
  loops : Loops.t;
  live : Liveness.t;
  reference : string;
}

(* Run [f] with an [~init] that prepares the workload's initial state
   and keeps the memory it is given: after the run, the final state. *)
let with_final_memory (w : Workload.t) f =
  let final = ref None in
  let r = f (fun mem regs -> final := Some mem; w.Workload.init mem regs) in
  (r, Option.get !final)

let analyze ?max_steps (w : Workload.t) =
  T1000_obs.Metrics.time "phase.analyze" @@ fun () ->
  let profile, mem =
    with_final_memory w (fun init ->
        Profile.collect ?max_steps ~init w.Workload.program)
  in
  let cfg = Cfg.of_program w.Workload.program in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  let live = Liveness.compute cfg in
  { profile; cfg; loops; live; reference = Workload.output w mem }

type run = {
  workload : Workload.t;
  used : setup;
  table : Extinstr.t;
  program : Program.t;
  stats : Stats.t;
}

let functional_output (w : Workload.t) table program =
  let mem = Memory.create () in
  let regs = Regfile.create () in
  w.Workload.init mem regs;
  let interp =
    Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program
  in
  let steps = Interp.run interp in
  (steps, Workload.output w mem)

let check_output (w : Workload.t) ~reference got =
  if not (String.equal reference got) then
    raise
      (Fault.Error
         (Fault.Verify_mismatch
            (Printf.sprintf
               "%s: rewritten program diverges from the original"
               w.Workload.name)))

let verify_outputs (w : Workload.t) table rewritten =
  T1000_obs.Metrics.time "phase.verify" @@ fun () ->
  let output table program = snd (functional_output w table program) in
  check_output w
    ~reference:(output Extinstr.empty w.Workload.program)
    (output table rewritten)

let select_table s analysis =
  validate s;
  T1000_obs.Metrics.time "phase.select" @@ fun () ->
  match s.method_ with
  | Baseline -> Extinstr.empty
  | Greedy ->
      let r =
        Greedy.select ~config:s.extract ~lut_budget:s.lut_budget analysis.cfg
          analysis.live analysis.profile
      in
      r.Greedy.table
  | Selective ->
      let params =
        {
          Selective.extract = s.extract;
          gain_threshold = s.gain_threshold;
          lut_budget = s.lut_budget;
        }
      in
      let r =
        Selective.select ~params ~n_pfus:s.n_pfus analysis.cfg analysis.loops
          analysis.live analysis.profile
      in
      r.Selective.table

type prepared = {
  p_workload : Workload.t;
  p_used : setup;
  p_reference : string;
  p_table : Extinstr.t;
  p_program : Program.t;
  p_machine : Mconfig.t;
  p_latency : int array;
}

let prepare ?analysis ?table:given (w : Workload.t) s =
  validate s;
  let analysis = match analysis with Some a -> a | None -> analyze w in
  let table =
    match given with Some t -> t | None -> select_table s analysis
  in
  let program =
    if Extinstr.count table = 0 then w.Workload.program
    else
      try
        (* Optional cfgld hints: one per (loop, configuration) pair, at
           the first slot of the loop header (= the preheader position
           after target remapping). *)
        let prefetch =
          if not s.config_prefetch then []
          else begin
            let loop_arr = Loops.loops analysis.loops in
            List.concat_map
              (fun (e : Extinstr.entry) ->
                List.filter_map
                  (fun (o : T1000_dfg.Extract.occ) ->
                    match
                      Loops.innermost_at_instr analysis.loops
                        o.T1000_dfg.Extract.root
                    with
                    | None -> None
                    | Some li ->
                        let header = loop_arr.(li).Loops.header in
                        Some
                          ( (Cfg.block analysis.cfg header).Cfg.first,
                            e.Extinstr.eid ))
                  e.Extinstr.occs)
              (Extinstr.entries table)
            |> List.sort_uniq compare
          end
        in
        (Rewrite.apply ~prefetch w.Workload.program table).Rewrite.program
      with Invalid_argument m when Option.is_some given ->
        (* A supplied table (a replayed file) may have been mined from
           another workload's program. *)
        Fault.invalid_config
          "the extended-instruction table does not fit %s's program (%s)"
          w.Workload.name m
  in
  let machine =
    match s.method_ with
    | Baseline -> { s.machine with Mconfig.n_pfus = Some 0 }
    | Greedy | Selective ->
        Mconfig.with_pfus ~replacement:s.replacement ~penalty:s.penalty
          s.n_pfus s.machine
  in
  let latency (e : Extinstr.entry) =
    match s.ext_timing with
    | `Single_cycle -> e.Extinstr.latency
    | `Lut_levels -> T1000_hwcost.Lut.latency_estimate e.Extinstr.dfg
  in
  {
    p_workload = w;
    p_used = s;
    p_reference = analysis.reference;
    p_table = table;
    p_program = program;
    p_machine = machine;
    p_latency =
      Array.init (Extinstr.count table) (fun eid ->
          latency (Extinstr.get table eid));
  }

let configurations program =
  let seen = Hashtbl.create 8 in
  Array.iter
    (function
      | Instr.Ext { Instr.eid; _ } | Instr.Cfgld eid ->
          Hashtbl.replace seen eid ()
      | _ -> ())
    (Program.instrs program);
  Hashtbl.length seen

(* A machine that simulates exactly like [m] on a program naming
   [confs] configurations (Pfu_file.create): a PFU file with a unit for
   each never evicts, so its size beyond [confs] and its replacement
   policy do not matter, a file of one unit has one victim whatever
   its policy, and a file never asked does not matter at all. *)
let canonical_machine ~confs (m : Mconfig.t) =
  let unlimited penalty =
    {
      m with
      Mconfig.n_pfus = None;
      pfu_reconfig_cycles = penalty;
      pfu_replacement = Mconfig.Lru;
    }
  in
  if confs = 0 then unlimited 0
  else
    match m.Mconfig.n_pfus with
    | Some n when n < confs ->
        if n = 1 then { m with Mconfig.pfu_replacement = Mconfig.Lru } else m
    | Some _ | None -> unlimited m.Mconfig.pfu_reconfig_cycles

(* Everything [simulate] reads besides the workload, with the machine
   in its canonical form.  [No_sharing] makes the bytes a function of
   the values' structure alone, not of which of their parts happen to
   be physically shared. *)
let inputs_key p =
  let entries =
    List.map
      (fun (e : Extinstr.entry) ->
        (e.Extinstr.dfg, p.p_latency.(e.Extinstr.eid)))
      (Extinstr.entries p.p_table)
  in
  let machine =
    canonical_machine ~confs:(configurations p.p_program) p.p_machine
  in
  Digest.string
    (Marshal.to_string
       (Program.instrs p.p_program, entries, machine, p.p_used.selfcheck)
       [ Marshal.No_sharing ])

let simulate p =
  let w = p.p_workload and s = p.p_used in
  let table = p.p_table and program = p.p_program in
  let stats, mem =
    T1000_obs.Metrics.time "phase.sim" @@ fun () ->
    with_final_memory w (fun init ->
        Sim.run ~mconfig:p.p_machine
          ~ext_latency:(Array.get p.p_latency)
          ~ext_eval:(Extinstr.eval table) ~selfcheck:s.selfcheck ~init program)
  in
  (* The rewriter's safety net.  The simulator never executes
     wrong-path instructions, so its final memory is the committed
     state: its output must be the profiling run's. *)
  if Extinstr.count table > 0 then
    T1000_obs.Metrics.time "phase.verify" (fun () ->
        check_output w ~reference:p.p_reference (Workload.output w mem));
  (* Self-check mode cross-validates the timing simulator's
     architectural results against an independent functional run of the
     same program on the same inputs: the committed-instruction count
     must agree exactly, and the output must match the original's. *)
  if s.selfcheck then begin
    let steps, interp_out = functional_output w table program in
    if steps <> stats.Stats.committed then
      raise
        (Fault.Error
           (Fault.Selfcheck_failed
              (Printf.sprintf
                 "%s: simulator committed %d instructions but the \
                  functional interpreter retired %d"
                 w.Workload.name stats.Stats.committed steps)));
    if not (String.equal interp_out p.p_reference) then
      raise
        (Fault.Error
           (Fault.Selfcheck_failed
              (Printf.sprintf
                 "%s: architectural output diverges from the original \
                  program's under self-check"
                 w.Workload.name)))
  end;
  stats

let with_stats p stats =
  {
    workload = p.p_workload;
    used = p.p_used;
    table = p.p_table;
    program = p.p_program;
    stats;
  }

let run ?analysis ?table w s =
  let p = prepare ?analysis ?table w s in
  with_stats p (simulate p)

let speedup ~baseline r = Stats.speedup ~baseline:baseline.stats r.stats
