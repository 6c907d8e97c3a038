module Runner = T1000.Runner
module Fault = T1000.Fault
module Extinstr = T1000_select.Extinstr
module Interp = T1000_machine.Interp
module Memory = T1000_machine.Memory
module Regfile = T1000_machine.Regfile
module Workload = T1000_workloads.Workload
module Stats = T1000_ooo.Stats
module Mconfig = T1000_ooo.Mconfig
module Bp = T1000_bpred.Predictor
module Profile = T1000_profile.Profile
module Bitwidth = T1000_profile.Bitwidth
module Word = T1000_isa.Word
module Instr = T1000_isa.Instr
module Program = T1000_asm.Program

type failure = { method_ : string; invariant : string; detail : string }

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.method_ f.invariant f.detail

(* The deliberately broken oracle for acceptance testing: pretend the
   cycle-gain model over-counts commits by one whenever an extended
   instruction retired.  Armed only via T1000_FAULT_INJECT=fuzz-oracle. *)
let bug_armed () =
  match Sys.getenv_opt "T1000_FAULT_INJECT" with
  | Some "fuzz-oracle" -> true
  | _ -> false

(* Retired instruction count and observable output of [program] on the
   workload's initial state, straight from the functional interpreter. *)
let interp_run (w : Workload.t) table program =
  let mem = Memory.create () in
  let regs = Regfile.create () in
  w.Workload.init mem regs;
  let it = Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program in
  let steps = Interp.run ~max_steps:50_000_000 it in
  (steps, Workload.output w mem)

(* The profile the profiler must produce for [w], folded the plain way:
   each step adds its slot's latency to the weight and maxes the slot's
   widths with [Word.width_signed] of its values. *)
let profile_widths (w : Workload.t) profile =
  let program = w.Workload.program in
  let n = Program.length program in
  let counts = Array.make n 0 in
  let res = Array.make n 0 and opd = Array.make n 0 in
  let weight = ref 0 in
  let mem = Memory.create () in
  let regs = Regfile.create () in
  w.Workload.init mem regs;
  let it = Interp.create ~mem ~regs program in
  let code = Interp.code it in
  Interp.set_observer it (fun i src1 src2 result ->
      counts.(i) <- counts.(i) + 1;
      weight := !weight + Instr.latency code.(i);
      res.(i) <- max res.(i) (Word.width_signed result);
      opd.(i) <-
        max opd.(i) (max (Word.width_signed src1) (Word.width_signed src2)));
  let steps = Interp.run ~max_steps:50_000_000 it in
  let bw = Profile.bitwidth profile in
  let slot i =
    let executed = counts.(i) > 0 in
    let width a = if executed then a.(i) else 32 in
    let expect name want got =
      if want = got then None
      else Some (Printf.sprintf "slot %d: %s %d, reference %d" i name got want)
    in
    List.find_map Fun.id
      [
        expect "count" counts.(i) (Profile.count profile i);
        expect "executed" (Bool.to_int executed)
          (Bool.to_int (Bitwidth.executed bw i));
        expect "result width" (width res) (Bitwidth.result_width bw i);
        expect "operand width" (width opd) (Bitwidth.operand_width bw i);
        expect "instr width"
          (max (width res) (width opd))
          (Bitwidth.instr_width bw i);
      ]
  in
  if Profile.total_instrs profile <> steps then
    Error
      (Printf.sprintf "%d instructions, reference %d"
         (Profile.total_instrs profile) steps)
  else if Profile.total_weight profile <> !weight then
    Error
      (Printf.sprintf "weight %d, reference %d" (Profile.total_weight profile)
         !weight)
  else
    match List.find_map slot (List.init n Fun.id) with
    | None -> Ok ()
    | Some d -> Error d

(* The front end squashes once per misprediction, and the always-right
   [Perfect] predictor never mispredicts nor fetches down a wrong
   path. *)
let front_end method_ (r : Runner.run) =
  let s = r.Runner.stats in
  let violation fmt =
    Format.kasprintf
      (fun detail -> Error { method_; invariant = "front-end"; detail })
      fmt
  in
  if s.Stats.squashes <> s.Stats.branch_mispredicts then
    violation "%d squashes for %d mispredictions" s.Stats.squashes
      s.Stats.branch_mispredicts
  else if
    Bp.is_perfect r.Runner.used.Runner.machine.Mconfig.bpred
    && (s.Stats.branch_mispredicts <> 0
       || s.Stats.wrong_path_fetched <> 0
       || s.Stats.squashed_instrs <> 0)
  then
    violation
      "perfect predictor: %d mispredictions, %d wrong-path fetched, %d \
       squashed"
      s.Stats.branch_mispredicts s.Stats.wrong_path_fetched
      s.Stats.squashed_instrs
  else Ok ()

let ( let* ) = Result.bind

let check (c : Gen.case) : (unit, failure) result =
  let fail method_ invariant fmt =
    Format.kasprintf
      (fun detail -> Error { method_; invariant; detail })
      fmt
  in
  try
    let w = Gen.workload c in
    let analysis = Runner.analyze w in
    let steps0, out0 = interp_run w Extinstr.empty w.Workload.program in
    (* [Runner.run] checks every rewritten program against the output
       the profiling run captured, so that capture must be the
       original program's output. *)
    let* () =
      if String.equal analysis.Runner.reference out0 then Ok ()
      else
        fail "analysis" "reference"
          "profiling run captured an output that differs from the \
           interpreter's"
    in
    let* () =
      Result.map_error
        (fun detail ->
          { method_ = "analysis"; invariant = "profile-widths"; detail })
        (profile_widths w analysis.Runner.profile)
    in
    let baseline =
      Runner.run ~analysis w (Runner.setup ~selfcheck:true Runner.Baseline)
    in
    if baseline.Runner.stats.Stats.committed <> steps0 then
      fail "baseline" "commit-trace"
        "simulator committed %d instructions but the interpreter retired %d"
        baseline.Runner.stats.Stats.committed steps0
    else
      let* () = front_end "baseline" baseline in
      let check_one name method_ =
        let setup = Gen.setup ~method_ c in
        let r = Runner.run ~analysis w setup in
        let steps1, out1 = interp_run w r.Runner.table r.Runner.program in
        if not (String.equal out0 out1) then
          fail name "state-divergence"
            "architectural output of the rewritten program diverges from \
             the original"
        else if steps1 > steps0 then
          fail name "instruction-count"
            "rewritten program retires %d instructions, original only %d"
            steps1 steps0
        else
          let committed =
            r.Runner.stats.Stats.committed
            + (if bug_armed () && r.Runner.stats.Stats.ext_committed > 0 then 1
               else 0)
          in
          if committed <> steps1 then
            fail name "commit-trace"
              "simulator committed %d instructions but the interpreter \
               retired %d"
              committed steps1
          else
            let* () = front_end name r in
            (* [Gen.setup] turns self-check on, which executes every
               cycle and audits each span the dead-cycle skip would
               elide; the skipping run must agree on every statistic. *)
            let skipping =
              Runner.run ~analysis ~table:r.Runner.table w
                { setup with Runner.selfcheck = false }
            in
            let* () =
              if skipping.Runner.stats = r.Runner.stats then Ok ()
              else
                fail name "skip"
                  "statistics differ with dead-cycle skipping on (%d \
                   cycles) and off (%d cycles)"
                  skipping.Runner.stats.Stats.cycles
                  r.Runner.stats.Stats.cycles
            in
            (* A PFU file with a unit per configuration never evicts,
               so it must simulate like the unlimited file under any
               replacement policy, and a one-unit file like itself
               under any policy: what lets the run memo key them alike
               (Runner.inputs_key). *)
            let* () =
              let confs = Runner.configurations r.Runner.program in
              if confs = 0 then Ok ()
              else
                let rerun n_pfus replacement =
                  (Runner.run ~analysis ~table:r.Runner.table w
                     {
                       setup with
                       Runner.n_pfus;
                       replacement;
                       selfcheck = false;
                     })
                    .Runner.stats
                in
                let other =
                  match setup.Runner.replacement with
                  | Mconfig.Lru -> Mconfig.Fifo
                  | Mconfig.Fifo -> Mconfig.Random_det
                  | Mconfig.Random_det -> Mconfig.Lru
                in
                let unlimited = rerun None setup.Runner.replacement
                and full = rerun (Some confs) other in
                if unlimited <> full then
                  fail name "pfu-equivalence"
                    "statistics differ between %d PFUs for %d \
                     configurations (%d cycles) and unlimited PFUs (%d \
                     cycles)"
                    confs confs full.Stats.cycles unlimited.Stats.cycles
                else if confs = 1 then Ok ()
                else
                  (* One unit is the only victim under every policy. *)
                  let lru = rerun (Some 1) Mconfig.Lru in
                  match
                    List.find_opt
                      (fun (_, s) -> s <> lru)
                      [
                        ("fifo", rerun (Some 1) Mconfig.Fifo);
                        ("random", rerun (Some 1) Mconfig.Random_det);
                      ]
                  with
                  | None -> Ok ()
                  | Some (policy, s) ->
                      fail name "pfu-equivalence"
                        "statistics differ on one PFU between %s (%d \
                         cycles) and lru (%d cycles)"
                        policy s.Stats.cycles lru.Stats.cycles
            in
            let sp = Runner.speedup ~baseline r in
            if not (Float.is_finite sp && sp > 0.0) then
              fail name "speedup" "speedup %g is not finite and positive" sp
            else Ok ()
      in
      let* () = check_one "greedy" Runner.Greedy in
      check_one "selective" Runner.Selective
  with
  | Fault.Error f ->
      Error
        { method_ = "pipeline"; invariant = "fault"; detail = Fault.to_string f }
  | e ->
      Error
        {
          method_ = "pipeline";
          invariant = "crash";
          detail = Fault.to_string (Fault.of_exn e);
        }
