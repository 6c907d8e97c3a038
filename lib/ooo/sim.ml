open T1000_isa
open T1000_machine
open T1000_cache
module Bp = T1000_bpred.Predictor

(* Provenance of a fetch-queue entry: a correct-path instruction, the
   mispredicted control instruction itself (fetch is redirected when it
   resolves), or a wrong-path instruction synthesized down the
   predicted path (squashed at resolution). *)
type fetch_class = F_ok | F_mispredict | F_wrong

type stuck = {
  reason : [ `Cycle_budget | `No_commit ];
  cycle : int;
  limit : int;
  committed : int;
  head_slot : int;
  head_instr : string;
  ruu_occupancy : int;
  ruu_size : int;
  ifq_length : int;
  pfu : string;
}

exception Sim_stuck of stuck
exception Selfcheck_violation of string

let pp_stuck ppf s =
  Format.fprintf ppf
    "@[<v>%s at cycle %d (limit %d): %d instructions committed;@ RUU %d/%d \
     occupied, head %s;@ IFQ %d entries; %s@]"
    (match s.reason with
    | `Cycle_budget -> "cycle budget exhausted"
    | `No_commit -> "no forward progress (deadlock)")
    s.cycle s.limit s.committed s.ruu_occupancy s.ruu_size
    (if s.head_slot < 0 then "<empty>"
     else Printf.sprintf "slot %d: %s" s.head_slot s.head_instr)
    s.ifq_length s.pfu

let () =
  Printexc.register_printer (function
    | Sim_stuck s -> Some (Format.asprintf "Sim_stuck: %a" pp_stuck s)
    | Selfcheck_violation m -> Some ("Sim self-check violation: " ^ m)
    | _ -> None)

(* Slots of [run]'s charge vector: the counters a quiet cycle can add
   to (DESIGN.md Section 5k). *)
let ruu_full = 0
let fetch_stall = 1
let pfu_stall = 2
let occupancy = 3
let n_charges = 4

(* State of the single unresolved misprediction. *)
type pending = No_pending | In_ifq | In_flight

let run ?(mconfig = Mconfig.default) ?(ext_latency = fun _ -> 1) ?ext_eval
    ?(selfcheck = false) ~init program =
  T1000_obs.Tracer.with_span ~cat:"sim" "sim.run" @@ fun () ->
  let mem = Memory.create () in
  let regs = Regfile.create () in
  init mem regs;
  let interp = Interp.create ~regs ~mem ?ext_eval program in
  (* Pre-decoded image of the interpreter's own instruction array:
     every stage below reads slot fields instead of matching on
     [Instr.t]. *)
  let image = Image.of_code (Interp.code interp) in
  let slots = image.Image.slots in
  let n_slots = Array.length slots in
  let hier = Hierarchy.create mconfig.Mconfig.cache in
  let pfus =
    Pfu_file.create ~n:mconfig.Mconfig.n_pfus
      ~penalty:mconfig.Mconfig.pfu_reconfig_cycles
      ~replacement:mconfig.Mconfig.pfu_replacement
  in
  let ruu = Ruu.create ~size:mconfig.Mconfig.ruu_size in
  (* Fetch queue: a fixed ring of (slot, effective address, class). *)
  let ifq_size = mconfig.Mconfig.ifq_size in
  let q_cap = Int.max 1 ifq_size in
  let q_slot = Array.make q_cap 0 in
  let q_addr = Array.make q_cap (-1) in
  let q_class = Array.make q_cap F_ok in
  let q_head = ref 0 in
  let q_len = ref 0 in
  (* Set by every event that makes a cycle live (DESIGN.md Section 5k):
     a squash, commit, issue, dispatch, fetch-queue push, I-cache probe,
     interpreter step or end of the wrong path.  A cycle without one is
     quiet, and the cycles after it repeat it until the event horizon. *)
  let live = ref false in
  let q_push slot addr cls =
    live := true;
    let i = !q_head + !q_len in
    let i = if i >= q_cap then i - q_cap else i in
    q_slot.(i) <- slot;
    q_addr.(i) <- addr;
    q_class.(i) <- cls;
    incr q_len
  in
  (* One-entry lookahead over the dynamic trace: the slot [Interp.exec]
     returned and its effective address. *)
  let la_full = ref false in
  let la_slot = ref (-1) in
  let la_addr = ref (-1) in
  let trace_done = ref false in
  let peek () =
    if !la_full then !la_slot
    else if !trace_done then -1
    else begin
      live := true;
      let s = Interp.exec interp in
      if s < 0 then trace_done := true
      else begin
        la_full := true;
        la_slot := s;
        la_addr := Interp.mem_addr interp
      end;
      s
    end
  in
  (* Register rename: dependence register -> seq of latest producer. *)
  let producer = Array.make Instr.dep_reg_count (-1) in
  (* Memory disambiguation: word index -> seq of the youngest store to
     that word.  Stores commit in order, so if the youngest store to a
     word has left the window every older one has too — a single
     youngest-per-word binding replaces scanning all in-flight stores
     on every load dispatch.  Stale bindings (committed seqs) are
     filtered by [Ruu.in_flight] at lookup. *)
  let store_by_word = Int_tbl.create 64 in
  let now = ref 0 in
  let committed = ref 0 in
  let ext_committed = ref 0 in
  (* Charges: [cyc] holds what the current cycle adds to each slot's
     counter, [total] the sum over the earlier cycles. *)
  let cyc = Array.make n_charges 0 and total = Array.make n_charges 0 in
  let charge slot = cyc.(slot) <- cyc.(slot) + 1 in
  let fetch_resume = ref 0 in
  let last_fetch_line = ref (-1) in
  let mispredicts = ref 0 in
  let line_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 mconfig.Mconfig.cache.Hierarchy.l1i_line 0
  in
  let l1_hit = mconfig.Mconfig.cache.Hierarchy.l1_hit in

  (* --- Front end ---
     Fetch follows the predictor ([Mconfig.bpred]) instead of the
     dynamic trace.  [Perfect] is the predictor that is always right:
     fetch then follows the committed path exactly, never touching the
     predictor tables.  On a misprediction, fetch switches to
     synthesizing instructions from the static program image down the
     predicted path; those wrong-path entries dispatch into the RUU
     (and PFU file) like any others, and are squashed when the
     mispredicted branch resolves.  The dynamic trace itself is never
     consumed down a wrong path, so recovery is simply resuming normal
     fetch. *)
  let perfect = Bp.is_perfect mconfig.Mconfig.bpred in
  let pred = Bp.create mconfig.Mconfig.bpred in
  (* The single unresolved misprediction: every instruction fetched
     after it is wrong-path, so one checkpoint suffices. *)
  let pending = ref No_pending in
  let pending_seq = ref (-1) in
  let wp_active = ref false in
  let wp_index = ref 0 in
  let mispredict_at = ref 0 in
  let ckpt_hist = ref 0 in
  let ckpt_producer = Array.make Instr.dep_reg_count (-1) in
  let squashes = ref 0 in
  let squashed_instrs = ref 0 in
  let wrong_path_fetched = ref 0 in
  let recovery_cycles = ref 0 in

  (* Watchdog state: cycle of the most recent commit (or of the most
     recent cycle with an empty window, during which commits are
     legitimately impossible). *)
  let last_commit = ref 0 in
  let stuck reason limit =
    let head_slot, head_instr =
      if Ruu.is_empty ruu then (-1, "<ruu empty>")
      else begin
        let e = Ruu.get ruu (Ruu.head_seq ruu) in
        ( e.Ruu.slot,
          Format.asprintf "%a" Instr.pp image.Image.instrs.(e.Ruu.slot) )
      end
    in
    raise
      (Sim_stuck
         {
           reason;
           cycle = !now;
           limit;
           committed = !committed;
           head_slot;
           head_instr;
           ruu_occupancy = Ruu.occupancy ruu;
           ruu_size = Ruu.size ruu;
           ifq_length = !q_len;
           pfu =
             Printf.sprintf
               "pfu: %d hits, %d misses/reconfigs, %d dispatch stalls"
               (Pfu_file.hits pfus) (Pfu_file.misses pfus) total.(pfu_stall);
         })
  in
  let violation what = function
    | None -> ()
    | Some m ->
        raise
          (Selfcheck_violation
             (Printf.sprintf "%s at cycle %d: %s" what !now m))
  in
  let run_selfcheck () =
    violation "ruu" (Ruu.selfcheck ruu);
    violation "pfu file" (Pfu_file.selfcheck pfus)
  in
  let audit_scheduler now =
    violation "scheduler" (Ruu.audit_ready ruu ~now);
    violation "scheduler" (Ruu.audit_waiting ruu)
  in

  let commit_stage () =
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < mconfig.Mconfig.commit_width
          && not (Ruu.is_empty ruu) do
      let e = Ruu.get ruu (Ruu.head_seq ruu) in
      if e.Ruu.issued && e.Ruu.complete_at <= !now then begin
        ignore (Ruu.pop ruu);
        incr committed;
        if e.Ruu.eid >= 0 then incr ext_committed;
        incr n
      end
      else continue := false
    done;
    if !n > 0 then begin
      live := true;
      last_commit := !now;
      if selfcheck then run_selfcheck ()
    end
  in

  (* Per-cycle PFU availability: the cycle each unit last issued.  A
     limited file numbers its units below [n_pfus]; an unlimited one
     gives each configuration its own unit, numbered by its id. *)
  let pfu_busy_stamp =
    let units = Option.value mconfig.Mconfig.n_pfus ~default:0 in
    let ids =
      Array.fold_left (fun m sl -> Int.max m (sl.Image.ext + 1)) 0 slots
    in
    Array.make (Int.max units ids) (-1)
  in
  (* Issue visits only the ready list, oldest first (see {!Ruu}): the
     same entries, in the same order, as a scan of the whole window
     for ready entries would. *)
  let issue_stage () =
    let now = !now in
    Ruu.wake ruu ~now;
    if selfcheck then audit_scheduler now;
    let alu_free = ref mconfig.Mconfig.n_int_alu in
    let mult_free = ref mconfig.Mconfig.n_int_mult in
    let mem_free = ref mconfig.Mconfig.n_mem_ports in
    let issued = ref 0 in
    let ri = ref (Ruu.first_ready ruu) in
    while !issued < mconfig.Mconfig.issue_width && !ri >= 0 do
      let e = Ruu.at ruu !ri in
      let sl = slots.(e.Ruu.slot) in
      let ok = ref true in
      let latency =
        match sl.Image.fu with
        | Image.Alu ->
            if !alu_free > 0 then decr alu_free else ok := false;
            sl.Image.latency
        | Image.Mult ->
            if !mult_free > 0 then decr mult_free else ok := false;
            sl.Image.latency
        | Image.Load | Image.Store ->
            if !mem_free = 0 then begin
              ok := false;
              0
            end
            else begin
              decr mem_free;
              (* wrong-path memory ops (mem_addr < 0) have no
                 effective address: charge an L1 hit, probe nothing *)
              if e.Ruu.mem_addr < 0 then l1_hit
              else if sl.Image.fu = Image.Load then
                Hierarchy.load_latency hier ~addr:e.Ruu.mem_addr
              else Hierarchy.store_latency hier ~addr:e.Ruu.mem_addr
            end
        | Image.Pfu ->
            if pfu_busy_stamp.(e.Ruu.pfu_unit) = now then begin
              ok := false;
              0
            end
            else begin
              pfu_busy_stamp.(e.Ruu.pfu_unit) <- now;
              let latency = ext_latency e.Ruu.eid in
              Pfu_file.release pfus ~unit_id:e.Ruu.pfu_unit;
              latency
            end
        | Image.No_fu -> 1
      in
      if !ok then begin
        Ruu.issue ruu e ~now ~latency;
        incr issued
      end;
      ri := e.Ruu.next_ready
    done;
    if !issued > 0 then live := true;
    if selfcheck then audit_scheduler now
  in

  (* Misprediction recovery.  Runs before [commit_stage] every cycle,
     so a resolving branch squashes its wrong-path successors before
     any of them could reach the window head — squashed instructions
     are never committed, keeping the committed count equal to the
     architectural instruction count under every predictor.  PFU busy
     stamps need no rollback: a stamp only blocks issue during the
     cycle it was written, and issue runs after this stage. *)
  let squash_stage () =
    match !pending with
    | No_pending | In_ifq -> ()
    | In_flight ->
        let seq = !pending_seq in
        let resolved =
          (not (Ruu.in_flight ruu seq))
          ||
          let e = Ruu.get ruu seq in
          e.Ruu.issued && e.Ruu.complete_at <= !now
        in
        if resolved then begin
          live := true;
          let tail = Ruu.tail_seq ruu in
          (* un-issued wrong-path extended instructions still pin the
             PFU their decode-stage configuration check claimed *)
          for s = seq + 1 to tail - 1 do
            let e = Ruu.get ruu s in
            if (not e.Ruu.issued) && e.Ruu.eid >= 0 && e.Ruu.pfu_unit >= 0
            then Pfu_file.release pfus ~unit_id:e.Ruu.pfu_unit
          done;
          Ruu.truncate ruu ~tail:(seq + 1);
          (* dropped seqs will be reassigned by later pushes: restore
             the rename map from the checkpoint taken at the branch's
             dispatch (wrong-path stores never enter [store_by_word],
             so memory disambiguation state needs no repair) *)
          Array.blit ckpt_producer 0 producer 0 (Array.length producer);
          Bp.set_history pred !ckpt_hist;
          (* every entry still in the IFQ is wrong-path: the branch
             itself dispatched, and correct-path fetch is suspended
             until this squash *)
          let dropped = tail - (seq + 1) + !q_len in
          q_len := 0;
          incr squashes;
          squashed_instrs := !squashed_instrs + dropped;
          recovery_cycles := !recovery_cycles + (!now - !mispredict_at);
          pending := No_pending;
          wp_active := false
        end
  in

  let dispatch_stage () =
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < mconfig.Mconfig.decode_width && !q_len > 0 do
      if Ruu.is_full ruu then begin
        charge ruu_full;
        continue := false
      end
      else begin
        let qi = !q_head in
        let slot = q_slot.(qi) in
        let sl = slots.(slot) in
        (* Decode-stage configuration check for extended instructions;
           a [cfgld] hint is a best-effort prefetch that never stalls. *)
        let unit_id = ref (-1) and ready = ref 0 in
        if sl.Image.ext >= 0 then begin
          let u = Pfu_file.claim pfus ~now:!now ~conf:sl.Image.ext in
          if u < 0 then begin
            charge pfu_stall;
            continue := false
          end
          else begin
            unit_id := u;
            ready := Int.max !now (Pfu_file.ready_at pfus ~unit_id:u)
          end
        end
        else if sl.Image.cfgld >= 0 then
          Pfu_file.prefetch pfus ~now:!now ~conf:sl.Image.cfgld;
        if !continue then begin
          let mem_addr = q_addr.(qi) and cls = q_class.(qi) in
          q_head := (if qi + 1 = q_cap then 0 else qi + 1);
          decr q_len;
          let e = Ruu.push ruu in
          e.Ruu.slot <- slot;
          e.Ruu.mem_addr <- mem_addr;
          if sl.Image.ext >= 0 then begin
            e.Ruu.eid <- sl.Image.ext;
            e.Ruu.pfu_unit <- !unit_id;
            (* +1: configuration check happens at decode; issue is the
               next stage at the earliest. *)
            e.Ruu.min_issue <- Int.max !ready (!now + 1)
          end
          else e.Ruu.min_issue <- !now + 1;
          (* Register dependences. *)
          if sl.Image.use1 >= 0 then e.Ruu.dep1 <- producer.(sl.Image.use1);
          if sl.Image.use2 >= 0 then e.Ruu.dep2 <- producer.(sl.Image.use2);
          (* Memory dependence: youngest older store to the same word.
             Wrong-path memory operations carry no effective address
             (mem_addr = -1): they neither consult nor update the store
             bindings, so squash leaves the disambiguation state
             untouched. *)
          if mem_addr >= 0 then begin
            match sl.Image.fu with
            | Image.Load -> (
                let s =
                  Int_tbl.find_or store_by_word (mem_addr lsr 2) ~default:(-1)
                in
                if s >= 0 && Ruu.in_flight ruu s then e.Ruu.dep3 <- s)
            | Image.Store ->
                Int_tbl.replace store_by_word (mem_addr lsr 2) e.Ruu.seq
            | Image.Alu | Image.Mult | Image.Pfu | Image.No_fu -> ()
          end;
          if sl.Image.def1 >= 0 then producer.(sl.Image.def1) <- e.Ruu.seq;
          if sl.Image.def2 >= 0 then producer.(sl.Image.def2) <- e.Ruu.seq;
          Ruu.schedule ruu e ~now:!now;
          (* Checkpoint the rename map at the mispredicted branch's
             dispatch (after its own defs): everything dispatched
             later — and only that — is wrong-path, so restoring this
             snapshot at squash undoes exactly the wrong-path producer
             updates. *)
          if cls = F_mispredict then begin
            pending := In_flight;
            pending_seq := e.Ruu.seq;
            Array.blit producer 0 ckpt_producer 0 (Array.length producer)
          end;
          incr n
        end
      end
    done;
    if !n > 0 then live := true
  in

  (* Instruction-cache probe on entering a new line; [false] (and the
     fetch resume cycle set) on a miss. *)
  let fetch_line idx =
    let addr = Encoding.address_of_index idx in
    let line = addr lsr line_shift in
    if line = !last_fetch_line then true
    else begin
      live := true;
      let lat = Hierarchy.fetch_latency hier ~addr in
      last_fetch_line := line;
      if lat > l1_hit then begin
        fetch_resume := !now + (lat - l1_hit);
        false
      end
      else true
    end
  in

  (* Correct-path fetch: up to [fetch_width] trace entries, stopping at
     a taken control transfer and on an instruction-cache miss (the
     entry is then not consumed; fetch resumes once the line arrives).
     Each control instruction is checked against the predictor, which
     trains on the actual outcome, known at fetch time from the trace
     lookahead; under [Perfect] every control instruction is correct
     and the predictor is never consulted.  On a misprediction, fetch
     switches to the wrong path: the branch is tagged [F_mispredict]
     and the predicted-path start recorded — or no wrong path at all
     when the target is unknown (BTB miss) or outside the program
     image. *)
  let fetch_correct () =
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < mconfig.Mconfig.fetch_width && !q_len < ifq_size
    do
      let idx = peek () in
      if idx < 0 then continue := false
      else if not (fetch_line idx) then continue := false
      else begin
        let mem_addr = !la_addr in
        la_full := false;
        let sl = slots.(idx) in
        if sl.Image.control = Image.Not_control then begin
          q_push idx mem_addr F_ok;
          incr n
        end
        else begin
          let actual_next =
            let nxt = peek () in
            if nxt >= 0 then nxt else idx + 1
          in
          let fall = idx + 1 in
          (* [wp_start] is the predicted-path start, -1 for none *)
          let correct = ref true and wp_start = ref (-1) in
          (* Perfect must not reach [Bp.predict_dir], which answers
             "taken" for it *)
          if not perfect then begin
            match sl.Image.control with
            | Image.Cond_branch ->
                let target = sl.Image.target in
                let taken = actual_next <> fall in
                let dir = Bp.predict_dir pred ~index:idx ~target in
                Bp.train_dir pred ~index:idx ~taken;
                let predicted = if dir then target else fall in
                correct := predicted = actual_next;
                wp_start := predicted
            | Image.Direct_jump ->
                (* direct targets are decoded, never mispredicted *)
                correct := sl.Image.target = actual_next
            | Image.Indirect_jump -> (
                let prior = Bp.btb_lookup pred ~index:idx in
                Bp.btb_update pred ~index:idx ~target:actual_next;
                match prior with
                | Some t ->
                    correct := t = actual_next;
                    wp_start := t
                | None -> correct := false)
            | Image.Not_control -> ()
          end;
          if !correct then begin
            q_push idx mem_addr F_ok;
            incr n;
            (* fetch stops at a taken control transfer *)
            if actual_next <> fall then continue := false
          end
          else begin
            incr mispredicts;
            mispredict_at := !now;
            ckpt_hist := Bp.history pred;
            pending := In_ifq;
            if !wp_start >= 0 && !wp_start < n_slots then begin
              wp_active := true;
              wp_index := !wp_start
            end
            else wp_active := false;
            q_push idx mem_addr F_mispredict;
            incr n;
            continue := false
          end
        end
      end
    done
  in

  (* Wrong-path fetch: synthesize instructions from the static program
     image down the predicted path.  The I-cache is probed (wrong-path
     pollution is part of the model); effective addresses are unknown,
     so entries carry mem_addr = -1.  Wrong-path branches are
     themselves predicted — shifting speculative history bits that the
     squash restores — and an unknown indirect target or a walk off
     the program ends the wrong path (fetch then idles until the
     squash). *)
  let fetch_wrong () =
    let n = ref 0 in
    let continue = ref true in
    while
      !continue && !wp_active && !n < mconfig.Mconfig.fetch_width
      && !q_len < ifq_size
    do
      let idx = !wp_index in
      if idx < 0 || idx >= n_slots then begin
        live := true;
        wp_active := false
      end
      else if not (fetch_line idx) then continue := false
      else begin
        let sl = slots.(idx) in
        q_push idx (-1) F_wrong;
        incr wrong_path_fetched;
        incr n;
        match sl.Image.control with
        | Image.Cond_branch ->
            let target = sl.Image.target in
            let dir = Bp.predict_dir pred ~index:idx ~target in
            Bp.spec_dir pred ~taken:dir;
            if dir then begin
              wp_index := target;
              continue := false
            end
            else wp_index := idx + 1
        | Image.Direct_jump ->
            wp_index := sl.Image.target;
            continue := false
        | Image.Indirect_jump -> (
            match Bp.btb_lookup pred ~index:idx with
            | Some t ->
                wp_index := t;
                continue := false
            | None -> wp_active := false)
        | Image.Not_control -> wp_index := idx + 1
      end
    done
  in

  let fetch_stage () =
    if !now < !fetch_resume then begin
      if not !trace_done then charge fetch_stall
    end
    else
      match !pending with
      | No_pending -> fetch_correct ()
      | In_ifq | In_flight ->
          if !wp_active then fetch_wrong () else charge fetch_stall
  in

  let finished () =
    !trace_done && (not !la_full) && !q_len = 0 && Ruu.is_empty ruu
  in
  (* Prime the lookahead so [finished] is meaningful for empty traces. *)
  ignore (peek ());
  let max_cycles = mconfig.Mconfig.max_cycles in
  let progress_window = mconfig.Mconfig.progress_window in
  (* --- Dead-cycle skipping (DESIGN.md Section 5k) ---
     After a quiet cycle, every cycle before the event horizon repeats
     it: the same charges, and nothing else moves.  The horizon is the
     first cycle at which something can: an entry joins the ready list,
     the head or the mispredicted branch completes, fetch resumes, or a
     watchdog fires (clamped so [Sim_stuck] carries the same cycle and
     snapshot). *)
  let succ_sat x = if x = max_int then x else x + 1 in
  let horizon () =
    let h = Int.min (Ruu.next_wake ruu) (succ_sat max_cycles) in
    let h =
      if Ruu.is_empty ruu then h
      else begin
        let e = Ruu.get ruu (Ruu.head_seq ruu) in
        let h = if e.Ruu.issued then Int.min h e.Ruu.complete_at else h in
        Int.min h (succ_sat (!last_commit + progress_window))
      end
    in
    let h =
      match !pending with
      | In_flight when Ruu.in_flight ruu !pending_seq ->
          let e = Ruu.get ruu !pending_seq in
          if e.Ruu.issued then Int.min h e.Ruu.complete_at else h
      | In_flight | No_pending | In_ifq -> h
    in
    if !fetch_resume >= !now then Int.min h !fetch_resume else h
  in
  let skipped = ref 0 in
  (* Self-check executes every cycle and audits the skip instead: the
     cycles before [span_end] must repeat [span], the charges of the
     quiet cycle that opened the span. *)
  let span_end = ref (-1) and span = Array.make n_charges 0 in
  while not (finished ()) do
    if !now > max_cycles then stuck `Cycle_budget max_cycles;
    if Ruu.is_empty ruu then last_commit := !now
    else if !now - !last_commit > progress_window then
      stuck `No_commit progress_window;
    cyc.(occupancy) <- Ruu.occupancy ruu;
    live := false;
    squash_stage ();
    commit_stage ();
    issue_stage ();
    dispatch_stage ();
    fetch_stage ();
    incr now;
    let quiet =
      (not !live) && Ruu.first_ready ruu < 0 && not (finished ())
    in
    if selfcheck && !now - 1 < !span_end then begin
      if not quiet then
        violation "dead-cycle skip"
          (Some
             (Printf.sprintf "live cycle inside the quiet span ending at %d"
                !span_end))
      else if cyc <> span then
        violation "dead-cycle skip"
          (Some "quiet cycle differs from the one that opened its span")
      else if horizon () <> !span_end then
        violation "dead-cycle skip" (Some "event horizon moved inside its span")
    end
    else if quiet then begin
      let h = horizon () in
      let k = h - !now in
      if k > 0 then begin
        skipped := !skipped + k;
        if selfcheck then begin
          span_end := h;
          Array.blit cyc 0 span 0 n_charges
        end
        else begin
          for i = 0 to n_charges - 1 do
            total.(i) <- total.(i) + (k * cyc.(i))
          done;
          if Ruu.is_empty ruu then last_commit := h - 1;
          now := h
        end
      end
    end;
    for i = 0 to n_charges - 1 do
      total.(i) <- total.(i) + cyc.(i);
      cyc.(i) <- 0
    done
  done;
  let mr c = Cache.miss_rate c and tr t = Tlb.miss_rate t in
  let stats =
    {
      Stats.cycles = !now;
    committed = !committed;
    ext_committed = !ext_committed;
    ipc =
      (if !now = 0 then 0.0
       else float_of_int !committed /. float_of_int !now);
    pfu_hits = Pfu_file.hits pfus;
    pfu_misses = Pfu_file.misses pfus;
    pfu_stalls = total.(pfu_stall);
    ruu_full_stalls = total.(ruu_full);
    branch_mispredicts = !mispredicts;
    squashes = !squashes;
    squashed_instrs = !squashed_instrs;
    wrong_path_fetched = !wrong_path_fetched;
    recovery_cycles = !recovery_cycles;
    fetch_stall_cycles = total.(fetch_stall);
    avg_ruu_occupancy =
      (if !now = 0 then 0.0
       else float_of_int total.(occupancy) /. float_of_int !now);
      l1i_miss_rate = mr (Hierarchy.l1i hier);
      l1d_miss_rate = mr (Hierarchy.l1d hier);
      l2_miss_rate = mr (Hierarchy.l2 hier);
      itlb_miss_rate = tr (Hierarchy.itlb hier);
      dtlb_miss_rate = tr (Hierarchy.dtlb hier);
    }
  in
  (* Strictly observational telemetry: the counters summarise this run
     for Obs consumers (traces, `t1000_cli stats`, BENCH phases); the
     returned stats — and therefore every paper artifact — are
     untouched. *)
  let m = T1000_obs.Metrics.incr in
  m "sim.runs";
  m ~by:stats.Stats.cycles "sim.cycles";
  m ~by:stats.Stats.committed "sim.committed";
  m ~by:stats.Stats.ext_committed "sim.ext_committed";
  m ~by:stats.Stats.pfu_hits "sim.pfu.hits";
  m ~by:stats.Stats.pfu_misses "sim.pfu.misses";
  m ~by:stats.Stats.pfu_stalls "sim.pfu.stall_events";
  m ~by:stats.Stats.ruu_full_stalls "sim.stall.ruu_full";
  m ~by:stats.Stats.fetch_stall_cycles "sim.stall.fetch_cycles";
  m ~by:stats.Stats.branch_mispredicts "sim.branch_mispredicts";
  m ~by:!skipped "sim.skipped_cycles";
  (* speculation counters only exist under a real predictor, keeping
     perfect-mode telemetry unchanged *)
  if not perfect then begin
    m ~by:stats.Stats.branch_mispredicts "sim.bpred.mispredicts";
    m ~by:stats.Stats.squashes "sim.bpred.squashes";
    m ~by:stats.Stats.squashed_instrs "sim.bpred.squashed_instrs";
    m ~by:stats.Stats.wrong_path_fetched "sim.bpred.wrong_path_fetched";
    m ~by:stats.Stats.recovery_cycles "sim.bpred.recovery_cycles"
  end;
  T1000_obs.Metrics.observe "sim.ruu_occupancy"
    stats.Stats.avg_ruu_occupancy;
  T1000_obs.Metrics.observe "sim.cycles_per_run"
    (float_of_int stats.Stats.cycles);
  stats
