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

let env_max_cycles () =
  match Sys.getenv_opt "T1000_MAX_CYCLES" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "T1000_MAX_CYCLES must be a positive integer, \
                             got %S"
               s))

let run ?(mconfig = Mconfig.default) ?(ext_latency = fun _ -> 1) ?ext_eval
    ?(selfcheck = false) ~init program =
  T1000_obs.Tracer.with_span ~cat:"sim" "sim.run" @@ fun () ->
  let mem = Memory.create () in
  let regs = Regfile.create () in
  init mem regs;
  let interp = Interp.create ~regs ~mem ?ext_eval program in
  let hier = Hierarchy.create mconfig.Mconfig.cache in
  let pfus =
    Pfu_file.create ~n:mconfig.Mconfig.n_pfus
      ~penalty:mconfig.Mconfig.pfu_reconfig_cycles
      ~replacement:mconfig.Mconfig.pfu_replacement
  in
  let ruu = Ruu.create ~size:mconfig.Mconfig.ruu_size in
  let ifq : (Trace.entry * fetch_class) Queue.t = Queue.create () in
  (* One-entry lookahead over the dynamic trace. *)
  let peeked = ref None in
  let trace_done = ref false in
  let peek () =
    match !peeked with
    | Some _ as e -> e
    | None ->
        if !trace_done then None
        else begin
          match Interp.step interp with
          | Some e ->
              peeked := Some e;
              Some e
          | None ->
              trace_done := true;
              None
        end
  in
  let consume () = peeked := None in
  (* Register rename: dependence register -> seq of latest producer. *)
  let producer = Array.make Instr.dep_reg_count (-1) in
  (* Memory disambiguation: word index -> seq of the youngest store to
     that word.  Stores commit in order, so if the youngest store to a
     word has left the window every older one has too — a single
     youngest-per-word binding replaces scanning all in-flight stores
     on every load dispatch.  Stale bindings (committed seqs) are
     filtered by [Ruu.in_flight] at lookup. *)
  let store_by_word : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let now = ref 0 in
  let committed = ref 0 in
  let ext_committed = ref 0 in
  let ruu_full_stalls = ref 0 in
  let fetch_resume = ref 0 in
  let last_fetch_line = ref (-1) in
  let mispredicts = ref 0 in
  let fetch_stall_cycles = ref 0 in
  let occupancy_sum = ref 0 in
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
  let static_code =
    if perfect then [||] else T1000_asm.Program.instrs program
  in
  (* The single unresolved misprediction: every instruction fetched
     after it is wrong-path, so one checkpoint suffices. *)
  let pending : [ `None | `In_ifq | `In_flight of int ] ref = ref `None in
  let wp_active = ref false in
  let wp_index = ref 0 in
  let mispredict_at = ref 0 in
  let ckpt_hist = ref 0 in
  let ckpt_producer = Array.make Instr.dep_reg_count (-1) in
  let squashes = ref 0 in
  let squashed_instrs = ref 0 in
  let wrong_path_fetched = ref 0 in
  let recovery_cycles = ref 0 in

  let dep_ready seq =
    seq < 0
    || (not (Ruu.in_flight ruu seq))
    ||
    let p = Ruu.get ruu seq in
    p.Ruu.issued && p.Ruu.complete_at <= !now
  in
  let entry_ready (e : Ruu.entry) =
    (not e.Ruu.issued)
    && !now >= e.Ruu.min_issue
    && dep_ready e.Ruu.dep1 && dep_ready e.Ruu.dep2 && dep_ready e.Ruu.dep3
  in

  (* Watchdog state: cycle of the most recent commit (or of the most
     recent cycle with an empty window, during which commits are
     legitimately impossible). *)
  let last_commit = ref 0 in
  let stuck reason limit =
    let head_slot, head_instr =
      if Ruu.is_empty ruu then (-1, "<ruu empty>")
      else begin
        let e = Ruu.get ruu (Ruu.head_seq ruu) in
        (e.Ruu.slot, Format.asprintf "%a" Instr.pp e.Ruu.instr)
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
           ifq_length = Queue.length ifq;
           pfu = Format.asprintf "%a" Pfu_file.pp_stats pfus;
         })
  in
  let run_selfcheck () =
    (match Ruu.selfcheck ruu with
    | None -> ()
    | Some m ->
        raise
          (Selfcheck_violation
             (Printf.sprintf "ruu at cycle %d: %s" !now m)));
    match Pfu_file.selfcheck pfus with
    | None -> ()
    | Some m ->
        raise
          (Selfcheck_violation
             (Printf.sprintf "pfu file at cycle %d: %s" !now m))
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
      last_commit := !now;
      if selfcheck then run_selfcheck ()
    end
  in

  (* Per-cycle functional-unit availability.  [pfu_busy_stamp] is a
     reusable scratch (stamp = cycle the unit last issued) replacing
     the per-cycle hashtable the issue stage used to allocate; it grows
     on demand because an unlimited PFU file assigns one unit per
     configuration. *)
  let pfu_busy_stamp = ref (Array.make 16 (-1)) in
  let pfu_busy unit_id =
    let a = !pfu_busy_stamp in
    unit_id < Array.length a && a.(unit_id) = !now
  in
  let pfu_mark_busy unit_id =
    let a = !pfu_busy_stamp in
    let len = Array.length a in
    if unit_id >= len then begin
      let cap = ref (len * 2) in
      while unit_id >= !cap do
        cap := !cap * 2
      done;
      let b = Array.make !cap (-1) in
      Array.blit a 0 b 0 len;
      pfu_busy_stamp := b
    end;
    !pfu_busy_stamp.(unit_id) <- !now
  in
  (* Entries below [issue_scan_from] are a contiguous already-issued
     prefix of the window (issue never un-issues, and a reused ring
     slot gets a fresh, larger seq), so the scan can skip them instead
     of re-walking the whole RUU from the head every cycle. *)
  let issue_scan_from = ref 0 in
  let issue_stage () =
    let alu_free = ref mconfig.Mconfig.n_int_alu in
    let mult_free = ref mconfig.Mconfig.n_int_mult in
    let mem_free = ref mconfig.Mconfig.n_mem_ports in
    let issued = ref 0 in
    let seq = ref (max !issue_scan_from (Ruu.head_seq ruu)) in
    let in_prefix = ref true in
    while !issued < mconfig.Mconfig.issue_width && !seq < Ruu.tail_seq ruu do
      let e = Ruu.get ruu !seq in
      if e.Ruu.issued then begin
        if !in_prefix then issue_scan_from := !seq + 1
      end
      else begin
        in_prefix := false;
        if entry_ready e then begin
          let do_issue latency =
            e.Ruu.issued <- true;
            e.Ruu.complete_at <- !now + latency;
            incr issued
          in
          match Instr.fu_class e.Ruu.instr with
          | Op.Fu_int_alu | Op.Fu_branch ->
              if !alu_free > 0 then begin
                decr alu_free;
                do_issue (Instr.latency e.Ruu.instr)
              end
          | Op.Fu_int_mult | Op.Fu_int_div ->
              if !mult_free > 0 then begin
                decr mult_free;
                do_issue (Instr.latency e.Ruu.instr)
              end
          | Op.Fu_mem_read ->
              if !mem_free > 0 then begin
                decr mem_free;
                (* wrong-path memory ops (mem_addr < 0) have no
                   effective address: charge an L1 hit, probe nothing *)
                do_issue
                  (if e.Ruu.mem_addr >= 0 then
                     Hierarchy.load_latency hier ~addr:e.Ruu.mem_addr
                   else l1_hit)
              end
          | Op.Fu_mem_write ->
              if !mem_free > 0 then begin
                decr mem_free;
                do_issue
                  (if e.Ruu.mem_addr >= 0 then
                     Hierarchy.store_latency hier ~addr:e.Ruu.mem_addr
                   else l1_hit)
              end
          | Op.Fu_pfu ->
              if not (pfu_busy e.Ruu.pfu_unit) then begin
                pfu_mark_busy e.Ruu.pfu_unit;
                do_issue (ext_latency e.Ruu.eid);
                Pfu_file.release pfus ~unit_id:e.Ruu.pfu_unit
              end
          | Op.Fu_none -> do_issue 1
        end
      end;
      incr seq
    done
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
    | `None | `In_ifq -> ()
    | `In_flight seq ->
        let resolved =
          (not (Ruu.in_flight ruu seq))
          ||
          let e = Ruu.get ruu seq in
          e.Ruu.issued && e.Ruu.complete_at <= !now
        in
        if resolved then begin
          let tail = Ruu.tail_seq ruu in
          (* un-issued wrong-path extended instructions still pin the
             PFU their decode-stage configuration check claimed *)
          for s = seq + 1 to tail - 1 do
            let e = Ruu.get ruu s in
            if (not e.Ruu.issued) && e.Ruu.eid >= 0 && e.Ruu.pfu_unit >= 0
            then Pfu_file.release pfus ~unit_id:e.Ruu.pfu_unit
          done;
          Ruu.truncate ruu ~tail:(seq + 1);
          (* dropped seqs will be reassigned by later pushes: rewind
             the issued-prefix cursor and restore the rename map from
             the checkpoint taken at the branch's dispatch (wrong-path
             stores never enter [store_by_word], so memory
             disambiguation state needs no repair) *)
          if !issue_scan_from > seq + 1 then issue_scan_from := seq + 1;
          Array.blit ckpt_producer 0 producer 0 (Array.length producer);
          Bp.set_history pred !ckpt_hist;
          (* every entry still in the IFQ is wrong-path: the branch
             itself dispatched, and correct-path fetch is suspended
             until this squash *)
          let dropped = tail - (seq + 1) + Queue.length ifq in
          Queue.clear ifq;
          incr squashes;
          squashed_instrs := !squashed_instrs + dropped;
          recovery_cycles := !recovery_cycles + (!now - !mispredict_at);
          pending := `None;
          wp_active := false
        end
  in

  let dispatch_stage () =
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < mconfig.Mconfig.decode_width
          && not (Queue.is_empty ifq) do
      if Ruu.is_full ruu then begin
        incr ruu_full_stalls;
        continue := false
      end
      else begin
        let te, te_class = Queue.peek ifq in
        (* Decode-stage configuration check for extended instructions. *)
        let pfu_outcome =
          match te.Trace.instr with
          | Instr.Ext { eid; _ } ->
              Some (Pfu_file.request pfus ~now:!now ~conf:eid)
          | Instr.Cfgld eid ->
              (* best-effort prefetch: start the load, never stall *)
              Pfu_file.prefetch pfus ~now:!now ~conf:eid;
              None
          | Instr.Alu_rrr _ | Instr.Alu_rri _ | Instr.Shift_imm _
          | Instr.Shift_reg _ | Instr.Lui _ | Instr.Muldiv _ | Instr.Mfhi _
          | Instr.Mflo _ | Instr.Load _ | Instr.Store _ | Instr.Branch _
          | Instr.Jump _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _
          | Instr.Nop | Instr.Halt ->
              None
        in
        match pfu_outcome with
        | Some Pfu_file.Stall -> continue := false
        | (Some (Pfu_file.Ready _) | None) as outcome ->
            ignore (Queue.pop ifq);
            let e = Ruu.push ruu in
            e.Ruu.slot <- te.Trace.index;
            e.Ruu.instr <- te.Trace.instr;
            e.Ruu.mem_addr <- te.Trace.mem_addr;
            (match outcome with
            | Some (Pfu_file.Ready { unit_id; at; hit = _ }) ->
                (match te.Trace.instr with
                | Instr.Ext { eid; _ } -> e.Ruu.eid <- eid
                | _ -> ());
                e.Ruu.pfu_unit <- unit_id;
                (* +1: configuration check happens at decode; issue is
                   the next stage at the earliest. *)
                e.Ruu.min_issue <- max at (!now + 1)
            | Some Pfu_file.Stall -> assert false
            | None -> e.Ruu.min_issue <- !now + 1);
            (* Register dependences. *)
            (match Instr.uses te.Trace.instr with
            | [] -> ()
            | [ r1 ] -> e.Ruu.dep1 <- producer.(r1)
            | [ r1; r2 ] ->
                e.Ruu.dep1 <- producer.(r1);
                e.Ruu.dep2 <- producer.(r2)
            | r1 :: r2 :: _ ->
                e.Ruu.dep1 <- producer.(r1);
                e.Ruu.dep2 <- producer.(r2));
            (* Memory dependence: youngest older store to the same
               word.  Wrong-path memory operations carry no effective
               address (mem_addr = -1): they neither consult nor
               update the store bindings, so squash leaves the
               disambiguation state untouched. *)
            (match te.Trace.instr with
            | Instr.Load _ when te.Trace.mem_addr >= 0 -> (
                match
                  Hashtbl.find_opt store_by_word (te.Trace.mem_addr lsr 2)
                with
                | Some s when Ruu.in_flight ruu s -> e.Ruu.dep3 <- s
                | Some _ | None -> ())
            | Instr.Store _ when te.Trace.mem_addr >= 0 ->
                Hashtbl.replace store_by_word (te.Trace.mem_addr lsr 2)
                  e.Ruu.seq
            | _ -> ());
            List.iter
              (fun d -> producer.(d) <- e.Ruu.seq)
              (Instr.defs te.Trace.instr);
            (* Checkpoint the rename map at the mispredicted branch's
               dispatch (after its own defs): everything dispatched
               later — and only that — is wrong-path, so restoring
               this snapshot at squash undoes exactly the wrong-path
               producer updates. *)
            if te_class = F_mispredict then begin
              pending := `In_flight e.Ruu.seq;
              Array.blit producer 0 ckpt_producer 0 (Array.length producer)
            end;
            incr n
      end
    done
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
    while
      !continue && !n < mconfig.Mconfig.fetch_width
      && Queue.length ifq < mconfig.Mconfig.ifq_size
    do
      match peek () with
      | None -> continue := false
      | Some te ->
          let addr = Encoding.address_of_index te.Trace.index in
          let line = addr lsr line_shift in
          if line <> !last_fetch_line then begin
            let lat = Hierarchy.fetch_latency hier ~addr in
            last_fetch_line := line;
            if lat > l1_hit then begin
              fetch_resume := !now + (lat - l1_hit);
              continue := false
            end
          end;
          if !continue then begin
            consume ();
            if Instr.is_control te.Trace.instr then begin
              let actual_next =
                match peek () with
                | Some nxt -> nxt.Trace.index
                | None -> te.Trace.index + 1
              in
              let fall = te.Trace.index + 1 in
              let correct, wp_start =
                (* Perfect must not reach [Bp.predict_dir], which
                   answers "taken" for it *)
                if perfect then (true, None)
                else
                match te.Trace.instr with
                | Instr.Branch (_, _, _, target) ->
                    let taken = actual_next <> fall in
                    let dir =
                      Bp.predict_dir pred ~index:te.Trace.index ~target
                    in
                    Bp.train_dir pred ~index:te.Trace.index ~taken;
                    let predicted = if dir then target else fall in
                    (predicted = actual_next, Some predicted)
                | Instr.Jump target | Instr.Jal target ->
                    (* direct targets are decoded, never mispredicted *)
                    (target = actual_next, None)
                | Instr.Jr _ | Instr.Jalr _ -> (
                    let prior = Bp.btb_lookup pred ~index:te.Trace.index in
                    Bp.btb_update pred ~index:te.Trace.index
                      ~target:actual_next;
                    match prior with
                    | Some t -> (t = actual_next, Some t)
                    | None -> (false, None))
                | _ -> (true, None)
              in
              if correct then begin
                Queue.push (te, F_ok) ifq;
                incr n;
                (* fetch stops at a taken control transfer *)
                if actual_next <> fall then continue := false
              end
              else begin
                incr mispredicts;
                mispredict_at := !now;
                ckpt_hist := Bp.history pred;
                pending := `In_ifq;
                (match wp_start with
                | Some t when t >= 0 && t < Array.length static_code ->
                    wp_active := true;
                    wp_index := t
                | Some _ | None -> wp_active := false);
                Queue.push (te, F_mispredict) ifq;
                incr n;
                continue := false
              end
            end
            else begin
              Queue.push (te, F_ok) ifq;
              incr n
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
      && Queue.length ifq < mconfig.Mconfig.ifq_size
    do
      let idx = !wp_index in
      if idx < 0 || idx >= Array.length static_code then wp_active := false
      else begin
        let addr = Encoding.address_of_index idx in
        let line = addr lsr line_shift in
        if line <> !last_fetch_line then begin
          let lat = Hierarchy.fetch_latency hier ~addr in
          last_fetch_line := line;
          if lat > l1_hit then begin
            fetch_resume := !now + (lat - l1_hit);
            continue := false
          end
        end;
        if !continue then begin
          let instr = static_code.(idx) in
          Queue.push ({ Trace.index = idx; instr; mem_addr = -1 }, F_wrong)
            ifq;
          incr wrong_path_fetched;
          incr n;
          match instr with
          | Instr.Branch (_, _, _, target) ->
              let dir = Bp.predict_dir pred ~index:idx ~target in
              Bp.spec_dir pred ~taken:dir;
              if dir then begin
                wp_index := target;
                continue := false
              end
              else wp_index := idx + 1
          | Instr.Jump target | Instr.Jal target ->
              wp_index := target;
              continue := false
          | Instr.Jr _ | Instr.Jalr _ -> (
              match Bp.btb_lookup pred ~index:idx with
              | Some t ->
                  wp_index := t;
                  continue := false
              | None -> wp_active := false)
          | _ -> wp_index := idx + 1
        end
      end
    done
  in

  let fetch_stage () =
    if !now < !fetch_resume then begin
      if not !trace_done then incr fetch_stall_cycles
    end
    else
      match !pending with
      | `None -> fetch_correct ()
      | `In_ifq | `In_flight _ ->
          if !wp_active then fetch_wrong () else incr fetch_stall_cycles
  in

  let finished () =
    !trace_done && !peeked = None && Queue.is_empty ifq && Ruu.is_empty ruu
  in
  (* Prime the lookahead so [finished] is meaningful for empty traces. *)
  ignore (peek ());
  let max_cycles =
    match env_max_cycles () with
    | Some n -> n
    | None -> mconfig.Mconfig.max_cycles
  in
  while not (finished ()) do
    if !now > max_cycles then stuck `Cycle_budget max_cycles;
    if Ruu.is_empty ruu then last_commit := !now
    else if !now - !last_commit > mconfig.Mconfig.progress_window then
      stuck `No_commit mconfig.Mconfig.progress_window;
    occupancy_sum := !occupancy_sum + Ruu.occupancy ruu;
    squash_stage ();
    commit_stage ();
    issue_stage ();
    dispatch_stage ();
    fetch_stage ();
    incr now
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
    pfu_stalls = Pfu_file.stalls pfus;
    ruu_full_stalls = !ruu_full_stalls;
    branch_mispredicts = !mispredicts;
    squashes = !squashes;
    squashed_instrs = !squashed_instrs;
    wrong_path_fetched = !wrong_path_fetched;
    recovery_cycles = !recovery_cycles;
    fetch_stall_cycles = !fetch_stall_cycles;
    avg_ruu_occupancy =
      (if !now = 0 then 0.0
       else float_of_int !occupancy_sum /. float_of_int !now);
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
