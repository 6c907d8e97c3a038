(* Tests for the out-of-order core: machine configuration, the PFU
   file, the RUU ring, and the cycle-level simulator's first-order
   behaviours (width limits, dependence serialization, memory latency,
   reconfiguration penalties, thrashing). *)

open T1000_isa
open T1000_asm
open T1000_ooo
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Mconfig ---------- *)

let test_mconfig () =
  let m = Mconfig.default in
  check_int "4-wide" 4 m.Mconfig.issue_width;
  check_int "ruu 64" 64 m.Mconfig.ruu_size;
  check_bool "no pfus by default" true (m.Mconfig.n_pfus = Some 0);
  let m2 = Mconfig.with_pfus ~penalty:25 (Some 3) m in
  check_bool "pfu count" true (m2.Mconfig.n_pfus = Some 3);
  check_int "penalty" 25 m2.Mconfig.pfu_reconfig_cycles;
  let m3 = Mconfig.with_pfus None m in
  check_bool "unlimited" true (m3.Mconfig.n_pfus = None)

(* ---------- Pfu_file ---------- *)

let test_pfu_unlimited () =
  let f = Pfu_file.create ~n:None ~penalty:10 ~replacement:Mconfig.Lru in
  (match Pfu_file.request f ~now:100 ~conf:7 with
  | Pfu_file.Ready { at; hit; _ } ->
      check_bool "first use misses" false hit;
      check_int "pays the penalty once" 110 at
  | Pfu_file.Stall -> Alcotest.fail "unexpected stall");
  (match Pfu_file.request f ~now:200 ~conf:7 with
  | Pfu_file.Ready { at; hit; _ } ->
      check_bool "second use hits" true hit;
      check_int "no further penalty" 200 at
  | Pfu_file.Stall -> Alcotest.fail "unexpected stall");
  check_int "one reconfig" 1 (Pfu_file.misses f);
  check_int "one hit" 1 (Pfu_file.hits f)

let test_pfu_lru_eviction () =
  let f = Pfu_file.create ~n:(Some 2) ~penalty:10 ~replacement:Mconfig.Lru in
  let req now conf =
    match Pfu_file.request f ~now ~conf with
    | Pfu_file.Ready { unit_id; hit; _ } ->
        Pfu_file.release f ~unit_id;
        hit
    | Pfu_file.Stall -> Alcotest.fail "unexpected stall"
  in
  ignore (req 0 1);
  ignore (req 1 2);
  (* touch conf 1 so conf 2 is LRU *)
  ignore (req 2 1);
  ignore (req 3 3);
  (* conf 3 must have evicted conf 2 *)
  check_bool "conf 1 still resident" true (req 4 1);
  check_bool "conf 2 was evicted" false (req 5 2)

let test_pfu_pinning_stall () =
  let f = Pfu_file.create ~n:(Some 1) ~penalty:10 ~replacement:Mconfig.Lru in
  (* conf 1 loaded and pinned (no release) *)
  (match Pfu_file.request f ~now:0 ~conf:1 with
  | Pfu_file.Ready _ -> ()
  | Pfu_file.Stall -> Alcotest.fail "should load");
  (* a different conf cannot evict the pinned unit *)
  (match Pfu_file.request f ~now:1 ~conf:2 with
  | Pfu_file.Stall -> ()
  | Pfu_file.Ready _ -> Alcotest.fail "should stall on pinned unit");
  (* same conf can still pin again *)
  (match Pfu_file.request f ~now:2 ~conf:1 with
  | Pfu_file.Ready { hit; _ } -> check_bool "re-pin hits" true hit
  | Pfu_file.Stall -> Alcotest.fail "same conf should be usable");
  (* after releases the unit becomes evictable *)
  Pfu_file.release f ~unit_id:0;
  Pfu_file.release f ~unit_id:0;
  match Pfu_file.request f ~now:3 ~conf:2 with
  | Pfu_file.Ready { hit; at; _ } ->
      check_bool "reconfigured" false hit;
      check_int "pays penalty" 13 at
  | Pfu_file.Stall -> Alcotest.fail "should reconfigure after release"

let test_pfu_fifo () =
  let f = Pfu_file.create ~n:(Some 2) ~penalty:5 ~replacement:Mconfig.Fifo in
  let req now conf =
    match Pfu_file.request f ~now ~conf with
    | Pfu_file.Ready { unit_id; hit; _ } ->
        Pfu_file.release f ~unit_id;
        hit
    | Pfu_file.Stall -> Alcotest.fail "stall"
  in
  ignore (req 0 1);
  ignore (req 1 2);
  ignore (req 2 1) (* LRU would protect 1; FIFO evicts it anyway *);
  ignore (req 3 3);
  check_bool "FIFO evicted the oldest load (conf 1)" false (req 4 1)

let test_pfu_zero_units () =
  let f = Pfu_file.create ~n:(Some 0) ~penalty:5 ~replacement:Mconfig.Lru in
  match Pfu_file.request f ~now:0 ~conf:1 with
  | Pfu_file.Stall -> ()
  | Pfu_file.Ready _ -> Alcotest.fail "no units: must stall"

(* ---------- Pfu_file: reconfigurations vs PFU count ---------- *)

(* The configuration stream of g721_enc's greedy rewrite: the
   configuration id of every extended instruction the functional
   interpreter executes, in program order. *)
let g721_enc_confs () =
  let w = Option.get (T1000_workloads.Registry.find "g721_enc") in
  let program = w.T1000_workloads.Workload.program in
  let table =
    T1000.Runner.select_table
      (T1000.Runner.setup ~selfcheck:false T1000.Runner.Greedy)
      (T1000.Runner.analyze w)
  in
  let rewritten =
    (T1000_select.Rewrite.apply program table).T1000_select.Rewrite.program
  in
  let mem = T1000_machine.Memory.create ()
  and regs = T1000_machine.Regfile.create () in
  w.T1000_workloads.Workload.init mem regs;
  let it =
    T1000_machine.Interp.create ~mem ~regs
      ~ext_eval:(T1000_select.Extinstr.eval table) rewritten
  in
  let confs = ref [] in
  let rec go () =
    match T1000_machine.Interp.step it with
    | None -> ()
    | Some e ->
        (match e.T1000_machine.Trace.instr with
        | Instr.Ext { eid; _ } -> confs := eid :: !confs
        | _ -> ());
        go ()
  in
  go ();
  Array.of_list (List.rev !confs)

(* Untimed replay: each request is released at once, so no unit is
   ever pinned and every request has its own LRU stamp.  That makes
   the file a pure LRU cache, a stack algorithm, so more PFUs can never
   mean more misses.  FIFO is not a stack algorithm (Belady's anomaly)
   and is not asserted.

   The timed model does not have this property: Sim.run with greedy at
   a 10-cycle penalty reconfigures 65,536 / 49,160 / 20 / 26 / 5 times
   at 1 / 2 / 3 / 4 / 6 PFUs on this same program.  There the victim
   search skips pinned units and stamps recency by cycle, so the file
   is not a pure stack algorithm.  Nothing here asserts that anomaly or
   its absence. *)
let test_pfu_lru_misses_monotone () =
  let confs = g721_enc_confs () in
  check_bool "g721_enc's greedy rewrite executes extended instructions" true
    (Array.length confs > 0);
  let misses n =
    let f = Pfu_file.create ~n:(Some n) ~penalty:10 ~replacement:Mconfig.Lru in
    Array.iteri
      (fun now conf ->
        match Pfu_file.request f ~now ~conf with
        | Pfu_file.Ready { unit_id; _ } -> Pfu_file.release f ~unit_id
        | Pfu_file.Stall -> Alcotest.fail "an unpinned file never stalls")
      confs;
    Pfu_file.misses f
  in
  let counts = List.map (fun n -> (n, misses n)) [ 1; 2; 3; 4; 6 ] in
  ignore
    (List.fold_left
       (fun (pn, pm) (n, m) ->
         check_bool
           (Printf.sprintf "%d PFUs miss %d <= %d PFUs miss %d" n m pn pm)
           true (m <= pm);
         (n, m))
       (List.hd counts) (List.tl counts))

(* ---------- Ruu ---------- *)

let test_ruu_ring () =
  let r = Ruu.create ~size:2 in
  check_bool "empty" true (Ruu.is_empty r);
  let e1 = Ruu.push r in
  check_int "seq 0" 0 e1.Ruu.seq;
  let e2 = Ruu.push r in
  check_int "seq 1" 1 e2.Ruu.seq;
  check_bool "full" true (Ruu.is_full r);
  check_bool "push when full" true
    (match Ruu.push r with exception Invalid_argument _ -> true | _ -> false);
  let popped = Ruu.pop r in
  check_int "fifo order" 0 popped.Ruu.seq;
  check_bool "seq 0 no longer in flight" false (Ruu.in_flight r 0);
  check_bool "seq 1 in flight" true (Ruu.in_flight r 1);
  (* ring reuse keeps sequence numbers monotonic *)
  let e3 = Ruu.push r in
  check_int "seq 2" 2 e3.Ruu.seq;
  check_int "occupancy" 2 (Ruu.occupancy r);
  check_bool "get out of range" true
    (match Ruu.get r 0 with exception Invalid_argument _ -> true | _ -> false)

let test_ruu_fields_reset () =
  let r = Ruu.create ~size:1 in
  let e = Ruu.push r in
  e.Ruu.dep1 <- 42;
  e.Ruu.issued <- true;
  ignore (Ruu.pop r);
  let e2 = Ruu.push r in
  check_int "dep reset" (-1) e2.Ruu.dep1;
  check_bool "issued reset" false e2.Ruu.issued

(* Sizes that are not powers of two: the ring's capacity is rounded up,
   but the window must still hold exactly [size] entries, and each seq
   must map to its own entry across wrap-arounds. *)
let test_ruu_odd_sizes () =
  List.iter
    (fun size ->
      let r = Ruu.create ~size in
      let name fmt = Printf.ksprintf (Printf.sprintf "size %d: %s" size) fmt in
      let no_violation () =
        match Ruu.selfcheck r with
        | None -> ()
        | Some msg -> Alcotest.failf "size %d: selfcheck: %s" size msg
      in
      let raises f =
        match f () with exception Invalid_argument _ -> true | _ -> false
      in
      let fill () =
        while not (Ruu.is_full r) do
          ignore (Ruu.push r);
          no_violation ()
        done
      in
      fill ();
      (* at least two full wrap-arounds of the window, and of the
         rounded-up ring too *)
      for round = 1 to 5 do
        check_int (name "round %d: full at exactly size" round) size
          (Ruu.occupancy r);
        check_bool (name "round %d: push raises when full" round) true
          (raises (fun () -> Ruu.push r));
        for seq = Ruu.head_seq r to Ruu.tail_seq r - 1 do
          check_int (name "get %d" seq) seq (Ruu.get r seq).Ruu.seq
        done;
        (* retire the whole window, one entry at a time *)
        for _ = 1 to size do
          let head = Ruu.head_seq r in
          check_int (name "pop %d" head) head (Ruu.pop r).Ruu.seq;
          check_bool (name "retired seq %d" head) true
            (raises (fun () -> Ruu.get r head));
          no_violation ()
        done;
        check_bool (name "round %d: empty" round) true (Ruu.is_empty r);
        fill ()
      done;
      check_int (name "seqs issued") (6 * size) (Ruu.tail_seq r))
    [ 3; 48 ]

(* Scheduler helpers for the direct cases below: dispatch an entry the
   way [Sim] does, and read the ready list back as seqs. *)
let dispatch r ~now ?(dep = -1) min_issue =
  let e = Ruu.push r in
  e.Ruu.min_issue <- min_issue;
  e.Ruu.dep1 <- dep;
  Ruu.schedule r e ~now;
  e

let ready_seqs r =
  let rec go ri acc =
    if ri < 0 then List.rev acc
    else
      let e = Ruu.at r ri in
      go e.Ruu.next_ready (e.Ruu.seq :: acc)
  in
  go (Ruu.first_ready r) []

let audits r ~now =
  List.iter
    (fun (what, v) ->
      match v with
      | None -> ()
      | Some m -> Alcotest.failf "cycle %d: %s: %s" now what m)
    [
      ("audit_ready", Ruu.audit_ready r ~now);
      ("audit_waiting", Ruu.audit_waiting r);
      ("selfcheck", Ruu.selfcheck r);
    ]

let check_seqs = Alcotest.(check (list int))

(* A chain of 1-cycle producers: each link is ready exactly one cycle
   after the previous one issues, as is an entry dispatched with no
   producer, and both wait in the next-cycle list, not the heap.  Each
   cycle the independent entry is enqueued before the older link, and
   the ready list must still read oldest first. *)
let test_ruu_next_cycle_chain () =
  let r = Ruu.create ~size:16 in
  let links = 5 in
  let prev = ref (dispatch r ~now:0 1) in
  for _ = 2 to links do
    prev := dispatch r ~now:0 ~dep:!prev.Ruu.seq 1
  done;
  check_int "next wake: the dispatch batch" 1 (Ruu.next_wake r);
  audits r ~now:0;
  let independents now = List.init (now - 1) (fun i -> links + i) in
  for now = 1 to links - 1 do
    Ruu.wake r ~now;
    audits r ~now;
    let cycle fmt = Printf.sprintf ("cycle %d: " ^^ fmt) now in
    check_seqs (cycle "ready list")
      ((now - 1) :: independents now)
      (ready_seqs r);
    let link = Ruu.at r (Ruu.first_ready r) in
    ignore (dispatch r ~now (now + 1));
    Ruu.issue r link ~now ~latency:1;
    check_int (cycle "next wake") (now + 1) (Ruu.next_wake r);
    audits r ~now
  done;
  Ruu.wake r ~now:links;
  audits r ~now:links;
  check_seqs "last link and the independents, in seq order"
    ((links - 1) :: independents links)
    (ready_seqs r);
  check_int "the list drained" max_int (Ruu.next_wake r)

(* A squash between enqueue and drain, and a push that reuses the seq
   and ring slot in the same cycle: the stale record must be dropped
   and the new entry's record honoured, once. *)
let test_ruu_next_cycle_squash () =
  let r = Ruu.create ~size:4 in
  let old = dispatch r ~now:0 1 in
  let old_id = old.Ruu.id in
  Ruu.truncate r ~tail:0;
  let fresh = dispatch r ~now:0 1 in
  check_bool "same ring slot" true (old == fresh);
  check_bool "new id" true (fresh.Ruu.id <> old_id);
  audits r ~now:0;
  Ruu.wake r ~now:1;
  audits r ~now:1;
  check_seqs "seq 0 ready once" [ 0 ] (ready_seqs r);
  (* the same again, with the new entry waiting in the heap *)
  Ruu.issue r fresh ~now:1 ~latency:1;
  ignore (dispatch r ~now:1 2);
  Ruu.truncate r ~tail:1;
  ignore (dispatch r ~now:1 5);
  audits r ~now:1;
  check_int "next wake: the stale batch, conservatively" 2 (Ruu.next_wake r);
  Ruu.wake r ~now:2;
  audits r ~now:2;
  check_seqs "the stale record woke nothing" [] (ready_seqs r);
  check_int "next wake: the heap" 5 (Ruu.next_wake r);
  Ruu.wake r ~now:5;
  check_seqs "seq 1 ready at its own cycle" [ 1 ] (ready_seqs r);
  audits r ~now:5

(* A caller that skips [wake] and then dispatches or issues at a later
   cycle: the undrained batch must neither raise nor be lost or
   delayed. *)
let test_ruu_skipped_wake () =
  let r = Ruu.create ~size:8 in
  ignore (dispatch r ~now:0 1);
  (* no wake at cycle 1 *)
  ignore (dispatch r ~now:1 2);
  check_int "next wake: the undrained batch" 1 (Ruu.next_wake r);
  check_bool "audit_waiting" true (Ruu.audit_waiting r = None);
  Ruu.wake r ~now:2;
  audits r ~now:2;
  check_seqs "both batches ready" [ 0; 1 ] (ready_seqs r);
  (* now through [issue]: a producer issued three cycles late *)
  let r = Ruu.create ~size:8 in
  let p = dispatch r ~now:0 0 in
  ignore (dispatch r ~now:0 1);
  ignore (dispatch r ~now:0 ~dep:p.Ruu.seq 0);
  Ruu.issue r p ~now:3 ~latency:1;
  check_int "next wake: the cycle-1 batch" 1 (Ruu.next_wake r);
  check_bool "audit_waiting after the late issue" true
    (Ruu.audit_waiting r = None);
  Ruu.wake r ~now:3;
  audits r ~now:3;
  check_seqs "the cycle-1 entry, not delayed further" [ 1 ] (ready_seqs r);
  check_int "next wake: the consumer" 4 (Ruu.next_wake r);
  Ruu.wake r ~now:4;
  audits r ~now:4;
  check_seqs "and then the consumer" [ 1; 2 ] (ready_seqs r)

(* Random push / schedule / issue / commit / truncate / wake sequences,
   with some cycles left unwoken, audited after every step. *)
let test_ruu_random_ops () =
  List.iter
    (fun size ->
      let rng = Random.State.make [| 0x5eed; size |] in
      let r = Ruu.create ~size in
      let now = ref 0 and woken = ref true in
      for step = 1 to 20_000 do
        (match Random.State.int rng 6 with
        | 0 ->
            (* a new cycle, sometimes several, sometimes unwoken *)
            now := !now + 1 + (if Random.State.int rng 8 = 0 then 2 else 0);
            woken := Random.State.int rng 4 > 0;
            if !woken then Ruu.wake r ~now:!now
        | 1 | 2 ->
            if not (Ruu.is_full r) then begin
              let e = Ruu.push r in
              let seq = e.Ruu.seq in
              let dep () =
                if seq = 0 || Random.State.bool rng then -1
                else seq - 1 - Random.State.int rng (min seq 6)
              in
              e.Ruu.min_issue <- !now - 1 + Random.State.int rng 4;
              e.Ruu.dep1 <- dep ();
              e.Ruu.dep2 <- dep ();
              e.Ruu.dep3 <- dep ();
              Ruu.schedule r e ~now:!now
            end
        | 3 ->
            (* issue one ready entry, oldest or second oldest *)
            let ri = Ruu.first_ready r in
            if ri >= 0 then begin
              let e = Ruu.at r ri in
              let e =
                if e.Ruu.next_ready >= 0 && Random.State.bool rng then
                  Ruu.at r e.Ruu.next_ready
                else e
              in
              Ruu.issue r e ~now:!now ~latency:(Random.State.int rng 4)
            end
        | 4 ->
            if not (Ruu.is_empty r) then begin
              let h = Ruu.get r (Ruu.head_seq r) in
              if h.Ruu.issued && h.Ruu.complete_at <= !now then
                ignore (Ruu.pop r)
            end
        | _ ->
            if Random.State.int rng 4 = 0 then begin
              let lo = Ruu.head_seq r and hi = Ruu.tail_seq r in
              Ruu.truncate r ~tail:(lo + Random.State.int rng (hi - lo + 1))
            end);
        let fail what m =
          Alcotest.failf "size %d, step %d, cycle %d: %s: %s" size step !now
            what m
        in
        Option.iter (fail "audit_waiting") (Ruu.audit_waiting r);
        Option.iter (fail "selfcheck") (Ruu.selfcheck r);
        if !woken then
          Option.iter (fail "audit_ready") (Ruu.audit_ready r ~now:!now)
      done;
      check_bool (Printf.sprintf "size %d: entries committed" size) true
        (Ruu.head_seq r > size))
    [ 3; 48; 64 ]

let test_sim_ruu_48_selfcheck () =
  (* A window of 48 under a real predictor, so squashes truncate the
     ring across its wrap points: the self-checked run (every cycle,
     every RUU invariant) must agree with the plain one field for
     field. *)
  let w = Option.get (T1000_workloads.Registry.find "unepic") in
  let mconfig =
    {
      Mconfig.default with
      Mconfig.ruu_size = 48;
      bpred = T1000_bpred.Predictor.Gshare 11;
    }
  in
  let sim selfcheck =
    Sim.run ~mconfig ~selfcheck ~init:w.T1000_workloads.Workload.init
      w.T1000_workloads.Workload.program
  in
  let plain = sim false and audited = sim true in
  check_bool "stats equal with and without selfcheck" true (plain = audited);
  check_bool "the window fills" true (plain.Stats.ruu_full_stalls > 0);
  check_bool "squashes happen" true (plain.Stats.branch_mispredicts > 0)

(* ---------- Sim ---------- *)

let build f =
  let b = Builder.create () in
  f b;
  Builder.build b

let run ?mconfig ?ext_latency ?ext_eval ?(init = fun _ _ -> ()) p =
  Sim.run ?mconfig ?ext_latency ?ext_eval ~init p

let test_sim_commits_everything () =
  let p =
    build (fun b ->
        Builder.li b R.t0 10;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let s = run p in
  check_int "committed = dynamic instructions" 22 s.Stats.committed;
  check_bool "cycles positive" true (s.Stats.cycles > 0);
  check_bool "ipc bounded by width" true (s.Stats.ipc <= 4.0)

let test_sim_dependent_chain_serializes () =
  (* a warmed loop (instruction cache hot after the first iteration)
     whose body is 8 dependent adds vs 8 independent adds: the chain
     bounds the loop to >= 8 cycles/iteration; the independent body
     runs close to 4 instructions per cycle *)
  let iters = 100 in
  let dep =
    build (fun b ->
        Builder.li b R.t0 iters;
        Builder.li b R.t1 1;
        Builder.label b "top";
        for _ = 1 to 8 do
          Builder.addu b R.t1 R.t1 R.t1
        done;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let indep =
    build (fun b ->
        Builder.li b R.t0 iters;
        Builder.li b R.t9 1;
        Builder.label b "top";
        for i = 1 to 8 do
          Builder.addu b (Reg.of_int (8 + i)) R.t9 R.t9
        done;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let sd = run dep and si = run indep in
  check_bool "chain >= 8 cycles/iteration" true
    (sd.Stats.cycles >= 8 * iters);
  check_bool "independent at least 2x faster" true
    (si.Stats.cycles * 2 <= sd.Stats.cycles)

let test_sim_issue_width_limits () =
  (* 2-wide machine is slower than 4-wide on independent work *)
  let p =
    build (fun b ->
        Builder.li b R.t0 1;
        for i = 1 to 64 do
          Builder.addu b (Reg.of_int (8 + (i mod 8))) R.t0 R.t0
        done;
        Builder.halt b)
  in
  let narrow =
    {
      Mconfig.default with
      Mconfig.fetch_width = 2;
      decode_width = 2;
      issue_width = 2;
      commit_width = 2;
    }
  in
  let s4 = run p and s2 = run ~mconfig:narrow p in
  check_bool "2-wide slower" true (s2.Stats.cycles > s4.Stats.cycles)

let test_sim_load_latency () =
  (* a cold load on the critical path costs the full hierarchy latency *)
  let p =
    build (fun b ->
        Builder.li b R.t0 0x1000;
        Builder.lw b R.t1 0 R.t0;
        Builder.addu b R.t2 R.t1 R.t1 (* depends on the load *);
        Builder.halt b)
  in
  let s = run p in
  let cfg = Mconfig.default.Mconfig.cache in
  check_bool "cycles include the miss chain" true
    (s.Stats.cycles
    >= cfg.T1000_cache.Hierarchy.l2_hit + cfg.T1000_cache.Hierarchy.mem)

let test_sim_store_load_dependence () =
  (* a load from the same word as an in-flight store must wait *)
  let p =
    build (fun b ->
        Builder.li b R.t0 0x1000;
        Builder.li b R.t1 7;
        Builder.sw b R.t1 0 R.t0;
        Builder.lw b R.t2 0 R.t0;
        Builder.halt b)
  in
  (* correctness is the interpreter's job; here we only require the
     simulator to run it to completion with in-order memory semantics *)
  let s = run p in
  check_int "all committed" 5 s.Stats.committed

let test_sim_ext_instr_timing () =
  (* one hot loop with one extended instruction: after the initial
     configuration load, every use hits *)
  let eval _ v1 _ = Word.add v1 1 in
  let p =
    build (fun b ->
        Builder.li b R.t0 50;
        Builder.label b "top";
        Builder.ext b 0 R.t1 R.t0 R.zero;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let mconfig = Mconfig.with_pfus ~penalty:10 (Some 2) Mconfig.default in
  let s = run ~mconfig ~ext_eval:eval p in
  check_int "one reconfiguration" 1 s.Stats.pfu_misses;
  check_int "the rest hit" 49 s.Stats.pfu_hits;
  check_int "ext committed" 50 s.Stats.ext_committed

let test_sim_thrashing () =
  (* three configurations alternating in one loop with two PFUs: every
     dispatch misses; with zero penalty the same loop barely changes *)
  let eval eid v1 _ = Word.add v1 eid in
  let mk_prog () =
    build (fun b ->
        Builder.li b R.t0 100;
        Builder.label b "top";
        Builder.ext b 0 R.t1 R.t0 R.zero;
        Builder.ext b 1 R.t2 R.t0 R.zero;
        Builder.ext b 2 R.t3 R.t0 R.zero;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let run_pen pen =
    run
      ~mconfig:(Mconfig.with_pfus ~penalty:pen (Some 2) Mconfig.default)
      ~ext_eval:eval (mk_prog ())
  in
  let s10 = run_pen 10 and s0 = run_pen 0 in
  check_bool "every use reconfigures" true (s10.Stats.pfu_misses >= 290);
  check_bool "penalty dominates runtime" true
    (s10.Stats.cycles > 2 * s0.Stats.cycles);
  (* with 3 PFUs the same program stops thrashing *)
  let s3 =
    run
      ~mconfig:(Mconfig.with_pfus ~penalty:10 (Some 3) Mconfig.default)
      ~ext_eval:eval (mk_prog ())
  in
  check_int "three PFUs: only cold misses" 3 s3.Stats.pfu_misses

let test_sim_ext_latency_honoured () =
  let eval _ v1 _ = v1 in
  let p =
    build (fun b ->
        Builder.li b R.t0 20;
        (* a straight-line chain of dependent extended instructions *)
        for _ = 1 to 20 do
          Builder.ext b 0 R.t0 R.t0 R.zero
        done;
        Builder.halt b)
  in
  let mconfig = Mconfig.with_pfus ~penalty:0 None Mconfig.default in
  let fast = run ~mconfig ~ext_eval:eval ~ext_latency:(fun _ -> 1) p in
  let slow = run ~mconfig ~ext_eval:eval ~ext_latency:(fun _ -> 8) p in
  check_bool "slower PFUs lengthen execution" true
    (slow.Stats.cycles > fast.Stats.cycles)

let test_sim_zero_latency_wakeup () =
  (* A 0-cycle extended instruction feeds a dependent ALU op: the
     consumer must issue in the same cycle, within the same issue pass
     as its producer.  Warm loop, so the chain, not the I-cache, sets
     the pace; the cycle counts are those of the per-cycle window
     scan the event-driven scheduler replaced. *)
  let p =
    build (fun b ->
        Builder.li b R.t2 50;
        Builder.li b R.t0 5;
        Builder.label b "top";
        for _ = 1 to 4 do
          Builder.ext b 0 R.t1 R.t0 R.zero;
          Builder.addu b R.t0 R.t1 R.t1
        done;
        Builder.addiu b R.t2 R.t2 (-1);
        Builder.bgtz b R.t2 "top";
        Builder.halt b)
  in
  let mconfig = Mconfig.with_pfus ~penalty:0 None Mconfig.default in
  let cycles latency =
    (Sim.run ~mconfig ~selfcheck:true
       ~ext_latency:(fun _ -> latency)
       ~ext_eval:(fun _ v _ -> v)
       ~init:(fun _ _ -> ())
       p)
      .Stats.cycles
  in
  check_int "latency 0: consumer wakes in the same pass" 319 (cycles 0);
  check_int "latency 1" 515 (cycles 1)

(* Greedy-style thrash on one PFU with a 500-cycle reconfiguration:
   three configurations alternate in a loop, so each extended
   instruction reloads the single unit while the next one stalls
   dispatch on it.  Nearly every cycle is dead. *)
let thrash_program iterations =
  build (fun b ->
      Builder.li b R.t0 iterations;
      Builder.label b "top";
      Builder.ext b 0 R.t1 R.t0 R.zero;
      Builder.ext b 1 R.t2 R.t0 R.zero;
      Builder.ext b 2 R.t3 R.t0 R.zero;
      Builder.addiu b R.t0 R.t0 (-1);
      Builder.bgtz b R.t0 "top";
      Builder.halt b)

let thrash_mconfig = Mconfig.with_pfus ~penalty:500 (Some 1) Mconfig.default
let thrash_eval eid v1 _ = Word.add v1 eid

let test_sim_dead_cycle_skip () =
  (* Self-check executes every cycle and audits each skippable span;
     the skipping run must return the same statistics, field for
     field, under the perfect front end and a speculative one. *)
  let p = thrash_program 30 in
  List.iter
    (fun bpred ->
      let mconfig = { thrash_mconfig with Mconfig.bpred } in
      let name = T1000_bpred.Predictor.spec_to_string bpred in
      let sim selfcheck =
        let before = T1000_obs.Metrics.get "sim.skipped_cycles" in
        let s =
          Sim.run ~mconfig ~ext_eval:thrash_eval ~selfcheck
            ~init:(fun _ _ -> ())
            p
        in
        (s, T1000_obs.Metrics.get "sim.skipped_cycles" - before)
      in
      let skipping, skipped = sim false in
      let audited, audited_skipped = sim true in
      check_bool (name ^ ": stats equal with and without skipping") true
        (skipping = audited);
      check_bool (name ^ ": the thrash stalls dispatch") true
        (skipping.Stats.pfu_stalls > 0);
      check_bool (name ^ ": most cycles skipped") true
        (2 * skipped > skipping.Stats.cycles);
      check_int (name ^ ": self-check counts the same spans") skipped
        audited_skipped)
    [ T1000_bpred.Predictor.Perfect; T1000_bpred.Predictor.Gshare 11 ]

let test_sim_allocation_free () =
  (* The per-instruction and per-cycle work of [Sim.run] allocates
     nothing: minor words per committed instruction stay near zero on
     a loop of loads, stores, ALU ops and branches, under a real
     predictor too (fixed per-run set-up is amortised over ~20k
     instructions), and on the PFU thrash, whose cycles are mostly
     skipped. *)
  let p =
    build (fun b ->
        Builder.li b R.t0 2000;
        Builder.li b R.t1 0x1000;
        Builder.label b "top";
        Builder.lw b R.t2 0 R.t1;
        Builder.addu b R.t2 R.t2 R.t0;
        Builder.sw b R.t2 4 R.t1;
        Builder.andi b R.t3 R.t0 3;
        Builder.bne b R.t3 R.zero "skip";
        Builder.addiu b R.t1 R.t1 8;
        Builder.label b "skip";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let thrash = thrash_program 2000 in
  List.iter
    (fun (name, sim) ->
      let before = Gc.minor_words () in
      let s = sim () in
      let words = Gc.minor_words () -. before in
      let per_instr = words /. float_of_int s.Stats.committed in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per instruction" name per_instr)
        true (per_instr < 2.0))
    (List.map
       (fun bpred ->
         ( T1000_bpred.Predictor.spec_to_string bpred,
           fun () -> run ~mconfig:{ Mconfig.default with Mconfig.bpred } p ))
       [ T1000_bpred.Predictor.Perfect; T1000_bpred.Predictor.Gshare 11 ]
    @ [
        ( "pfu thrash",
          fun () -> run ~mconfig:thrash_mconfig ~ext_eval:thrash_eval thrash );
      ])

let test_sim_ruu_pressure () =
  (* a 4-entry RUU cannot overlap iterations like a 64-entry one *)
  let p =
    build (fun b ->
        Builder.li b R.t0 200;
        Builder.li b R.t9 1;
        Builder.label b "top";
        for i = 1 to 8 do
          Builder.addu b (Reg.of_int (8 + i)) R.t9 R.t9
        done;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let tiny = { Mconfig.default with Mconfig.ruu_size = 4 } in
  let s_small = run ~mconfig:tiny p in
  let s_big = run p in
  check_bool "ruu-full stalls occur" true (s_small.Stats.ruu_full_stalls > 0);
  check_bool "small window strictly slower" true
    (s_small.Stats.cycles > s_big.Stats.cycles)

let test_sim_branch_prediction () =
  (* loop branch: taken 99x then falls through - bimodal mispredicts
     only around the ends; a data-dependent alternating branch
     mispredicts constantly *)
  let loop_p =
    build (fun b ->
        Builder.li b R.t0 100;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let alt_p =
    build (fun b ->
        Builder.li b R.t0 100;
        Builder.li b R.t1 0;
        Builder.label b "top";
        Builder.xori b R.t1 R.t1 1 (* 0,1,0,1,... *);
        Builder.beq b R.t1 R.zero "skip";
        Builder.nop b;
        Builder.label b "skip";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let bimodal =
    (* 2^8 = 256 counters *)
    { Mconfig.default with Mconfig.bpred = T1000_bpred.Predictor.Bimodal 8 }
  in
  let perf_loop = run loop_p in
  let bi_loop = run ~mconfig:bimodal loop_p in
  check_int "perfect never mispredicts" 0 perf_loop.Stats.branch_mispredicts;
  check_bool "loop branch predicts well" true
    (bi_loop.Stats.branch_mispredicts <= 4);
  check_int "one squash per loop mispredict" bi_loop.Stats.branch_mispredicts
    bi_loop.Stats.squashes;
  let perf_alt = run alt_p in
  let bi_alt = run ~mconfig:bimodal alt_p in
  check_bool "alternating branch mispredicts a lot" true
    (bi_alt.Stats.branch_mispredicts >= 40);
  check_int "one squash per alternating mispredict"
    bi_alt.Stats.branch_mispredicts bi_alt.Stats.squashes;
  check_bool "mispredictions cost cycles" true
    (bi_alt.Stats.cycles > perf_alt.Stats.cycles);
  check_int "same committed count" perf_alt.Stats.committed
    bi_alt.Stats.committed

let test_sim_btb_indirect () =
  (* a jr returning to the same site is learned by the BTB: the second
     call predicts correctly *)
  let p =
    build (fun b ->
        Builder.li b R.t0 3;
        Builder.label b "top";
        Builder.jal b "fn";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b;
        Builder.label b "fn";
        Builder.jr b R.ra)
  in
  let bimodal =
    { Mconfig.default with Mconfig.bpred = T1000_bpred.Predictor.Bimodal 8 }
  in
  let s = run ~mconfig:bimodal p in
  (* the jr always returns to the same slot: only the first (cold)
     prediction can miss, plus at most a couple of loop-branch misses *)
  check_bool "btb learns the return target" true
    (s.Stats.branch_mispredicts <= 4);
  check_int "one squash per mispredict" s.Stats.branch_mispredicts
    s.Stats.squashes;
  check_int "everything commits" 14 s.Stats.committed

let test_sim_cfgld_prefetch () =
  (* one extended instruction used once, far from program start, with a
     200-cycle reconfiguration: a cfgld hint at the start hides most of
     the load behind independent work *)
  let eval _ v1 _ = Word.add v1 1 in
  let mk with_hint =
    build (fun b ->
        if with_hint then Builder.raw b (Instr.Cfgld 0);
        Builder.li b R.t9 1;
        (* filler work: ~200 cycles of dependent adds *)
        Builder.li b R.t0 200;
        Builder.label b "fill";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "fill";
        Builder.ext b 0 R.t1 R.t9 R.zero;
        Builder.halt b)
  in
  let mconfig = Mconfig.with_pfus ~penalty:200 (Some 2) Mconfig.default in
  let cold = run ~mconfig ~ext_eval:eval (mk false) in
  let hinted = run ~mconfig ~ext_eval:eval (mk true) in
  check_bool "prefetch hides most of the reload" true
    (hinted.Stats.cycles + 150 < cold.Stats.cycles);
  (* the hint itself commits like a nop *)
  check_int "one more committed instr" (cold.Stats.committed + 1)
    hinted.Stats.committed

let test_sim_mem_port_contention () =
  (* a loop of independent loads: 2 memory ports bound throughput to
     2 loads/cycle; 1 port halves it *)
  let p =
    build (fun b ->
        Builder.li b R.t0 200;
        Builder.li b R.t9 0x1000;
        Builder.label b "top";
        for i = 0 to 3 do
          Builder.lw b (Reg.of_int (9 + i)) (4 * i) R.t9
        done;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let one_port = { Mconfig.default with Mconfig.n_mem_ports = 1 } in
  let s2 = run p and s1 = run ~mconfig:one_port p in
  (* 4 loads/iter: >= 2 cycles with 2 ports, >= 4 with 1 port *)
  check_bool "two ports bound" true (s2.Stats.cycles >= 2 * 200);
  check_bool "one port clearly slower" true
    (s1.Stats.cycles * 10 >= s2.Stats.cycles * 15)

let test_sim_commit_width () =
  (* commit width 1 bounds IPC at 1 even for independent work *)
  let p =
    build (fun b ->
        Builder.li b R.t0 200;
        Builder.li b R.t9 1;
        Builder.label b "top";
        for i = 1 to 6 do
          Builder.addu b (Reg.of_int (8 + i)) R.t9 R.t9
        done;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let narrow_commit = { Mconfig.default with Mconfig.commit_width = 1 } in
  let s = run ~mconfig:narrow_commit p in
  check_bool "ipc <= 1 with single commit" true (s.Stats.ipc <= 1.0 +. 1e-9);
  let s4 = run p in
  check_bool "4-wide commit much faster" true
    (s4.Stats.cycles * 2 < s.Stats.cycles)

let test_sim_new_stats () =
  let p =
    build (fun b ->
        Builder.li b R.t0 100;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let s = run p in
  check_bool "occupancy positive" true (s.Stats.avg_ruu_occupancy > 0.0);
  check_bool "occupancy within window" true
    (s.Stats.avg_ruu_occupancy
    <= float_of_int Mconfig.default.Mconfig.ruu_size);
  check_bool "some cold-start fetch stalls" true
    (s.Stats.fetch_stall_cycles >= 0)

let test_sim_stall_units () =
  (* Dispatch stops at its first block, so each of the two dispatch
     stall counters rises at most once per cycle, and a skipped span
     adds k times one quiet cycle's count: both are cycle counts.  A
     single PFU with a 500-cycle penalty blocks dispatch on both under
     selective, and on the PFU in almost every cycle under greedy. *)
  let w = Option.get (T1000_workloads.Registry.find "g721_enc") in
  let stats method_ =
    (T1000.Runner.run w
       (T1000.Runner.setup ~selfcheck:false ~n_pfus:(Some 1) ~penalty:500
          method_))
      .T1000.Runner.stats
  in
  let greedy = stats T1000.Runner.Greedy
  and selective = stats T1000.Runner.Selective in
  check_bool "greedy stalls on the PFU" true (greedy.Stats.pfu_stalls > 0);
  check_bool "selective stalls on the PFU" true
    (selective.Stats.pfu_stalls > 0);
  check_bool "selective fills the window" true
    (selective.Stats.ruu_full_stalls > 0);
  List.iter
    (fun (name, s) ->
      check_bool (name ^ ": pfu + ruu-full stalls <= cycles") true
        (s.Stats.pfu_stalls + s.Stats.ruu_full_stalls <= s.Stats.cycles))
    [ ("greedy", greedy); ("selective", selective) ]

let test_sim_max_cycles () =
  let p =
    build (fun b ->
        Builder.li b R.t0 1000;
        Builder.label b "top";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let m = { Mconfig.default with Mconfig.max_cycles = 10 } in
  check_bool "max_cycles enforced" true
    (match run ~mconfig:m p with
    | exception Sim.Sim_stuck s ->
        s.Sim.reason = `Cycle_budget && s.Sim.limit = 10
    | _ -> false)

(* ---------- Directed corpus ---------- *)

(* Scheduler-directed programs under test/corpus: each runs through the
   interpreter and through the self-checked simulator under every
   predictor.  Extended instructions add their operands and take 0
   cycles on unlimited PFUs. *)
let corpus_dir = "corpus"

let test_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
  in
  check_bool "the corpus has its four programs" true (List.length files >= 4);
  let ext_eval _ a b = Word.add a b in
  let base = Mconfig.with_pfus ~penalty:0 None Mconfig.default in
  List.iter
    (fun file ->
      let src =
        In_channel.with_open_text (Filename.concat corpus_dir file)
          In_channel.input_all
      in
      let p =
        match Asm_text.parse ~name:file src with
        | Ok p -> p
        | Error m -> Alcotest.failf "%s: %s" file m
      in
      let steps =
        T1000_machine.Interp.run (T1000_machine.Interp.create ~ext_eval p)
      in
      List.iter
        (fun bpred ->
          let name =
            Printf.sprintf "%s under %s" file
              (T1000_bpred.Predictor.spec_to_string bpred)
          in
          let mconfig = { base with Mconfig.bpred } in
          let sim selfcheck =
            Sim.run ~mconfig ~selfcheck ~ext_latency:(fun _ -> 0) ~ext_eval
              ~init:(fun _ _ -> ())
              p
          in
          let audited = sim true in
          check_int (name ^ ": committed = interpreter steps") steps
            audited.Stats.committed;
          check_bool (name ^ ": stats equal with and without selfcheck") true
            (audited = sim false);
          let squashy = file = "branchy_loop.s" in
          if squashy && not (T1000_bpred.Predictor.is_perfect bpred) then
            check_bool (name ^ ": squashes") true (audited.Stats.squashes > 0))
        T1000_bpred.Predictor.[ Perfect; Bimodal 11; Gshare 11 ])
    files

let test_stats_speedup () =
  let base = run (build (fun b -> Builder.li b R.t0 1; Builder.halt b)) in
  check_bool "speedup vs self is 1" true
    (abs_float (Stats.speedup ~baseline:base base -. 1.0) < 1e-9)

let () =
  Alcotest.run "t1000_ooo"
    [
      ("mconfig", [ Alcotest.test_case "basics" `Quick test_mconfig ]);
      ( "pfu_file",
        [
          Alcotest.test_case "unlimited" `Quick test_pfu_unlimited;
          Alcotest.test_case "lru eviction" `Quick test_pfu_lru_eviction;
          Alcotest.test_case "pinning stall" `Quick test_pfu_pinning_stall;
          Alcotest.test_case "fifo" `Quick test_pfu_fifo;
          Alcotest.test_case "zero units" `Quick test_pfu_zero_units;
          Alcotest.test_case "lru misses non-increasing in pfu count" `Quick
            test_pfu_lru_misses_monotone;
        ] );
      ( "ruu",
        [
          Alcotest.test_case "ring" `Quick test_ruu_ring;
          Alcotest.test_case "field reset" `Quick test_ruu_fields_reset;
          Alcotest.test_case "sizes not a power of two" `Quick
            test_ruu_odd_sizes;
          Alcotest.test_case "next-cycle chain" `Quick
            test_ruu_next_cycle_chain;
          Alcotest.test_case "squash before the next-cycle drain" `Quick
            test_ruu_next_cycle_squash;
          Alcotest.test_case "skipped wake" `Quick test_ruu_skipped_wake;
          Alcotest.test_case "randomized operations under audit" `Quick
            test_ruu_random_ops;
        ] );
      ( "sim",
        [
          Alcotest.test_case "commits everything" `Quick
            test_sim_commits_everything;
          Alcotest.test_case "dependence serializes" `Quick
            test_sim_dependent_chain_serializes;
          Alcotest.test_case "issue width" `Quick test_sim_issue_width_limits;
          Alcotest.test_case "load latency" `Quick test_sim_load_latency;
          Alcotest.test_case "store-load dependence" `Quick
            test_sim_store_load_dependence;
          Alcotest.test_case "ext timing" `Quick test_sim_ext_instr_timing;
          Alcotest.test_case "thrashing" `Quick test_sim_thrashing;
          Alcotest.test_case "ext latency" `Quick
            test_sim_ext_latency_honoured;
          Alcotest.test_case "zero-latency wakeup" `Quick
            test_sim_zero_latency_wakeup;
          Alcotest.test_case "dead-cycle skip" `Quick test_sim_dead_cycle_skip;
          Alcotest.test_case "allocation-free hot loop" `Quick
            test_sim_allocation_free;
          Alcotest.test_case "ruu pressure" `Quick test_sim_ruu_pressure;
          Alcotest.test_case "odd ruu size under selfcheck" `Quick
            test_sim_ruu_48_selfcheck;
          Alcotest.test_case "branch prediction" `Quick
            test_sim_branch_prediction;
          Alcotest.test_case "btb indirect" `Quick test_sim_btb_indirect;
          Alcotest.test_case "cfgld prefetch" `Quick
            test_sim_cfgld_prefetch;
          Alcotest.test_case "mem-port contention" `Quick
            test_sim_mem_port_contention;
          Alcotest.test_case "commit width" `Quick test_sim_commit_width;
          Alcotest.test_case "new stats" `Quick test_sim_new_stats;
          Alcotest.test_case "stall counters are cycle counts" `Quick
            test_sim_stall_units;
          Alcotest.test_case "max cycles" `Quick test_sim_max_cycles;
          Alcotest.test_case "speedup" `Quick test_stats_speedup;
        ] );
      ("corpus", [ Alcotest.test_case "directed programs" `Quick test_corpus ]);
    ]
