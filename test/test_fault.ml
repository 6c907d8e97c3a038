(* Tests for the robustness layer: the fault taxonomy, the
   fault-isolating pool variant, the checkpoint journal (including
   corruption recovery), Runner setup validation, the simulator
   watchdog, self-check mode, and the end-to-end properties the layer
   exists for — a fault in one workload leaves every other row intact,
   and a killed sweep resumed against its journal reproduces the
   uninterrupted rows exactly. *)

open T1000_isa
open T1000_asm
open T1000_ooo
open T1000
open T1000_workloads
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Unix.putenv cannot unset; every T1000_* variable treats the empty
   string as unset, so restoring "" is equivalent. *)
let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match saved with Some s -> s | None -> ""))
    f

let build f =
  let b = Builder.create () in
  f b;
  Builder.build b

let loop_program () =
  build (fun b ->
      Builder.li b R.t0 1000;
      Builder.label b "top";
      Builder.addiu b R.t0 R.t0 (-1);
      Builder.bgtz b R.t0 "top";
      Builder.halt b)

let workload name =
  match Registry.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

(* ---------- Fault ---------- *)

let test_fault_classify () =
  check_bool "Error unwraps" true
    (Fault.of_exn (Fault.Error (Fault.Invalid_config "bad"))
    = Fault.Invalid_config "bad");
  check_bool "interpreter fault mapped" true
    (match Fault.of_exn (T1000_machine.Interp.Fault "whoops") with
    | Fault.Interp_fault "whoops" -> true
    | _ -> false);
  check_bool "selfcheck violation mapped" true
    (match Fault.of_exn (Sim.Selfcheck_violation "ruu") with
    | Fault.Selfcheck_failed "ruu" -> true
    | _ -> false);
  check_bool "anything else crashes with backtrace" true
    (match Fault.of_exn ~backtrace:"bt" (Failure "boom") with
    | Fault.Crashed { exn; backtrace = "bt" } ->
        (* the exact rendering is Printexc's business *)
        String.length exn > 0
    | _ -> false);
  check_int "invalid config exits 2" 2 (Fault.exit_code (Fault.Invalid_config "x"));
  check_int "other faults exit 3" 3 (Fault.exit_code (Fault.Injected "x"));
  check_bool "renderable" true
    (String.length (Fault.to_string (Fault.Invalid_config "x")) > 0)

let test_fault_getenv_bool () =
  let get v =
    with_env "T1000_METRICS" v (fun () -> Fault.getenv_bool "T1000_METRICS")
  in
  check_bool "empty is false" false (get "");
  check_bool "0 is false" false (get "0");
  check_bool "no is false" false (get "no");
  check_bool "1 is true" true (get "1");
  check_bool "true is true" true (get "true");
  check_bool "garbage rejected" true
    (match get "maybe" with
    | _ -> false
    | exception Fault.Error (Fault.Invalid_config _) -> true)

(* ---------- Pool.parallel_map_result ---------- *)

let test_pool_isolation () =
  let f i =
    if i = 37 || i = 500 then failwith (Printf.sprintf "boom-%d" i) else i * i
  in
  let notified = Atomic.make 0 in
  let rs =
    Pool.parallel_map_result ~njobs:4
      ~on_result:(fun _ _ -> Atomic.incr notified)
      f (List.init 1000 Fun.id)
  in
  check_int "every task has a result" 1000 (List.length rs);
  check_int "every task notified once" 1000 (Atomic.get notified);
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          check_bool "only the failing indices fail" true
            (i <> 37 && i <> 500);
          check_int "value in input order" (i * i) v
      | Error (Fault.Crashed { exn; _ }) ->
          check_bool "failures land at their own index" true
            (i = 37 || i = 500);
          check_bool "original message kept" true
            (exn = Printexc.to_string (Failure (Printf.sprintf "boom-%d" i)))
      | Error _ -> Alcotest.fail "unexpected fault class")
    rs;
  (* sequential path behaves identically (modulo the recorded
     backtrace, which legitimately differs between a domain and the
     calling thread) *)
  let shape =
    List.map (function
      | Ok v -> Ok v
      | Error f -> Error (match f with Fault.Crashed { exn; _ } -> exn | _ -> ""))
  in
  check_bool "njobs=1 matches" true
    (shape (Pool.parallel_map_result ~njobs:1 f (List.init 1000 Fun.id))
    = shape rs);
  check_bool "empty input" true (Pool.parallel_map_result ~njobs:4 f [] = [])

(* ---------- Checkpoint ---------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "t1000_ckpt_%d_%d" (Unix.getpid ()) !n)
    in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)));
    d

let test_checkpoint_roundtrip () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"s52" () in
  check_int "starts empty" 0 (Checkpoint.completed j);
  Checkpoint.record j ~key:"a" 3.5;
  Checkpoint.record j ~key:"b" (10, 1.25, 2.5);
  Checkpoint.record j ~key:"a" 4.5;
  check_int "overwrite keeps one binding" 2 (Checkpoint.completed j);
  check_bool "no temp file left behind" false
    (Sys.file_exists (Checkpoint.path j ^ ".tmp"));
  (* a second open (a resumed process) sees exactly what was recorded *)
  let j2 = Checkpoint.create ~dir ~run:"s52" () in
  check_bool "healthy journal" true (Checkpoint.corrupt j2 = []);
  check_bool "float round-trips exactly" true
    (Checkpoint.find j2 ~key:"a" = Some 4.5);
  check_bool "tuple round-trips" true
    (Checkpoint.find j2 ~key:"b" = Some (10, 1.25, 2.5));
  check_bool "mem agrees" true
    (Checkpoint.mem j2 ~key:"a" && not (Checkpoint.mem j2 ~key:"zzz"));
  (* fresh:true discards it *)
  let j3 = Checkpoint.create ~fresh:true ~dir ~run:"s52" () in
  check_int "fresh starts over" 0 (Checkpoint.completed j3)

let corrupt_first_line path =
  let lines =
    In_channel.with_open_text path In_channel.input_lines
  in
  match lines with
  | [] -> Alcotest.fail "journal unexpectedly empty"
  | first :: rest ->
      let b = Bytes.of_string first in
      let last = Bytes.length b - 1 in
      Bytes.set b last (if Bytes.get b last = '0' then '1' else '0');
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun l -> Out_channel.output_string oc (l ^ "\n"))
            (Bytes.to_string b :: rest))

let test_checkpoint_corruption () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"f2" () in
  Checkpoint.record j ~key:"alpha" 1.0;
  Checkpoint.record j ~key:"beta" 2.0;
  corrupt_first_line (Checkpoint.path j);
  let j2 = Checkpoint.create ~dir ~run:"f2" () in
  check_int "one record dropped" 1 (List.length (Checkpoint.corrupt j2));
  check_int "the other survives" 1 (Checkpoint.completed j2);
  (* the survivor is intact, the damaged one reads as absent *)
  check_bool "exactly one of the two is gone" true
    (match (Checkpoint.find j2 ~key:"alpha", Checkpoint.find j2 ~key:"beta") with
    | Some 1.0, None | None, Some 2.0 -> true
    | _ -> false)

let test_checkpoint_empty_file () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"empty" () in
  (* an empty journal file — e.g. a crash between open and first flush *)
  Out_channel.with_open_bin (Checkpoint.path j) (fun _ -> ());
  let j2 = Checkpoint.create ~dir ~run:"empty" () in
  check_int "no records" 0 (Checkpoint.completed j2);
  check_bool "and nothing corrupt" true (Checkpoint.corrupt j2 = []);
  Checkpoint.record j2 ~key:"k" 1.0;
  let j3 = Checkpoint.create ~dir ~run:"empty" () in
  check_bool "recording into it works" true
    (Checkpoint.find j3 ~key:"k" = Some 1.0)

let test_checkpoint_torn_last_line () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"torn" () in
  Checkpoint.record j ~key:"a" 1.0;
  Checkpoint.record j ~key:"b" 2.0;
  (* records append in the order recorded, so chopping the tail tears
     "b" *)
  let path = Checkpoint.path j in
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub s 0 (String.length s - 5)));
  let j2 = Checkpoint.create ~dir ~run:"torn" () in
  check_int "torn record dropped" 1 (List.length (Checkpoint.corrupt j2));
  check_int "the other survives" 1 (Checkpoint.completed j2);
  check_bool "survivor intact, torn one absent" true
    (Checkpoint.find j2 ~key:"a" = Some 1.0
    && (Checkpoint.find j2 ~key:"b" : float option) = None);
  (* the load compacted the torn tail away, so recomputing the torn
     point appends a whole line and heals the journal *)
  Checkpoint.record j2 ~key:"b" 2.0;
  let j3 = Checkpoint.create ~dir ~run:"torn" () in
  check_bool "healed" true
    (Checkpoint.corrupt j3 = []
    && Checkpoint.find j3 ~key:"b" = Some 2.0
    && Checkpoint.find j3 ~key:"a" = Some 1.0)

let test_checkpoint_duplicate_key_last_wins () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"dup" () in
  Checkpoint.record j ~key:"k" 1.0;
  let path = Checkpoint.path j in
  let old_line =
    match In_channel.with_open_text path In_channel.input_lines with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected one journal line, got %d" (List.length ls)
  in
  Checkpoint.record j ~key:"k" 2.0;
  (* a crashed writer appends the stale record after the current one *)
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (s ^ old_line ^ "\n"));
  let j2 = Checkpoint.create ~dir ~run:"dup" () in
  check_bool "both records parse" true (Checkpoint.corrupt j2 = []);
  check_int "one binding" 1 (Checkpoint.completed j2);
  check_bool "the last record wins" true (Checkpoint.find j2 ~key:"k" = Some 1.0)

(* The journal line format as the per-byte [Printf] encoder wrote it. *)
let reference_hex s =
  String.concat "" (List.init (String.length s) (fun i ->
      Printf.sprintf "%02x" (Char.code s.[i])))

let journal_line ~key_hex ~key payload =
  Printf.sprintf "t1000v1 %s %s %s\n"
    (Digest.to_hex (Digest.string (key ^ "\x00" ^ payload)))
    key_hex (reference_hex payload)

let test_checkpoint_hex_all_bytes () =
  let dir = fresh_dir () in
  let all = String.init 256 Char.chr in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"bytes" () in
  Checkpoint.record j ~key:all all;
  Alcotest.(check string)
    "the line is the per-byte encoding"
    (journal_line ~key_hex:(reference_hex all) ~key:all
       (Marshal.to_string all []))
    (In_channel.with_open_bin (Checkpoint.path j) In_channel.input_all);
  let j2 = Checkpoint.create ~dir ~run:"bytes" () in
  check_bool "healthy" true (Checkpoint.corrupt j2 = []);
  check_bool "all 256 byte values round-trip" true
    (Checkpoint.find j2 ~key:all = Some all)

(* A journal line, byte for byte as the journal has always written it:
   resumed runs read journals written before the codec changed. *)
let test_checkpoint_pinned_line () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"pin" () in
  Checkpoint.record j ~key:"f2/unepic\x00\xff" (42, "ok");
  Alcotest.(check string)
    "journal bytes"
    "t1000v1 64c9938307397b0baab86cf7d10337ae 66322f756e6570696300ff \
     8495a6be00000005000000020000000500000005a06a226f6b\n"
    (In_channel.with_open_bin (Checkpoint.path j) In_channel.input_all)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

(* The compacted journal of string records [k -> k]: sorted by key. *)
let compacted keys =
  String.concat ""
    (List.map
       (fun k -> journal_line ~key_hex:(reference_hex k) ~key:k
           (Marshal.to_string k []))
       (List.sort compare keys))

let test_checkpoint_append () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"append" () in
  Checkpoint.record j ~key:"b" "b";
  let path = Checkpoint.path j in
  let before = read_bytes path in
  Checkpoint.record j ~key:"a" "a";
  Alcotest.(check string)
    "the file grows by exactly the new line" (before ^ compacted [ "a" ])
    (read_bytes path);
  check_bool "no temp file" false (Sys.file_exists (path ^ ".tmp"))

let test_checkpoint_clean_open () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"clean" () in
  (* out of key order, which a compaction would sort *)
  List.iter (fun k -> Checkpoint.record j ~key:k k) [ "c"; "a"; "b" ];
  let path = Checkpoint.path j in
  let bytes = read_bytes path and inode = (Unix.stat path).Unix.st_ino in
  let j2 = Checkpoint.create ~dir ~run:"clean" () in
  check_int "every record loads" 3 (Checkpoint.completed j2);
  Alcotest.(check string) "bytes unchanged" bytes (read_bytes path);
  check_int "the same file, not a renamed copy" inode
    (Unix.stat path).Unix.st_ino

let test_checkpoint_load_compacts () =
  let dir = fresh_dir () in
  let compacts what damage live =
    let j = Checkpoint.create ~fresh:true ~dir ~run:"compact" () in
    List.iter (fun k -> Checkpoint.record j ~key:k k) [ "c"; "a"; "b" ];
    let path = Checkpoint.path j in
    damage j path;
    ignore (Checkpoint.create ~dir ~run:"compact" ());
    Alcotest.(check string) (what ^ ": compacted") (compacted live)
      (read_bytes path);
    check_bool (what ^ ": no temp file") false
      (Sys.file_exists (path ^ ".tmp"))
  in
  compacts "damaged"
    (fun _ path -> corrupt_first_line path)
    [ "a"; "b" ];
  compacts "duplicated"
    (fun j _ -> Checkpoint.record j ~key:"a" "a")
    [ "a"; "b"; "c" ];
  compacts "newline lost"
    (fun _ path ->
      let s = read_bytes path in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub s 0 (String.length s - 1))))
    [ "a"; "b"; "c" ]

(* Only the lowercase pairs the encoder writes decode.  [a_] once read
   as byte 0x0a (through [int_of_string "0xa_"]) and an uppercase pair
   as its lowercase twin, so these lines passed the digest. *)
let test_checkpoint_noncanonical_hex () =
  let dir = fresh_dir () in
  let j = Checkpoint.create ~fresh:true ~dir ~run:"hex" () in
  let payload = Marshal.to_string 1.0 [] in
  Out_channel.with_open_bin (Checkpoint.path j) (fun oc ->
      List.iter (Out_channel.output_string oc)
        [
          journal_line ~key_hex:"a_" ~key:"\n" payload;
          journal_line ~key_hex:"AB" ~key:"\xab" payload;
          journal_line ~key_hex:"6f6b" ~key:"ok" payload;
        ]);
  let j2 = Checkpoint.create ~dir ~run:"hex" () in
  check_int "both non-canonical lines are corrupt" 2
    (List.length (Checkpoint.corrupt j2));
  check_int "the canonical one loads" 1 (Checkpoint.completed j2);
  check_bool "and reads back" true (Checkpoint.find j2 ~key:"ok" = Some 1.0)

let test_checkpoint_dir_validation () =
  let dir = fresh_dir () in
  (* unset/empty and a (possibly not-yet-existing) directory are fine *)
  check_bool "unset ok" true
    (with_env Checkpoint.env_var "" (fun () ->
         Checkpoint.default_dir_validated () = None));
  check_bool "missing dir ok" true
    (with_env Checkpoint.env_var dir (fun () ->
         Checkpoint.default_dir_validated () = Some dir));
  (* pointing it at an existing file is a misconfiguration *)
  let file = Filename.temp_file "t1000_ckpt" ".not_a_dir" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      check_bool "file rejected" true
        (with_env Checkpoint.env_var file (fun () ->
             match Checkpoint.default_dir_validated () with
             | _ -> false
             | exception Fault.Error (Fault.Invalid_config _) -> true)))

(* ---------- Runner validation ---------- *)

let test_runner_validation () =
  let rejects f =
    match f () with
    | _ -> false
    | exception Fault.Error (Fault.Invalid_config _) -> true
  in
  check_bool "n_pfus = Some 0" true
    (rejects (fun () -> Runner.setup ~n_pfus:(Some 0) Runner.Greedy));
  check_bool "n_pfus negative" true
    (rejects (fun () -> Runner.setup ~n_pfus:(Some (-3)) Runner.Selective));
  check_bool "negative penalty" true
    (rejects (fun () -> Runner.setup ~penalty:(-1) Runner.Greedy));
  let ok = Runner.setup Runner.Selective in
  check_bool "gain_threshold above 1" true
    (rejects (fun () ->
         Runner.validate { ok with Runner.gain_threshold = 1.5 }));
  check_bool "gain_threshold NaN" true
    (rejects (fun () ->
         Runner.validate { ok with Runner.gain_threshold = Float.nan }));
  check_bool "lut_budget zero" true
    (rejects (fun () -> Runner.validate { ok with Runner.lut_budget = 0 }));
  check_bool "defaults are valid" true
    (match Runner.validate ok with () -> true)

(* ---------- watchdog ---------- *)

let test_watchdog_cycle_budget () =
  let m = { Mconfig.default with Mconfig.max_cycles = 10 } in
  check_bool "budget exceeded raises Sim_stuck" true
    (match Sim.run ~mconfig:m ~init:(fun _ _ -> ()) (loop_program ()) with
    | _ -> false
    | exception Sim.Sim_stuck s ->
        s.Sim.reason = `Cycle_budget
        && s.Sim.limit = 10
        && s.Sim.cycle > 10
        && String.length (Format.asprintf "%a" Sim.pp_stuck s) > 0)

(* The machine's budget is the one cycle cap: the simulator reads no
   environment, so a T1000_MAX_CYCLES left in it neither lowers nor
   raises that budget. *)
let test_watchdog_env_override () =
  let limit max_cycles =
    match
      Sim.run
        ~mconfig:{ Mconfig.default with Mconfig.max_cycles }
        ~init:(fun _ _ -> ())
        (loop_program ())
    with
    | _ -> -1
    | exception Sim.Sim_stuck s ->
        if s.Sim.reason = `Cycle_budget then s.Sim.limit else -1
  in
  with_env "T1000_MAX_CYCLES" "5" (fun () ->
      check_int "the environment does not lower a machine budget" 30
        (limit 30);
      check_int "nor raise one" 3 (limit 3))

let test_watchdog_no_commit () =
  (* One extended instruction that takes 200 cycles: commits stop for
     far longer than the 10-cycle progress window, so the
     forward-progress check must fire (rather than the cycle budget). *)
  let p =
    build (fun b ->
        Builder.li b R.t0 1;
        Builder.ext b 0 R.t1 R.t0 R.zero;
        Builder.halt b)
  in
  let m =
    {
      (Mconfig.with_pfus ~penalty:0 (Some 2) Mconfig.default) with
      Mconfig.progress_window = 10;
    }
  in
  check_bool "stalled pipeline detected" true
    (match
       Sim.run ~mconfig:m
         ~ext_latency:(fun _ -> 200)
         ~ext_eval:(fun _ v1 _ -> v1)
         ~init:(fun _ _ -> ())
         p
     with
    | _ -> false
    | exception Sim.Sim_stuck s ->
        s.Sim.reason = `No_commit && s.Sim.limit = 10 && s.Sim.committed >= 1
        && s.Sim.head_slot = 1
        && s.Sim.head_instr = "ext#0 r9, r8, r0")

(* The watchdogs must fire at the same cycle with the same snapshot
   whether the dead cycles before them were skipped or executed one by
   one (self-check mode executes every cycle).  One PFU with a
   500-cycle reconfiguration: while the first configuration loads, the
   second stalls dispatch on the pinned unit every cycle, so both
   limits below fall inside one long quiet span. *)
let thrash_mconfig = Mconfig.with_pfus ~penalty:500 (Some 1) Mconfig.default

let thrash_program () =
  build (fun b ->
      Builder.li b R.t0 20;
      Builder.label b "top";
      Builder.ext b 0 R.t1 R.t0 R.zero;
      Builder.ext b 1 R.t2 R.t0 R.zero;
      Builder.addiu b R.t0 R.t0 (-1);
      Builder.bgtz b R.t0 "top";
      Builder.halt b)

let stuck_at ~mconfig ~selfcheck =
  match
    Sim.run ~mconfig ~selfcheck
      ~ext_eval:(fun _ v1 _ -> v1)
      ~init:(fun _ _ -> ())
      (thrash_program ())
  with
  | _ -> Alcotest.fail "expected Sim_stuck"
  | exception Sim.Sim_stuck s -> s

let pfu_stalls (s : Sim.stuck) =
  Scanf.sscanf s.Sim.pfu "pfu: %d hits, %d misses/reconfigs, %d dispatch stalls"
    (fun _ _ stalls -> stalls)

let test_watchdog_budget_in_skipped_span () =
  let stuck limit selfcheck =
    stuck_at ~selfcheck
      ~mconfig:{ thrash_mconfig with Mconfig.max_cycles = limit }
  in
  let skipping = stuck 300 false and audited = stuck 300 true in
  check_bool "identical snapshot with and without skipping" true
    (skipping = audited);
  check_bool "budget fired on time" true
    (skipping.Sim.reason = `Cycle_budget && skipping.Sim.cycle = 301);
  (* one stalled retry per cycle between the two limits: every cycle
     there is the same dead cycle *)
  check_int "stall retries charged per skipped cycle" 50
    (pfu_stalls skipping - pfu_stalls (stuck 250 false))

let test_watchdog_progress_in_skipped_span () =
  let stuck window selfcheck =
    stuck_at ~selfcheck
      ~mconfig:{ thrash_mconfig with Mconfig.progress_window = window }
  in
  let skipping = stuck 200 false and audited = stuck 200 true in
  check_bool "identical snapshot with and without skipping" true
    (skipping = audited);
  check_bool "forward-progress check fired" true
    (skipping.Sim.reason = `No_commit && skipping.Sim.limit = 200);
  check_int "stall retries charged per skipped cycle" 100
    (pfu_stalls skipping - pfu_stalls (stuck 100 false))

(* ---------- self-check ---------- *)

let test_selfcheck_clean_run () =
  (* Self-check must be pure observation: same stats with and without,
     on a run that exercises PFUs. *)
  let eval _ v1 _ = Word.add v1 1 in
  let mk () =
    build (fun b ->
        Builder.li b R.t0 50;
        Builder.label b "top";
        Builder.ext b 0 R.t1 R.t0 R.zero;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.halt b)
  in
  let mconfig = Mconfig.with_pfus ~penalty:10 (Some 2) Mconfig.default in
  let plain =
    Sim.run ~mconfig ~ext_eval:eval ~init:(fun _ _ -> ()) (mk ())
  in
  let audited =
    Sim.run ~mconfig ~ext_eval:eval ~selfcheck:true
      ~init:(fun _ _ -> ())
      (mk ())
  in
  check_bool "selfcheck does not perturb the simulation" true (plain = audited)

let test_selfcheck_runner () =
  let w = workload "unepic" in
  let plain = Runner.run w (Runner.setup ~selfcheck:false Runner.Selective) in
  let audited = Runner.run w (Runner.setup ~selfcheck:true Runner.Selective) in
  check_bool "runner stats unchanged under selfcheck" true
    (plain.Runner.stats = audited.Runner.stats)

(* ---------- fault injection mid-sweep ---------- *)

let suite () = [ workload "unepic"; workload "g721_dec" ]

let test_injected_fault_isolated () =
  with_env "T1000_FAULT_INJECT" "g721_dec" (fun () ->
      let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
      let p = Experiment.penalty_sweep_result ~penalties:[ 10 ] ctx in
      check_int "unaffected workload's row arrives" 1
        (List.length p.Experiment.rows);
      check_bool "and it is the right one" true
        ((List.hd p.Experiment.rows).Experiment.s52_name = "unepic");
      check_int "one fault per failed point" 1
        (List.length p.Experiment.faults);
      let f = List.hd p.Experiment.faults in
      check_bool "structured fault record" true
        (f.Experiment.fault_workload = "g721_dec"
        && f.Experiment.fault_point = "10"
        &&
        match f.Experiment.fault with
        | Fault.Injected _ -> true
        | _ -> false);
      (* the strict facade turns the same fault into an exception *)
      check_bool "strict driver raises" true
        (match Experiment.penalty_sweep ~penalties:[ 10 ] ctx with
        | _ -> false
        | exception Fault.Error (Fault.Injected _) -> true))

(* ---------- kill-and-resume ---------- *)

let test_kill_and_resume () =
  let penalties = [ 10; 50 ] in
  let dir = fresh_dir () in
  (* reference: one uninterrupted, journal-free run *)
  let clean =
    let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
    Experiment.penalty_sweep_result ~penalties ctx
  in
  check_bool "reference run is clean" true (clean.Experiment.faults = []);
  (* "killed" run: g721_dec faults mid-sweep, unepic's points land in
     the journal *)
  with_env "T1000_FAULT_INJECT" "g721_dec" (fun () ->
      let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
      let j = Checkpoint.create ~fresh:true ~dir ~run:"s52" () in
      let p = Experiment.penalty_sweep_result ~journal:j ~penalties ctx in
      check_int "partial rows" 1 (List.length p.Experiment.rows);
      check_int "faults reported" 2 (List.length p.Experiment.faults);
      check_int "completed points journaled" 2 (Checkpoint.completed j));
  (* resume: fresh process state (new ctx), same journal *)
  let resumed =
    let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
    let j = Checkpoint.create ~dir ~run:"s52" () in
    Experiment.penalty_sweep_result ~journal:j ~penalties ctx
  in
  check_bool "resume completes" true (resumed.Experiment.faults = []);
  check_bool "resumed rows identical to uninterrupted run" true
    (resumed.Experiment.rows = clean.Experiment.rows);
  let j = Checkpoint.create ~dir ~run:"s52" () in
  check_int "journal now holds every point" 4 (Checkpoint.completed j);
  (* damage one record on disk: the next resume drops it, recomputes
     that point, and still reproduces the reference rows *)
  corrupt_first_line (Checkpoint.path j);
  let recovered =
    let ctx = Experiment.create_ctx ~workloads:(suite ()) () in
    let j = Checkpoint.create ~dir ~run:"s52" () in
    check_int "corrupt record detected" 1 (List.length (Checkpoint.corrupt j));
    Experiment.penalty_sweep_result ~journal:j ~penalties ctx
  in
  check_bool "recovered rows identical too" true
    (recovered.Experiment.faults = []
    && recovered.Experiment.rows = clean.Experiment.rows)

(* A journal recorded under one predictor must not serve its rows to a
   resume under another: the ctx's predictor is part of every key. *)
let test_resume_other_predictor () =
  let dir = fresh_dir () in
  let f6 ?journal ?bpred () =
    let ctx =
      Experiment.create_ctx ~workloads:[ workload "g721_dec" ] ?bpred ()
    in
    Experiment.figure6_result ?journal ctx
  in
  let gshare =
    f6
      ~journal:(Checkpoint.create ~fresh:true ~dir ~run:"f6" ())
      ~bpred:(T1000_bpred.Predictor.Gshare 11) ()
  in
  let resumed = f6 ~journal:(Checkpoint.create ~dir ~run:"f6" ()) () in
  let perfect = f6 () in
  check_bool "every run is clean" true
    (List.for_all
       (fun p -> p.Experiment.faults = [])
       [ gshare; resumed; perfect ]);
  check_bool "the predictors' rows differ" true
    (gshare.Experiment.rows <> perfect.Experiment.rows);
  check_bool "resumed rows equal a fresh perfect run" true
    (resumed.Experiment.rows = perfect.Experiment.rows)

let () =
  Alcotest.run "t1000_fault"
    [
      ( "fault",
        [
          Alcotest.test_case "classification" `Quick test_fault_classify;
          Alcotest.test_case "getenv_bool" `Quick test_fault_getenv_bool;
        ] );
      ( "pool",
        [
          Alcotest.test_case "fault isolation" `Quick test_pool_isolation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption recovery" `Quick
            test_checkpoint_corruption;
          Alcotest.test_case "empty journal file" `Quick
            test_checkpoint_empty_file;
          Alcotest.test_case "torn last line" `Quick
            test_checkpoint_torn_last_line;
          Alcotest.test_case "duplicate key, last wins" `Quick
            test_checkpoint_duplicate_key_last_wins;
          Alcotest.test_case "T1000_CHECKPOINT_DIR validation" `Quick
            test_checkpoint_dir_validation;
          Alcotest.test_case "hex: all byte values" `Quick
            test_checkpoint_hex_all_bytes;
          Alcotest.test_case "hex: pinned journal line" `Quick
            test_checkpoint_pinned_line;
          Alcotest.test_case "hex: non-canonical pairs are corrupt" `Quick
            test_checkpoint_noncanonical_hex;
          Alcotest.test_case "record appends one line" `Quick
            test_checkpoint_append;
          Alcotest.test_case "a clean journal opens unchanged" `Quick
            test_checkpoint_clean_open;
          Alcotest.test_case "a damaged or duplicated journal compacts" `Quick
            test_checkpoint_load_compacts;
        ] );
      ( "runner",
        [
          Alcotest.test_case "setup validation" `Quick test_runner_validation;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "cycle budget" `Quick test_watchdog_cycle_budget;
          Alcotest.test_case "T1000_MAX_CYCLES" `Quick
            test_watchdog_env_override;
          Alcotest.test_case "forward progress" `Quick test_watchdog_no_commit;
          Alcotest.test_case "cycle budget inside a skipped span" `Quick
            test_watchdog_budget_in_skipped_span;
          Alcotest.test_case "forward progress inside a skipped span" `Quick
            test_watchdog_progress_in_skipped_span;
        ] );
      ( "selfcheck",
        [
          Alcotest.test_case "sim observation only" `Quick
            test_selfcheck_clean_run;
          Alcotest.test_case "runner cross-validation" `Slow
            test_selfcheck_runner;
        ] );
      ( "engine",
        [
          Alcotest.test_case "injected fault isolated" `Slow
            test_injected_fault_isolated;
          Alcotest.test_case "kill and resume" `Slow test_kill_and_resume;
          Alcotest.test_case "resume under another predictor" `Slow
            test_resume_other_predictor;
        ] );
    ]
