(* serve: the daemon's tenants.  A [t1000_cli serve -j 1 --queue 64]
   child process takes closed-loop load from two client threads, each on
   its own connection, in batches of 256 requests in a seeded order:

   - 104 hot (41%): unepic or g721_dec, selective 2-PFU, penalty 10 or
     100 — answered from the result memo after the first;
   - 96 cold (37%): every kernel, selective or greedy with 2 or unlimited
     PFUs, at a penalty no earlier request of that combination used — a
     fresh verify and simulation each;
   - 56 asm (22%): a salted loop kernel with a unique trip count — the
     whole pipeline on a tiny program, so per-call overhead shows.

   Penalties stay small: greedy at a penalty of 1000 or more costs
   seconds per request. *)

open Harness
module P = T1000_serve.Protocol
module Client = T1000_serve.Client

let batch = 256
let clients = 2

type cls = Hot | Cold | Asm

let cls_name = function Hot -> "hot" | Cold -> "cold" | Asm -> "asm"

let asm_kernel trip =
  P.Asm
    {
      name = Printf.sprintf "loop%d" trip;
      text =
        Printf.sprintf
          "    addui r2, r0, %d\n\
          \    addui r1, r0, 0\n\
          \    addui r5, r0, 0\n\
           loop:\n\
          \    addui r1, r1, 1\n\
          \    andi r3, r1, 255\n\
          \    xori r4, r3, 85\n\
          \    addu r5, r5, r4\n\
          \    bne r1, r2, loop\n\
          \    halt\n"
          trip;
    }

let select ?(pfus = Some 2) kernel method_ penalty =
  { P.kernel; method_; pfus; penalty; max_cycles = None; deadline_ms = None }

(* Every batch has the same make-up — each hot key 26 times, each of
   the 32 cold combinations 3 times, 56 asm kernels — and the seed
   orders it, so runs differ in interleaving, not in work.  Cold
   penalties and asm trip counts are assigned in order, which keeps
   every cold and asm request distinct from all earlier ones. *)
let generator seed =
  let st = Random.State.make [| seed |] in
  let used = Hashtbl.create 64 and asm_n = ref 0 in
  let names = T1000_workloads.Registry.names in
  let kinds =
    List.concat_map
      (fun k -> List.concat_map (fun p -> List.init 26 (fun _ -> `Hot (k, p))) [ 10; 100 ])
      [ "unepic"; "g721_dec" ]
    @ List.concat_map
        (fun k ->
          List.concat_map
            (fun m ->
              List.concat_map
                (fun pfus -> List.init 3 (fun _ -> `Cold (k, m, pfus)))
                [ Some 2; None ])
            [ `Selective; `Greedy ])
        names
    @ List.init (batch - 104 - (12 * List.length names)) (fun _ -> `Asm)
  in
  fun () ->
    List.map (fun k -> (Random.State.bits st, k)) kinds
    |> List.sort compare
    |> List.map (function
         | _, `Hot (k, p) -> (Hot, select (P.Named k) `Selective p)
         | _, `Cold (k, m, pfus) ->
             let n = Option.value ~default:0 (Hashtbl.find_opt used (k, m, pfus)) in
             Hashtbl.replace used (k, m, pfus) (n + 1);
             (Cold, select ~pfus (P.Named k) m (11 + n))
         | _, `Asm ->
             incr asm_n;
             (Asm, select (asm_kernel (64 + !asm_n)) `Selective 10))
    |> Array.of_list

let cli_exe () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat ".." "bin/t1000_cli.exe"))

(* The daemon and this process share one CPU, so the reference samples
   taken here between bursts measure the CPU the daemon computes on.
   Children inherit the affinity.  Without taskset the run is unpinned. *)
let pin_to_one_cpu () =
  let cpus =
    read_file "/proc/self/status"
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
           | _ -> None)
  in
  match Option.bind cpus (fun v -> Scanf.sscanf_opt v "%d" Fun.id) with
  | None -> ()
  | Some cpu -> (
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-cp"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
          null null null
      with
      | pid -> ignore (Unix.waitpid [] pid)
      | exception Unix.Unix_error _ -> ())

type daemon = {
  pid : int;
  addr : T1000_serve.Server.addr;
  out : In_channel.t;  (** the daemon's stdout *)
  err : string;  (** file receiving its stderr *)
}

(* Ready once it prints its listening line (after bind and listen) and
   answers a ping: waiting on the pipe takes no CPU from the start-up
   being timed. *)
let start_daemon env n =
  let sock = Filename.concat env.work (Printf.sprintf "d%d.sock" n) in
  let err = Filename.concat env.work (Printf.sprintf "d%d.err" n) in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let nullfd = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = cli_exe () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "-j"; "1"; "--queue"; "64"; "--socket"; sock |]
      (Array.append [| "T1000_METRICS=1" |] (Unix.environment ()))
      nullfd out_w errfd
  in
  List.iter Unix.close [ errfd; nullfd; out_w ];
  let out = Unix.in_channel_of_descr out_r in
  if In_channel.input_line out = None then failwith "serve: daemon exited at start-up";
  let addr = T1000_serve.Server.Unix_sock sock in
  (match Client.connect addr with
  | Ok c ->
      let ok = Client.ping c in
      Client.close c;
      Result.iter_error (fun m -> failwith ("serve: ping: " ^ m)) ok
  | Error m -> failwith ("serve: " ^ m));
  { pid; addr; out; err }

(* SIGTERM drains the daemon; it prints its metric dump as it exits. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  In_channel.close d.out;
  read_file d.err

type reply = {
  cls : cls;
  sel : P.select;
  ms : float;  (** normalised *)
  raw_ms : float;
  body : (P.reply_body, string) result;
}

(* One closed-loop burst: [clients] threads on their own connections
   drain the requests; latencies are raw seconds. *)
let burst d reqs =
  let n = Array.length reqs in
  let out = Array.make n None in
  let cursor = Atomic.make 0 in
  let client () =
    match Client.connect d.addr with
    | Error m -> failwith ("serve: " ^ m)
    | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add cursor 1 in
          if i < n then begin
            let cls, sel = reqs.(i) in
            let body, dt =
              raw_time (fun () ->
                  span "serve" (cls_name cls) (fun () -> Client.request c sel))
            in
            out.(i) <- Some { cls; sel; ms = dt *. 1e3; raw_ms = dt *. 1e3; body };
            loop ()
          end
        in
        loop ()
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  Array.to_list out |> List.filter_map Fun.id

(* A batch runs as bursts of [burst_size] requests with the host-speed
   reference sampled between them, while the daemon is idle; each
   request's latency is scaled by its burst's factor. *)
let burst_size = 16

let run_batch d next =
  let reqs = next () in
  List.concat
    (List.init (batch / burst_size) (fun b ->
         let reqs = Array.sub reqs (b * burst_size) burst_size in
         let rs, _, factor = Speed.time ~probes:3 (fun () -> burst d reqs) in
         List.map (fun r -> { r with ms = r.ms *. factor }) rs))

(* Recompute a reply in this process through Runner and compare it with
   what the daemon sent. *)
let recompute ctx (r : reply) (o : P.outcome) =
  let open T1000 in
  let w =
    match r.sel.P.kernel with
    | P.Named n -> Option.get (T1000_workloads.Registry.find n)
    | P.Asm { name; text } ->
        {
          T1000_workloads.Workload.name = "asm:" ^ Digest.to_hex (Digest.string text);
          description = "benchmark asm kernel";
          program = T1000_asm.Asm_text.parse_exn ~name text;
          init = (fun _ _ -> ());
          out_base = T1000_workloads.Kit.out_base;
          out_len = 0;
        }
  in
  let method_ =
    match r.sel.P.method_ with
    | `Baseline -> Runner.Baseline
    | `Greedy -> Runner.Greedy
    | `Selective -> Runner.Selective
  in
  let s = Runner.setup ~n_pfus:r.sel.P.pfus ~penalty:r.sel.P.penalty method_ in
  let run = Experiment.run_setup ctx w s in
  let base = Experiment.baseline_for ctx w s.Runner.machine in
  run.Runner.stats.T1000_ooo.Stats.cycles = o.P.cycles
  && base.Runner.stats.T1000_ooo.Stats.cycles = o.P.baseline_cycles
  && T1000_select.Extinstr.count run.Runner.table = o.P.ext_count
  && Runner.speedup ~baseline:base run = o.P.speedup

let measure env =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Speed.set_tracking false;
  pin_to_one_cpu ();
  let n = ref 0 in
  let daemons = ref [] in
  let setup () =
    incr n;
    let d = start_daemon env !n in
    daemons := d :: !daemons;
    d
  in
  (* Set-up is the daemon's start-up, up to its first answered ping;
     the first four daemons only measure it. *)
  let d, setup_s = setups setup in
  List.iter (fun x -> if x != d then ignore (stop_daemon x)) !daemons;
  let next = generator env.seed in
  let replies = ref [] in
  let pass d = replies := !replies @ run_batch d next in
  let pass_s, raw_s = passes ~seconds:env.seconds ~first:d ~prepare:(fun () -> d) pass in
  let timed_s = sum pass_s in
  let rss = peak_rss_mb (Some d.pid) in
  let dump = Obs_layers.parse_dump (stop_daemon d) in
  let replies = !replies in
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failed;
        prerr_endline ("serve: " ^ m))
      fmt
  in
  let ctx = T1000.Experiment.create_ctx ~workloads:[] () in
  List.iteri
    (fun i r ->
      incr attempted;
      match r.body with
      | Ok (`Outcome o) ->
          if i mod 8 = 0 then begin
            incr attempted;
            if not (recompute ctx r o) then
              fail "reply %d disagrees with an in-process Runner run" i
          end
      | Ok _ -> fail "reply %d is not an outcome" i
      | Error m -> fail "request %d: %s" i m)
    replies;
  let lat = List.map (fun r -> r.ms) replies in
  let p50 = median lat in
  let raw_mean =
    sum (List.map (fun r -> r.raw_ms) replies) /. float_of_int (List.length replies)
  in
  let class_p50 c =
    match List.filter (fun r -> r.cls = c) replies with
    | [] -> 0.0
    | rs -> 100.0 *. ratio (median (List.map (fun r -> r.ms) rs)) p50
  in
  let cached =
    List.length
      (List.filter
         (fun r -> match r.body with Ok (`Outcome o) -> o.P.cached | _ -> false)
         replies)
  in
  let evictions =
    List.fold_left
      (fun acc t -> acc +. dump ("memo." ^ t ^ ".evictions"))
      0.0 Obs_layers.memo_tables
  in
  {
    attempted = !attempted;
    failed = !failed;
    setup_s;
    pass_s;
    ops = List.length replies;
    op_ms = lat;
    timed_s;
    committed = int_of_float (dump "sim.committed");
    rss_mb = rss;
    layers =
      [
        ("serve.hot_p50_pct", class_p50 Hot);
        ("serve.cold_p50_pct", class_p50 Cold);
        ("serve.asm_p50_pct", class_p50 Asm);
        ("serve.queue_wait_pct", 100.0 *. ratio (dump "serve.queue_wait_ms.mean") raw_mean);
        ("serve.service_pct", 100.0 *. ratio (dump "serve.service_ms.mean") raw_mean);
        ("serve.cached_ratio", ratio (float_of_int cached) (float_of_int (List.length replies)));
        ("serve.memo_evictions", evictions);
      ]
      @ Obs_layers.of_counters
          ~get:(fun k -> int_of_float (dump k))
          ~getf:dump ~base_s:raw_s;
    probe_kernels = T1000_workloads.Registry.names;
  }
