(* Tests for the lib/obs telemetry subsystem: the JSON codec, histogram
   bucket boundaries, cross-domain metric merging under the worker pool,
   span recording/nesting, Chrome-trace validation — and the property
   the whole subsystem is contracted to preserve: paper artifacts are
   byte-identical with telemetry on and off. *)

open T1000
module Json = T1000_obs.Json
module Metrics = T1000_obs.Metrics
module Tracer = T1000_obs.Tracer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n\t\x01");
        ("n", Json.Num 2.5);
        ("i", Json.Num 42.0);
        ("l", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("e", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "round-trip failed to parse: %s" msg
  | Ok doc' ->
      check_bool "round-trips structurally" true (doc = doc');
      check_string "integral floats print without fraction" "42"
        (Json.to_string (Json.Num 42.0))

let test_json_parser_strict () =
  let rejects s =
    check_bool (Printf.sprintf "rejects %S" s) true
      (Result.is_error (Json.of_string s))
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{} garbage";
  rejects "{\"a\" 1}";
  rejects "nul";
  (match Json.of_string "{\"u\": \"\\u00e9\\uD83D\\uDE00\"}" with
  | Error msg -> Alcotest.failf "unicode escapes: %s" msg
  | Ok d -> (
      match Json.member "u" d with
      | Some (Json.Str s) ->
          check_string "\\u escapes decode to UTF-8" "\xc3\xa9\xf0\x9f\x98\x80" s
      | _ -> Alcotest.fail "expected string member"));
  match Json.of_string "[1, 2.5, -3e2]" with
  | Ok (Json.List [ Json.Num 1.0; Json.Num 2.5; Json.Num -300.0 ]) -> ()
  | Ok _ | Error _ -> Alcotest.fail "number forms"

(* ---------- histogram buckets ---------- *)

let test_histogram_buckets () =
  check_int "0.5 -> bucket 0" 0 (Metrics.bucket_of 0.5);
  check_int "1.0 -> bucket 1" 1 (Metrics.bucket_of 1.0);
  check_int "1.99 -> bucket 1" 1 (Metrics.bucket_of 1.99);
  check_int "2.0 -> bucket 2" 2 (Metrics.bucket_of 2.0);
  check_int "3.99 -> bucket 2" 2 (Metrics.bucket_of 3.99);
  check_int "4.0 -> bucket 3" 3 (Metrics.bucket_of 4.0);
  check_int "nan -> bucket 0" 0 (Metrics.bucket_of Float.nan);
  check_int "infinity -> bucket 0 (non-finite)" 0
    (Metrics.bucket_of Float.infinity);
  check_int "huge -> top bucket" (Metrics.n_buckets - 1)
    (Metrics.bucket_of 1e300);
  (* Every sample lands in the bucket whose [lo, hi) range contains it. *)
  List.iter
    (fun v ->
      let b = Metrics.bucket_of v in
      check_bool
        (Printf.sprintf "%g within its bucket bounds" v)
        true
        (v >= Metrics.bucket_lo b && v < Metrics.bucket_hi b))
    [ 0.0; 0.9; 1.0; 1.5; 2.0; 7.0; 8.0; 1000.0; 65535.9 ]

(* ---------- metric recording + cross-domain merge ---------- *)

let test_metrics_basic () =
  Metrics.reset ();
  Metrics.incr "t.c";
  Metrics.incr ~by:4 "t.c";
  Metrics.add_float "t.f" 1.5;
  Metrics.add_float "t.f" 2.5;
  Metrics.set_gauge "t.g" 3.0;
  Metrics.set_gauge "t.g" 2.0;
  check_int "counter sums" 5 (Metrics.get "t.c");
  check_bool "fcounter sums" true (Metrics.get_float "t.f" = 4.0);
  let s = Metrics.snapshot () in
  check_bool "gauge keeps last write" true
    (List.assoc "t.g" s.Metrics.gauges = 2.0);
  check_int "unknown counter is 0" 0 (Metrics.get "t.absent")

let test_metrics_merge_across_domains () =
  Metrics.reset ();
  let n = 100 in
  let xs =
    Pool.parallel_map_result ~njobs:4
      (fun i ->
        Metrics.incr "t.pool.tasks";
        Metrics.observe "t.pool.val" (float_of_int i);
        i)
      (List.init n Fun.id)
  in
  check_bool "map result intact" true (xs = List.init n Result.ok);
  check_int "counter merged across domains" n (Metrics.get "t.pool.tasks");
  let h = List.assoc "t.pool.val" (Metrics.snapshot ()).Metrics.histograms in
  check_int "histogram count merged" n h.Metrics.count;
  check_bool "histogram sum merged" true
    (h.Metrics.sum = float_of_int (n * (n - 1) / 2));
  check_bool "histogram min" true (h.Metrics.min = 0.0);
  check_bool "histogram max" true (h.Metrics.max = float_of_int (n - 1));
  check_int "bucket totals match count" n
    (List.fold_left (fun acc (_, c) -> acc + c) 0 h.Metrics.buckets)

let test_metrics_time () =
  Metrics.reset ();
  let r = Metrics.time "t.phase" (fun () -> 7) in
  check_int "time returns the thunk's value" 7 r;
  (try Metrics.time "t.phase" (fun () -> failwith "x") with Failure _ -> ());
  check_int "calls counted (incl. raising)" 2 (Metrics.get "t.phase.calls");
  check_bool "seconds accumulated" true (Metrics.get_float "t.phase.seconds" >= 0.0)

let test_chaos_events_facade () =
  check_bool "chaos_events mirrors the Obs counters" true
    (Pool.chaos_events ()
    = (Metrics.get "pool.chaos.injected", Metrics.get "pool.chaos.killed"))

(* ---------- spans ---------- *)

let test_spans_disabled_record_nothing () =
  Tracer.reset ();
  Tracer.set_enabled false;
  let r = Tracer.with_span "off" (fun () -> 3) in
  check_int "with_span transparent when off" 3 r;
  check_int "nothing recorded when off" 0 (List.length (Tracer.events ()))

let test_span_nesting_and_order () =
  Tracer.reset ();
  Tracer.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tracer.set_enabled false)
    (fun () ->
      Tracer.with_span ~cat:"t" "outer" (fun () ->
          Tracer.with_span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 0)));
      (try
         Tracer.with_span ~cat:"t" "raiser" (fun () -> raise Exit)
       with Exit -> ());
      match Tracer.events () with
      | [ outer; inner; raiser ] ->
          check_string "parent sorts first" "outer" outer.Tracer.ev_name;
          check_string "child second" "inner" inner.Tracer.ev_name;
          check_string "raising span still recorded" "raiser"
            raiser.Tracer.ev_name;
          check_bool "child starts within parent" true
            (inner.Tracer.ev_ts_us >= outer.Tracer.ev_ts_us);
          check_bool "child ends within parent" true
            (inner.Tracer.ev_ts_us +. inner.Tracer.ev_dur_us
            <= outer.Tracer.ev_ts_us +. outer.Tracer.ev_dur_us);
          check_bool "durations non-negative" true
            (List.for_all
               (fun e -> e.Tracer.ev_dur_us >= 0.0)
               [ outer; inner; raiser ])
      | es -> Alcotest.failf "expected 3 events, got %d" (List.length es))

let test_trace_chrome_validates () =
  Tracer.reset ();
  Tracer.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tracer.set_enabled false)
    (fun () ->
      Tracer.with_span ~cat:"sim" "s" (fun () -> ());
      Tracer.with_span ~cat:"pool" "p" (fun () ->
          Tracer.with_span ~cat:"experiment" "e" (fun () -> ())));
  let s = Json.to_string (Tracer.to_chrome_json ()) in
  (match Tracer.validate_chrome ~require_cats:[ "sim"; "pool"; "experiment" ] s with
  | Ok n -> check_int "all spans exported" 3 n
  | Error msg -> Alcotest.failf "valid trace rejected: %s" msg);
  (match Tracer.validate_chrome ~require_cats:[ "nope" ] s with
  | Ok _ -> Alcotest.fail "missing category must be rejected"
  | Error _ -> ());
  match Tracer.validate_chrome "{\"traceEvents\": 3}" with
  | Ok _ -> Alcotest.fail "malformed trace must be rejected"
  | Error _ -> ()

(* ---------- determinism: telemetry must not change artifacts ---------- *)

let small_suite () =
  match T1000_workloads.Registry.find "unepic" with
  | Some w -> [ w ]
  | None -> Alcotest.fail "unepic workload missing"

let figure2_text () =
  let ctx = Experiment.create_ctx ~workloads:(small_suite ()) () in
  Format.asprintf "%a" Report.pp_figure2 (Experiment.figure2 ctx)

let test_byte_identity_with_tracing () =
  Metrics.reset ();
  Tracer.reset ();
  Tracer.set_enabled false;
  let plain = figure2_text () in
  Tracer.set_enabled true;
  let traced =
    Fun.protect
      ~finally:(fun () -> Tracer.set_enabled false)
      figure2_text
  in
  check_string "figure 2 byte-identical with tracing on" plain traced;
  check_bool "and the traced run did record spans" true
    (Tracer.events () <> [])

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser-strict" `Quick test_json_parser_strict;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "basic" `Quick test_metrics_basic;
          Alcotest.test_case "merge-across-domains" `Quick
            test_metrics_merge_across_domains;
          Alcotest.test_case "time" `Quick test_metrics_time;
          Alcotest.test_case "chaos-facade" `Quick test_chaos_events_facade;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled" `Quick test_spans_disabled_record_nothing;
          Alcotest.test_case "nesting-order" `Quick test_span_nesting_and_order;
          Alcotest.test_case "chrome-validate" `Quick test_trace_chrome_validates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identity" `Quick
            test_byte_identity_with_tracing;
        ] );
    ]
