(* Tests for the cache layer: set-associative caches, TLBs and the
   two-level hierarchy's latency arithmetic. *)

open T1000_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(sets = 4) ?(ways = 2) ?(line = 16) () =
  Cache.create ~name:"t" ~sets ~ways ~line_bytes:line

(* ---------- Cache ---------- *)

let test_cache_create_validation () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "sets not pow2" true (bad (fun () -> mk ~sets:3 ()));
  check_bool "zero ways" true (bad (fun () -> mk ~ways:0 ()));
  check_bool "line not pow2" true (bad (fun () -> mk ~line:24 ()))

let test_cache_hit_after_miss () =
  let c = mk () in
  let r1 = Cache.access c ~addr:0x100 ~write:false in
  check_bool "first is miss" false r1.Cache.hit;
  let r2 = Cache.access c ~addr:0x104 ~write:false in
  check_bool "same line hits" true r2.Cache.hit;
  let r3 = Cache.access c ~addr:0x110 ~write:false in
  check_bool "next line misses" false r3.Cache.hit;
  check_int "accesses" 3 (Cache.accesses c);
  check_int "misses" 2 (Cache.misses c)

let test_cache_lru () =
  (* 4 sets x 16B lines: addresses with the same (addr/16) mod 4 share a
     set.  With 2 ways, the third distinct line in a set evicts the
     least recently used. *)
  let c = mk () in
  let a = 0x000 and b = 0x040 and d = 0x080 in
  ignore (Cache.access c ~addr:a ~write:false);
  ignore (Cache.access c ~addr:b ~write:false);
  (* touch a so b is LRU *)
  ignore (Cache.access c ~addr:a ~write:false);
  ignore (Cache.access c ~addr:d ~write:false);
  (* d evicted b *)
  check_bool "a survives" true (Cache.probe c ~addr:a);
  check_bool "b evicted" false (Cache.probe c ~addr:b);
  check_bool "d resident" true (Cache.probe c ~addr:d)

let test_cache_dirty_writeback () =
  let c = mk ~ways:1 () in
  ignore (Cache.access c ~addr:0x000 ~write:true);
  (* evict the dirty line with a conflicting one *)
  let r = Cache.access c ~addr:0x040 ~write:false in
  check_int "writeback address" 0x000 r.Cache.dirty_evict;
  check_int "writebacks counted" 1 (Cache.writebacks c);
  (* clean eviction reports none *)
  let r2 = Cache.access c ~addr:0x080 ~write:false in
  check_int "clean eviction" (-1) r2.Cache.dirty_evict

let test_cache_probe_no_side_effect () =
  let c = mk () in
  check_bool "probe miss" false (Cache.probe c ~addr:0x123);
  check_int "no access recorded" 0 (Cache.accesses c);
  check_bool "still miss" false (Cache.probe c ~addr:0x123)

let test_cache_flush_and_stats () =
  let c = mk () in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.flush c;
  check_bool "flushed" false (Cache.probe c ~addr:0);
  check_int "stats kept" 1 (Cache.accesses c);
  Cache.reset_stats c;
  check_int "stats reset" 0 (Cache.accesses c);
  check_bool "miss rate zero" true (Cache.miss_rate c = 0.0)

let test_cache_geometry () =
  let c = mk ~sets:8 ~ways:4 ~line:32 () in
  check_int "size" (8 * 4 * 32) (Cache.size_bytes c);
  check_int "line" 32 (Cache.line_bytes c)

let test_cache_fills_capacity =
  (* after touching exactly sets*ways distinct conflicting-free lines,
     everything is still resident *)
  QCheck.Test.make ~name:"capacity residency" ~count:50
    (QCheck.make (QCheck.Gen.int_range 1 3))
    (fun ways ->
      let sets = 4 and line = 16 in
      let c = Cache.create ~name:"cap" ~sets ~ways ~line_bytes:line in
      for w = 0 to ways - 1 do
        for s = 0 to sets - 1 do
          ignore
            (Cache.access c ~addr:((w * sets * line) + (s * line))
               ~write:false)
        done
      done;
      let ok = ref true in
      for w = 0 to ways - 1 do
        for s = 0 to sets - 1 do
          if not (Cache.probe c ~addr:((w * sets * line) + (s * line))) then
            ok := false
        done
      done;
      !ok)

let test_cache_lru_reference =
  (* exact agreement with a list-based LRU model over random traces *)
  QCheck.Test.make ~name:"cache agrees with list-based LRU model" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 200)
        (pair (int_range 0 1023) bool))
    (fun trace ->
      let sets = 4 and ways = 2 and line = 16 in
      let c = Cache.create ~name:"ref" ~sets ~ways ~line_bytes:line in
      (* model: per set, a most-recent-first list of line addresses *)
      let model = Array.make sets [] in
      List.for_all
        (fun (addr, write) ->
          let lineaddr = addr / line in
          let set = lineaddr mod sets in
          let hit_model = List.mem lineaddr model.(set) in
          model.(set) <-
            lineaddr :: List.filter (fun l -> l <> lineaddr) model.(set);
          (if List.length model.(set) > ways then
             model.(set) <-
               List.filteri (fun i _ -> i < ways) model.(set));
          let r = Cache.access c ~addr ~write in
          r.Cache.hit = hit_model)
        trace)

(* ---------- Tlb ---------- *)

let test_tlb_basics () =
  let t = Tlb.create ~name:"t" ~entries:2 ~page_bytes:4096 in
  check_bool "first miss" false (Tlb.access t ~addr:0x1000);
  check_bool "same page hits" true (Tlb.access t ~addr:0x1FFF);
  check_bool "new page miss" false (Tlb.access t ~addr:0x2000);
  (* LRU: touch page1, then a third page evicts page2 *)
  check_bool "page1 hit" true (Tlb.access t ~addr:0x1000);
  check_bool "third page miss" false (Tlb.access t ~addr:0x3000);
  check_bool "page1 survives" true (Tlb.access t ~addr:0x1234);
  check_bool "page2 evicted" false (Tlb.access t ~addr:0x2500);
  check_int "accesses" 7 (Tlb.accesses t);
  Tlb.flush t;
  check_bool "flushed" false (Tlb.access t ~addr:0x1000)

let test_tlb_mru_interleaved () =
  (* Runs of one page take the most-recently-used hit path; the pages
     interleaved between them take the full search.  The hit/miss
     sequence is the one the LRU search alone produced. *)
  let t = Tlb.create ~name:"t" ~entries:4 ~page_bytes:4096 in
  let pages =
    [ 1; 1; 2; 1; 2; 3; 1; 4; 1; 5; 2; 1; 1; 6; 3; 3; 1; 7; 2; 4; 1; 1; 8; 5 ]
  in
  let seq =
    String.concat ""
      (List.map
         (fun p ->
           if Tlb.access t ~addr:((p * 4096) + (8 * p)) then "h" else "m")
         pages)
  in
  Alcotest.(check string) "hit/miss sequence" "mhmhhmhmhmmhhmmhhmmmhhmm" seq;
  check_int "misses" 13 (Tlb.misses t);
  Alcotest.(check (float 1e-9)) "miss rate" (13.0 /. 24.0) (Tlb.miss_rate t)

let test_tlb_lru_reference =
  QCheck.Test.make ~name:"tlb agrees with list-based LRU model" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 9))
    (fun pages ->
      let entries = 4 in
      let t = Tlb.create ~name:"ref" ~entries ~page_bytes:4096 in
      let model = ref [] in
      List.for_all
        (fun p ->
          let hit_model = List.mem p !model in
          model := p :: List.filter (fun q -> q <> p) !model;
          if List.length !model > entries then
            model := List.filteri (fun i _ -> i < entries) !model;
          Tlb.access t ~addr:(p * 4096) = hit_model)
        pages)

let test_tlb_validation () =
  check_bool "bad entries" true
    (match Tlb.create ~name:"x" ~entries:0 ~page_bytes:4096 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad page size" true
    (match Tlb.create ~name:"x" ~entries:4 ~page_bytes:100 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Hierarchy ---------- *)

let small_config =
  {
    Hierarchy.default_config with
    Hierarchy.l1i_sets = 4;
    l1i_ways = 1;
    l1i_line = 32;
    l1d_sets = 4;
    l1d_ways = 1;
    l1d_line = 32;
    l2_sets = 16;
    l2_ways = 2;
    l2_line = 64;
    itlb_entries = 2;
    dtlb_entries = 2;
  }

let test_hierarchy_latencies () =
  let h = Hierarchy.create small_config in
  let cfg = small_config in
  let cold = Hierarchy.load_latency h ~addr:0x1000 in
  check_int "cold load: l1+l2+mem+tlb"
    (cfg.Hierarchy.l1_hit + cfg.Hierarchy.l2_hit + cfg.Hierarchy.mem
   + cfg.Hierarchy.tlb_miss)
    cold;
  let warm = Hierarchy.load_latency h ~addr:0x1000 in
  check_int "warm load: l1 hit" cfg.Hierarchy.l1_hit warm;
  (* evict from L1 (1-way, 4 sets x 32B: +4*32 conflicts) but stay in L2 *)
  ignore (Hierarchy.load_latency h ~addr:(0x1000 + 128));
  let l2hit = Hierarchy.load_latency h ~addr:0x1000 in
  check_int "l1 miss, l2 hit" (cfg.Hierarchy.l1_hit + cfg.Hierarchy.l2_hit)
    l2hit

let test_hierarchy_fetch_tlb () =
  let h = Hierarchy.create small_config in
  let cfg = small_config in
  let cold = Hierarchy.fetch_latency h ~addr:0x400000 in
  check_int "cold fetch"
    (cfg.Hierarchy.l1_hit + cfg.Hierarchy.l2_hit + cfg.Hierarchy.mem
   + cfg.Hierarchy.tlb_miss)
    cold;
  let warm = Hierarchy.fetch_latency h ~addr:0x400004 in
  check_int "warm fetch" cfg.Hierarchy.l1_hit warm

let test_hierarchy_store_writeback () =
  let h = Hierarchy.create small_config in
  ignore (Hierarchy.store_latency h ~addr:0x1000);
  (* conflicting line in the same L1 set evicts the dirty line into L2 *)
  ignore (Hierarchy.store_latency h ~addr:(0x1000 + 128));
  check_bool "l2 saw the writeback" true (Cache.accesses (Hierarchy.l2 h) >= 3)

let test_hierarchy_stats_reset () =
  let h = Hierarchy.create small_config in
  ignore (Hierarchy.load_latency h ~addr:0);
  Hierarchy.reset_stats h;
  check_int "l1d reset" 0 (Cache.accesses (Hierarchy.l1d h));
  check_int "dtlb reset" 0 (Tlb.accesses (Hierarchy.dtlb h));
  ignore (Hierarchy.load_latency h ~addr:0);
  check_bool "still resident after stats reset" true
    (Cache.probe (Hierarchy.l1d h) ~addr:0);
  Hierarchy.flush h;
  check_bool "flush empties" false (Cache.probe (Hierarchy.l1d h) ~addr:0)

let test_default_config_sizes () =
  let cfg = Hierarchy.default_config in
  let h = Hierarchy.create cfg in
  check_int "l1i 16KB" (16 * 1024) (Cache.size_bytes (Hierarchy.l1i h));
  check_int "l1d 16KB" (16 * 1024) (Cache.size_bytes (Hierarchy.l1d h));
  check_int "l2 256KB" (256 * 1024) (Cache.size_bytes (Hierarchy.l2 h))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "t1000_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "validation" `Quick test_cache_create_validation;
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "dirty writeback" `Quick
            test_cache_dirty_writeback;
          Alcotest.test_case "probe" `Quick test_cache_probe_no_side_effect;
          Alcotest.test_case "flush/stats" `Quick test_cache_flush_and_stats;
          Alcotest.test_case "geometry" `Quick test_cache_geometry;
        ]
        @ qsuite [ test_cache_fills_capacity; test_cache_lru_reference ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "validation" `Quick test_tlb_validation;
          Alcotest.test_case "mru path, interleaved pages" `Quick
            test_tlb_mru_interleaved;
        ]
        @ qsuite [ test_tlb_lru_reference ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "fetch/tlb" `Quick test_hierarchy_fetch_tlb;
          Alcotest.test_case "store writeback" `Quick
            test_hierarchy_store_writeback;
          Alcotest.test_case "stats reset" `Quick test_hierarchy_stats_reset;
          Alcotest.test_case "default sizes" `Quick test_default_config_sizes;
        ] );
    ]
