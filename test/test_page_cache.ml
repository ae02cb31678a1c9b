open Helpers
module Cache = Guest.Page_cache

let kib = Simkit.Units.kib

let make ?(blocks = 4) () =
  Cache.create ~capacity_bytes:(blocks * 4096) ()

let test_empty () =
  let c = make () in
  check_int "used" 0 (Cache.used_bytes c);
  check_int "resident" 0 (Cache.resident_blocks c);
  check_false "mem" (Cache.mem c ~file:0 ~block:0);
  check_float "no lookups -> ratio 1" 1.0 (Cache.hit_ratio c)

let test_insert_and_hit () =
  let c = make () in
  Cache.insert c ~file:1 ~block:0;
  check_true "mem" (Cache.mem c ~file:1 ~block:0);
  check_true "touch hits" (Cache.touch c ~file:1 ~block:0);
  check_int "hits" 1 (Cache.hits c);
  check_false "other block misses" (Cache.touch c ~file:1 ~block:1);
  check_int "misses" 1 (Cache.misses c);
  check_float "ratio" 0.5 (Cache.hit_ratio c)

let test_mem_does_not_count () =
  let c = make () in
  Cache.insert c ~file:1 ~block:0;
  ignore (Cache.mem c ~file:1 ~block:0);
  ignore (Cache.mem c ~file:9 ~block:9);
  check_int "no hits" 0 (Cache.hits c);
  check_int "no misses" 0 (Cache.misses c)

let test_lru_eviction () =
  let c = make ~blocks:3 () in
  Cache.insert c ~file:0 ~block:0;
  Cache.insert c ~file:0 ~block:1;
  Cache.insert c ~file:0 ~block:2;
  (* Touch block 0 so block 1 becomes least recently used. *)
  ignore (Cache.touch c ~file:0 ~block:0);
  Cache.insert c ~file:0 ~block:3;
  check_true "0 survives (recently used)" (Cache.mem c ~file:0 ~block:0);
  check_false "1 evicted (LRU)" (Cache.mem c ~file:0 ~block:1);
  check_true "2 survives" (Cache.mem c ~file:0 ~block:2);
  check_true "3 inserted" (Cache.mem c ~file:0 ~block:3);
  check_int "at capacity" 3 (Cache.resident_blocks c)

let test_reinsert_promotes () =
  let c = make ~blocks:2 () in
  Cache.insert c ~file:0 ~block:0;
  Cache.insert c ~file:0 ~block:1;
  Cache.insert c ~file:0 ~block:0;
  (* Block 1 is now LRU. *)
  Cache.insert c ~file:0 ~block:2;
  check_true "0 kept" (Cache.mem c ~file:0 ~block:0);
  check_false "1 evicted" (Cache.mem c ~file:0 ~block:1)

let test_reinsert_no_duplicate () =
  let c = make () in
  Cache.insert c ~file:0 ~block:0;
  Cache.insert c ~file:0 ~block:0;
  check_int "one entry" 1 (Cache.resident_blocks c)

let test_files_distinguished () =
  let c = make () in
  Cache.insert c ~file:1 ~block:0;
  check_false "same block other file" (Cache.mem c ~file:2 ~block:0)

let test_clear_resets_counters () =
  let c = make () in
  Cache.insert c ~file:0 ~block:0;
  ignore (Cache.touch c ~file:0 ~block:0);
  ignore (Cache.touch c ~file:0 ~block:9);
  Cache.clear c;
  check_int "empty" 0 (Cache.resident_blocks c);
  check_int "hits reset" 0 (Cache.hits c);
  check_int "misses reset" 0 (Cache.misses c)

let test_zero_capacity () =
  let c = Cache.create ~capacity_bytes:0 () in
  Cache.insert c ~file:0 ~block:0;
  check_int "nothing cached" 0 (Cache.resident_blocks c);
  check_false "always misses" (Cache.touch c ~file:0 ~block:0)

let test_custom_block_size () =
  let c = Cache.create ~capacity_bytes:(kib 64) ~block_bytes:(kib 16) () in
  check_int "block size" (kib 16) (Cache.block_bytes c);
  for b = 0 to 9 do Cache.insert c ~file:0 ~block:b done;
  check_int "capped at 4 blocks" 4 (Cache.resident_blocks c);
  check_int "used bytes" (kib 64) (Cache.used_bytes c)

let prop_never_over_capacity =
  qtest "random workload never exceeds capacity and keeps invariants"
    QCheck.(list (pair (int_range 0 5) (int_range 0 40)))
    (fun ops ->
      let c = Cache.create ~capacity_bytes:(16 * 4096) () in
      List.iteri
        (fun i (file, block) ->
          if i mod 3 = 0 then ignore (Cache.touch c ~file ~block)
          else Cache.insert c ~file ~block)
        ops;
      Cache.resident_blocks c <= 16 && Cache.check_invariants c = Ok ())

let prop_recent_working_set_resident =
  qtest "the k most recent distinct inserts are always resident"
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 50))
    (fun blocks ->
      let capacity = 8 in
      let c = Cache.create ~capacity_bytes:(capacity * 4096) () in
      List.iter (fun b -> Cache.insert c ~file:0 ~block:b) blocks;
      (* The last [capacity] distinct blocks inserted must be present. *)
      let rec last_distinct acc = function
        | [] -> acc
        | b :: rest ->
          if List.length acc >= capacity then acc
          else if List.mem b acc then last_distinct acc rest
          else last_distinct (b :: acc) rest
      in
      let recent = last_distinct [] (List.rev blocks) in
      List.for_all (fun b -> Cache.mem c ~file:0 ~block:b) recent)

let suite =
  ( "page_cache",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "insert and hit" `Quick test_insert_and_hit;
      Alcotest.test_case "mem does not count" `Quick test_mem_does_not_count;
      Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
      Alcotest.test_case "reinsert promotes" `Quick test_reinsert_promotes;
      Alcotest.test_case "reinsert no duplicate" `Quick
        test_reinsert_no_duplicate;
      Alcotest.test_case "files distinguished" `Quick test_files_distinguished;
      Alcotest.test_case "clear resets" `Quick test_clear_resets_counters;
      Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
      Alcotest.test_case "custom block size" `Quick test_custom_block_size;
      prop_never_over_capacity;
      prop_recent_working_set_resident;
    ] )
