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

let test_negative_file_rejected () =
  let c = make () in
  Alcotest.check_raises "insert"
    (Invalid_argument "Page_cache.insert: negative file id") (fun () ->
      Cache.insert c ~file:(-1) ~block:0);
  check_false "lookup of a negative id misses"
    (Cache.touch c ~file:(-1) ~block:0);
  check_int "no blocks of a negative id" 0
    (Cache.resident_blocks_of c ~file:(-1))

(* Reference model: the keys most recently used first, as a list. *)
type model = {
  m_capacity : int;
  mutable keys : (int * int) list;
  mutable m_hits : int;
  mutable m_misses : int;
}

let model_promote m k = m.keys <- k :: List.filter (( <> ) k) m.keys

(* Returns the key the insert evicted, if any. *)
let model_insert m k =
  if m.m_capacity = 0 then None
  else if List.mem k m.keys then (model_promote m k; None)
  else if List.length m.keys < m.m_capacity then (m.keys <- k :: m.keys; None)
  else
    let rev = List.rev m.keys in
    m.keys <- k :: List.rev (List.tl rev);
    Some (List.hd rev)

type op = Insert of int * int | Touch of int * int | Mem of int * int | Clear

let pp_op = function
  | Insert (f, b) -> Printf.sprintf "insert %d/%d" f b
  | Touch (f, b) -> Printf.sprintf "touch %d/%d" f b
  | Mem (f, b) -> Printf.sprintf "mem %d/%d" f b
  | Clear -> "clear"

let model_case =
  let open QCheck.Gen in
  let* files = int_range 1 6 in
  let* blocks = int_range 1 40 in
  let key = pair (int_bound (files - 1)) (int_bound (blocks - 1)) in
  let op =
    frequency
      [
        (8, map (fun (f, b) -> Insert (f, b)) key);
        (8, map (fun (f, b) -> Touch (f, b)) key);
        (3, map (fun (f, b) -> Mem (f, b)) key);
        (1, return Clear);
      ]
  in
  let* capacity = int_range 0 16 in
  let* block_bytes = oneofl [ 4096; kib 16 ] in
  let* slack = int_bound (block_bytes - 1) in
  let* ops = list_size (int_range 0 150) op in
  return (files, blocks, capacity, block_bytes, slack, ops)

let print_case (files, blocks, capacity, block_bytes, slack, ops) =
  Printf.sprintf "%d files x %d blocks, capacity %d x %d B (+%d): %s" files
    blocks capacity block_bytes slack
    (String.concat "; " (List.map pp_op ops))

let prop_matches_model =
  qtest ~count:300 "matches a list-based LRU model step by step"
    (QCheck.make ~print:print_case model_case)
    (fun (files, blocks, capacity, block_bytes, slack, ops) ->
      let c =
        Cache.create ~capacity_bytes:((capacity * block_bytes) + slack)
          ~block_bytes ()
      in
      let m = { m_capacity = capacity; keys = []; m_hits = 0; m_misses = 0 } in
      let fail i op fmt =
        QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) i (pp_op op)
      in
      List.iteri
        (fun i op ->
          (match op with
          | Insert (file, block) -> (
            Cache.insert c ~file ~block;
            match model_insert m (file, block) with
            | Some (f, b) when Cache.mem c ~file:f ~block:b ->
              fail i op "model evicted %d/%d, the cache kept it" f b
            | _ -> ())
          | Touch (file, block) ->
            let hit = List.mem (file, block) m.keys in
            if hit then begin
              m.m_hits <- m.m_hits + 1;
              model_promote m (file, block)
            end
            else m.m_misses <- m.m_misses + 1;
            let got = Cache.touch c ~file ~block in
            if got <> hit then fail i op "touch returned %b" got
          | Mem (file, block) ->
            let got = Cache.mem c ~file ~block in
            if got <> List.mem (file, block) m.keys then
              fail i op "mem returned %b" got
          | Clear ->
            Cache.clear c;
            m.keys <- [];
            m.m_hits <- 0;
            m.m_misses <- 0);
          if Cache.hits c <> m.m_hits || Cache.misses c <> m.m_misses then
            fail i op "hits/misses %d/%d, model %d/%d" (Cache.hits c)
              (Cache.misses c) m.m_hits m.m_misses;
          if Cache.resident_blocks c <> List.length m.keys then
            fail i op "%d resident, model %d" (Cache.resident_blocks c)
              (List.length m.keys);
          for file = 0 to files - 1 do
            let expected =
              List.length (List.filter (fun (f, _) -> f = file) m.keys)
            in
            if Cache.resident_blocks_of c ~file <> expected then
              fail i op "file %d: %d resident, model %d" file
                (Cache.resident_blocks_of c ~file) expected;
            for block = 0 to blocks - 1 do
              if Cache.mem c ~file ~block <> List.mem (file, block) m.keys then
                fail i op "%d/%d residency differs from the model" file block
            done
          done;
          match Cache.check_invariants c with
          | Ok () -> ()
          | Error e -> fail i op "invariant: %s" e)
        ops;
      true)

(* A lookup allocates nothing, and an empty cache is small: every VM of
   every fleet host builds one. *)
let test_counted_costs () =
  let n = 100_000 and resident = 1024 in
  let c = Cache.create ~capacity_bytes:(resident * 4096) () in
  for b = 0 to resident - 1 do Cache.insert c ~file:3 ~block:b done;
  check_true "grown to 1024 blocks" (Cache.check_invariants c = Ok ());
  check_int "resident" resident (Cache.resident_blocks_of c ~file:3);
  let per_lookup file =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (Cache.touch c ~file ~block:(i land 1023)))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let hit = per_lookup 3 in
  let miss = per_lookup 4 in
  check_int "hits" n (Cache.hits c);
  check_int "misses" n (Cache.misses c);
  if hit >= 0.01 || miss >= 0.01 then
    Alcotest.failf "minor words per lookup: hit %.4f, miss %.4f (want < 0.01)"
      hit miss;
  (* Measured as the words the cache reaches: on OCaml 5.1,
     [Gc.allocated_bytes] counts a minor-heap word as about 1/8 word. *)
  let empty = Cache.create ~capacity_bytes:(Simkit.Units.mib 700) () in
  let bytes = Obj.reachable_words (Obj.repr empty) * (Sys.word_size / 8) in
  if bytes >= 1024 then
    Alcotest.failf "an empty cache takes %d bytes (want < 1 KiB)" bytes

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
      Alcotest.test_case "negative file id rejected" `Quick
        test_negative_file_rejected;
      prop_matches_model;
      Alcotest.test_case "lookups allocate nothing" `Quick test_counted_costs;
    ] )
