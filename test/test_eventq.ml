(* The engine's event queue: a stable binary heap with tombstone
   compaction, on which the engine's determinism guarantee rides. The
   headline property drives the heap with randomized add/pop/compact
   streams against a reference model (a stable sort of the entries it
   holds); the engine-level property demands identical fire logs with
   compaction on and off; the golden test pins registered experiments'
   Result JSON to bytes recorded while the engine still had a second,
   calendar-queue backend (both backends produced these bytes). *)

open Helpers
module Heap = Simkit.Heap
module Engine = Simkit.Engine

let drain q =
  let rec go acc =
    match Heap.pop q with
    | Some (k, v) -> go ((k, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_compact_preserves_fifo () =
  let q = Heap.create ~dummy:0 in
  List.iter (fun v -> Heap.add q ~key:1.0 v) [ 1; 2; 3; 4 ];
  (* drop the middle of a tie run, then add more of the same key *)
  let removed = Heap.filter_inplace q ~keep:(fun v -> v <> 2 && v <> 3) in
  check_int "removed" 2 removed;
  Heap.add q ~key:1.0 5;
  Alcotest.(check (list int)) "fifo after compact" [ 1; 4; 5 ]
    (List.map snd (drain q))

(* --- the heap against a reference model ----------------------------------- *)

(* [Compact] is modelled the way the engine uses it: values are marked
   dead on arrival and filtered out mid-stream. *)
type op = Add of float | Pop | Compact

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Add (float_of_int k /. 8.0)) (int_range 0 160));
        (3, return Pop);
        (1, return Compact);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add k -> Printf.sprintf "add %g" k
             | Pop -> "pop"
             | Compact -> "compact")
           ops))
    QCheck.Gen.(list_size (int_range 1 300) op_gen)

(* Values are insertion ranks; every 5th is dead, awaiting compaction. *)
let live id = id mod 5 <> 0

let heap_trace ops =
  let q = Heap.create ~dummy:0 in
  let trace = ref [] in
  let id = ref 0 in
  List.iter
    (function
      | Add k ->
        incr id;
        Heap.add q ~key:k !id
      | Pop ->
        trace := Option.value (Heap.pop q) ~default:(-1.0, -1) :: !trace
      | Compact -> trace := (0.0, -Heap.filter_inplace q ~keep:live) :: !trace)
    ops;
  List.rev_append !trace (drain q)

(* The reference: the (key, rank) pairs held, in insertion order; the
   next pop is the head of their stable sort by key. *)
let model_trace ops =
  let sorted held =
    List.stable_sort (fun (k1, _) (k2, _) -> Float.compare k1 k2) held
  in
  let held = ref [] in
  let trace = ref [] in
  let id = ref 0 in
  List.iter
    (function
      | Add k ->
        incr id;
        held := !held @ [ (k, !id) ]
      | Pop -> (
        match sorted !held with
        | [] -> trace := (-1.0, -1) :: !trace
        | ((_, v) as first) :: _ ->
          held := List.filter (fun (_, v') -> v' <> v) !held;
          trace := first :: !trace)
      | Compact ->
        let kept = List.filter (fun (_, v) -> live v) !held in
        trace := (0.0, List.length kept - List.length !held) :: !trace;
        held := kept)
    ops;
  List.rev_append !trace (sorted !held)

let prop_heap_matches_model =
  qtest "heap pops like a stable sort" ops_arb (fun ops ->
      heap_trace ops = model_trace ops)

(* --- the engine with and without compaction ------------------------------- *)

(* Real cancels and nested scheduling. Three in four events are
   cancelled, so plans past the 64-entry floor usually compact. *)
let engine_fire_log ~compaction plan =
  let e = Engine.create ~compaction () in
  let log = ref [] in
  let handles =
    List.mapi
      (fun i (delay, cancel_it, nest) ->
        let h =
          Engine.schedule e ~delay (fun () ->
              log := (i, Engine.now e) :: !log;
              if nest then
                ignore
                  (Engine.schedule e ~delay:(delay /. 2.0) (fun () ->
                       log := (1000 + i, Engine.now e) :: !log)))
        in
        (h, cancel_it))
      plan
  in
  List.iter (fun (h, cancel_it) -> if cancel_it then Engine.cancel e h) handles;
  Engine.run e;
  List.rev !log

let plan_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (d, c, n) -> Printf.sprintf "(%g,%b,%b)" d c n)
           l))
    QCheck.Gen.(
      list_size (int_range 1 200)
        (triple
           (map (fun k -> float_of_int k /. 4.0) (int_range 0 100))
           (frequency [ (3, return true); (1, return false) ])
           bool))

let prop_engine_compaction_identical =
  qtest ~count:100 "engines agree across compaction settings" plan_arb
    (fun plan ->
      engine_fire_log ~compaction:`Auto plan
      = engine_fire_log ~compaction:`Off plan)

(* --- engine tombstone compaction ------------------------------------------ *)

let test_compaction_bounds_tombstones () =
  let e = Engine.create ~compaction:`Auto () in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~delay:(100.0 +. float_of_int i) (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 100 <> 0 then Engine.cancel e h) handles;
  let s = Engine.queue_stats e in
  check_true "compacted at least once" (s.Engine.qs_compactions > 0);
  (* Auto keeps tombstones under half the pending count, except below
     the 64-event floor where compaction deliberately stops bothering. *)
  check_true "tombstones bounded"
    (s.Engine.qs_tombstones <= Stdlib.max 63 ((s.Engine.qs_pending / 2) + 1));
  check_true "queue shrank" (Engine.pending e < 200);
  Engine.run e;
  check_int "survivors all fired" 10 (Engine.events_processed e)

let test_compaction_off_accumulates () =
  let e = Engine.create ~compaction:`Off () in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~delay:(100.0 +. float_of_int i) (fun () -> ()))
  in
  List.iter (fun h -> Engine.cancel e h) handles;
  let s = Engine.queue_stats e in
  check_int "no compactions" 0 s.Engine.qs_compactions;
  check_int "every tombstone retained" 1000 (Engine.pending e);
  Engine.run e;
  check_int "nothing fired" 0 (Engine.events_processed e)

(* --- golden: registered experiments' bytes -------------------------------- *)

let pinned_experiment_json =
  [
    ( "quick_reload",
      {|{"kind":"reload","data":{"quick_reload_s":11.528988764,"hardware_reset_s":58.8}}|}
    );
    ( "os_rejuvenation",
      {|{"kind":"scalar","data":{"label":"os_rejuvenation_downtime_s","value":37.3}}|}
    );
  ]

let test_experiment_json_pinned () =
  List.iter
    (fun (id, golden) ->
      Alcotest.(check string)
        (id ^ " bytes") golden
        (experiment_json id))
    pinned_experiment_json

let suite =
  ( "eventq",
    [
      Alcotest.test_case "compact preserves FIFO" `Quick
        test_compact_preserves_fifo;
      prop_heap_matches_model;
      prop_engine_compaction_identical;
      Alcotest.test_case "engine compaction bounds tombstones" `Quick
        test_compaction_bounds_tombstones;
      Alcotest.test_case "engine compaction off accumulates" `Quick
        test_compaction_off_accumulates;
      Alcotest.test_case "experiment JSON matches pinned bytes" `Slow
        test_experiment_json_pinned;
    ] )
