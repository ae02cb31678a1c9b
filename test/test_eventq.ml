(* The pluggable event queue: the calendar backend must be
   indistinguishable from the heap — same keys, same FIFO ties, same
   interleaving behaviour — because the engine's determinism guarantee
   rides on it. The headline properties drive both backends (and both
   compaction settings) with the same randomized schedules and demand
   identical pop/fire sequences; the golden test runs a registered
   experiment under each backend and compares Result JSON bytes. *)

open Helpers
module Eventq = Simkit.Eventq
module Engine = Simkit.Engine

let drain q =
  let rec go acc =
    match Eventq.pop q with
    | Some (k, v) -> go ((k, v) :: acc)
    | None -> List.rev acc
  in
  go []

(* --- calendar-backend unit behaviour ------------------------------------- *)

let cal () = Eventq.create ~backend:Eventq.Calendar ()

let test_calendar_empty () =
  let q = cal () in
  check_true "empty" (Eventq.is_empty q);
  check_true "min None" (Eventq.min q = None);
  check_true "pop None" (Eventq.pop q = None)

let test_calendar_ordering () =
  let q = cal () in
  List.iter
    (fun k -> Eventq.add q ~key:k k)
    [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 2.5 ];
  Alcotest.(check (list (float 1e-9)))
    "sorted"
    [ 0.5; 1.0; 2.0; 2.5; 3.0; 4.0; 5.0 ]
    (List.map fst (drain q))

let test_calendar_fifo_ties () =
  let q = cal () in
  List.iter (fun v -> Eventq.add q ~key:1.0 v) [ "first"; "second"; "third" ];
  Eventq.add q ~key:0.5 "early";
  check_true "early" (Eventq.pop q = Some (0.5, "early"));
  check_true "tie 1" (Eventq.pop q = Some (1.0, "first"));
  Eventq.add q ~key:1.0 "fourth";
  check_true "tie 2" (Eventq.pop q = Some (1.0, "second"));
  check_true "tie 3" (Eventq.pop q = Some (1.0, "third"));
  check_true "tie 4" (Eventq.pop q = Some (1.0, "fourth"))

let test_calendar_identical_keys () =
  (* Degenerate width input: every key equal. *)
  let q = cal () in
  for i = 1 to 500 do
    Eventq.add q ~key:7.0 i
  done;
  check_int "length" 500 (Eventq.length q);
  Alcotest.(check (list int))
    "fifo across resizes"
    (List.init 500 (fun i -> i + 1))
    (List.map snd (drain q))

let test_calendar_resizes () =
  let q = cal () in
  for i = 1 to 1000 do
    Eventq.add q ~key:(float_of_int i *. 0.25) i
  done;
  let s = Eventq.stats q in
  check_true "grew past the initial buckets" (s.Eventq.q_buckets > 8);
  check_true "resized at least once" (s.Eventq.q_resizes > 0);
  check_true "positive width" (s.Eventq.q_bucket_width > 0.0);
  ignore (drain q);
  let s = Eventq.stats q in
  check_int "shrank back when drained" 8 s.Eventq.q_buckets

let test_calendar_sparse_far_future () =
  (* Events many "years" apart force the direct-search fallback. *)
  let q = cal () in
  List.iter (fun k -> Eventq.add q ~key:k k) [ 1e6; 3.0; 7e4; 0.25 ];
  Alcotest.(check (list (float 1e-9)))
    "sorted across years" [ 0.25; 3.0; 7e4; 1e6 ]
    (List.map fst (drain q))

let test_calendar_interleaved_adds_pops () =
  let q = cal () in
  Eventq.add q ~key:1.0 "a";
  Eventq.add q ~key:2.0 "b";
  check_true "a" (Eventq.pop q = Some (1.0, "a"));
  (* insert behind the scan position *)
  Eventq.add q ~key:1.5 "c";
  check_true "c" (Eventq.pop q = Some (1.5, "c"));
  check_true "b" (Eventq.pop q = Some (2.0, "b"))

let test_calendar_clear () =
  let q = cal () in
  for i = 1 to 100 do
    Eventq.add q ~key:(float_of_int i) i
  done;
  Eventq.clear q;
  check_true "empty" (Eventq.is_empty q);
  Eventq.add q ~key:2.0 7;
  check_true "usable after clear" (Eventq.pop q = Some (2.0, 7))

let test_compact_preserves_fifo () =
  List.iter
    (fun backend ->
      let q = Eventq.create ~backend () in
      List.iter (fun v -> Eventq.add q ~key:1.0 v) [ 1; 2; 3; 4 ];
      (* drop the middle of a tie run, then add more of the same key *)
      let removed = Eventq.compact q ~live:(fun v -> v <> 2 && v <> 3) in
      check_int "removed" 2 removed;
      Eventq.add q ~key:1.0 5;
      Alcotest.(check (list int))
        ("fifo after compact, " ^ Eventq.backend_name backend)
        [ 1; 4; 5 ] (List.map snd (drain q)))
    [ Eventq.Heap; Eventq.Calendar ]

(* --- backend equivalence (the core property) ------------------------------ *)

(* One op stream drives both backends; [Cancel] is modelled the way the
   engine uses it — values are marked dead and compacted mid-stream. *)
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

let run_ops backend ops =
  let q = Eventq.create ~backend () in
  let trace = ref [] in
  let id = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Add k ->
        incr id;
        (* every 5th value is dead-on-arrival, awaiting compaction *)
        Eventq.add q ~key:k (!id, !id mod 5 <> 0)
      | Pop ->
        (match Eventq.pop q with
        | Some (k, (v, _)) -> trace := (k, v) :: !trace
        | None -> trace := (-1.0, -1) :: !trace)
      | Compact ->
        trace := (0.0, -Eventq.compact q ~live:snd) :: !trace)
    ops;
  List.rev_append !trace (List.map (fun (k, (v, _)) -> (k, v)) (drain q))

let prop_backends_identical =
  qtest "heap and calendar pop identical sequences" ops_arb (fun ops ->
      run_ops Eventq.Heap ops = run_ops Eventq.Calendar ops)

(* The same property at the engine level, with real cancels and nested
   scheduling, across both backends and both compaction settings. *)
let engine_fire_log ~queue ~compaction plan =
  let e = Engine.create ~queue ~compaction () in
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
      list_size (int_range 1 120)
        (triple
           (map (fun k -> float_of_int k /. 4.0) (int_range 0 100))
           bool bool))

let prop_engine_backends_identical =
  qtest ~count:100 "engines agree across backends and compaction settings"
    plan_arb (fun plan ->
      let reference =
        engine_fire_log ~queue:Eventq.Heap ~compaction:`Off plan
      in
      List.for_all
        (fun (queue, compaction) ->
          engine_fire_log ~queue ~compaction plan = reference)
        [
          (Eventq.Heap, `Auto);
          (Eventq.Calendar, `Off);
          (Eventq.Calendar, `Auto);
          (Eventq.Calendar, `Threshold 0.1);
        ])

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

let test_queue_stats_backends () =
  let heap = Engine.create ~queue:Eventq.Heap () in
  let s = Engine.queue_stats heap in
  check_true "heap backend" (s.Engine.qs_backend = Eventq.Heap);
  check_int "heap has no buckets" 0 s.Engine.qs_buckets;
  let c = Engine.create ~queue:Eventq.Calendar () in
  ignore (Engine.schedule c ~delay:1.0 (fun () -> ()));
  let s = Engine.queue_stats c in
  check_true "calendar backend" (s.Engine.qs_backend = Eventq.Calendar);
  check_true "calendar has buckets" (s.Engine.qs_buckets > 0)

let test_default_queue_scoping () =
  let initial = Engine.default_queue () in
  Engine.with_default_queue Eventq.Heap (fun () ->
      check_true "scoped default" (Engine.default_queue () = Eventq.Heap);
      let e = Engine.create () in
      check_true "create follows the scope"
        ((Engine.queue_stats e).Engine.qs_backend = Eventq.Heap));
  check_true "restored" (Engine.default_queue () = initial)

(* --- golden: a registered experiment is backend-independent --------------- *)

let result_json_under backend id =
  Engine.with_default_queue backend (fun () ->
      Rejuv.Experiment.Result.to_json (Rejuv.Experiment.run id))

let test_experiment_backend_independent () =
  List.iter
    (fun id ->
      Alcotest.(check string)
        (id ^ " bytes agree across backends")
        (result_json_under Eventq.Heap id)
        (result_json_under Eventq.Calendar id))
    [ "quick_reload"; "os_rejuvenation" ]

let suite =
  ( "eventq",
    [
      Alcotest.test_case "calendar: empty" `Quick test_calendar_empty;
      Alcotest.test_case "calendar: ordering" `Quick test_calendar_ordering;
      Alcotest.test_case "calendar: fifo ties" `Quick test_calendar_fifo_ties;
      Alcotest.test_case "calendar: 500 identical keys" `Quick
        test_calendar_identical_keys;
      Alcotest.test_case "calendar: resizes up and down" `Quick
        test_calendar_resizes;
      Alcotest.test_case "calendar: sparse far-future keys" `Quick
        test_calendar_sparse_far_future;
      Alcotest.test_case "calendar: interleaved adds/pops" `Quick
        test_calendar_interleaved_adds_pops;
      Alcotest.test_case "calendar: clear" `Quick test_calendar_clear;
      Alcotest.test_case "compact preserves FIFO" `Quick
        test_compact_preserves_fifo;
      prop_backends_identical;
      prop_engine_backends_identical;
      Alcotest.test_case "engine compaction bounds tombstones" `Quick
        test_compaction_bounds_tombstones;
      Alcotest.test_case "engine compaction off accumulates" `Quick
        test_compaction_off_accumulates;
      Alcotest.test_case "queue stats per backend" `Quick
        test_queue_stats_backends;
      Alcotest.test_case "default queue is scoped" `Quick
        test_default_queue_scoping;
      Alcotest.test_case "experiment JSON is backend-independent" `Slow
        test_experiment_backend_independent;
    ] )
