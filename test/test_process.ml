open Helpers
module Engine = Simkit.Engine
module Process = Simkit.Process

let test_now_is_immediate () =
  let e = Engine.create () in
  let fired = ref false in
  Process.now (fun () -> fired := true);
  check_true "sync" !fired;
  check_float "no time" 0.0 (Engine.now e)

let test_delay () =
  let e = Engine.create () in
  check_float "delay" 2.5 (task_duration e (Process.delay e 2.5))

let test_seq_adds_durations () =
  let e = Engine.create () in
  let task =
    Process.seq [ Process.delay e 1.0; Process.delay e 2.0; Process.delay e 3.0 ]
  in
  check_float "sum" 6.0 (task_duration e task)

let test_seq_empty () =
  let e = Engine.create () in
  check_float "empty seq" 0.0 (task_duration e (Process.seq []))

let test_seq_order () =
  let e = Engine.create () in
  let log = ref [] in
  let step name duration k =
    log := (name ^ "-start") :: !log;
    Process.delay e duration (fun () ->
        log := (name ^ "-end") :: !log;
        k ())
  in
  run_task e (Process.seq [ step "a" 1.0; step "b" 1.0 ]);
  Alcotest.(check (list string))
    "sequential" [ "a-start"; "a-end"; "b-start"; "b-end" ]
    (List.rev !log)

let test_par_takes_max () =
  let e = Engine.create () in
  let task =
    Process.par [ Process.delay e 1.0; Process.delay e 5.0; Process.delay e 3.0 ]
  in
  check_float "max" 5.0 (task_duration e task)

let test_par_empty () =
  let e = Engine.create () in
  check_float "empty par" 0.0 (task_duration e (Process.par []))

let test_par_completes_once () =
  let e = Engine.create () in
  let completions = ref 0 in
  Process.par [ Process.delay e 1.0; Process.delay e 2.0 ] (fun () ->
      incr completions);
  Engine.run e;
  check_int "exactly once" 1 !completions

let test_nested_composition () =
  let e = Engine.create () in
  (* seq [1; par [2; seq [1; 1]]; 1] = 1 + max(2, 2) + 1 = 4 *)
  let task =
    Process.seq
      [
        Process.delay e 1.0;
        Process.par
          [ Process.delay e 2.0;
            Process.seq [ Process.delay e 1.0; Process.delay e 1.0 ] ];
        Process.delay e 1.0;
      ]
  in
  check_float "nested" 4.0 (task_duration e task)

let prop_seq_sums =
  qtest "seq of delays sums durations"
    QCheck.(list_of_size (Gen.int_range 0 10) (float_range 0.0 5.0))
    (fun durations ->
      let e = Engine.create () in
      let task = Process.seq (List.map (Process.delay e) durations) in
      let total = List.fold_left ( +. ) 0.0 durations in
      Float.abs (task_duration e task -. total) < 1e-6)

let prop_par_maxes =
  qtest "par of delays takes the max"
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.0 5.0))
    (fun durations ->
      let e = Engine.create () in
      let task = Process.par (List.map (Process.delay e) durations) in
      let expected = List.fold_left Float.max 0.0 durations in
      Float.abs (task_duration e task -. expected) < 1e-6)

let suite =
  ( "process",
    [
      Alcotest.test_case "now" `Quick test_now_is_immediate;
      Alcotest.test_case "delay" `Quick test_delay;
      Alcotest.test_case "seq durations" `Quick test_seq_adds_durations;
      Alcotest.test_case "seq empty" `Quick test_seq_empty;
      Alcotest.test_case "seq order" `Quick test_seq_order;
      Alcotest.test_case "par max" `Quick test_par_takes_max;
      Alcotest.test_case "par empty" `Quick test_par_empty;
      Alcotest.test_case "par completes once" `Quick test_par_completes_once;
      Alcotest.test_case "nested composition" `Quick test_nested_composition;
      prop_seq_sums;
      prop_par_maxes;
    ] )
