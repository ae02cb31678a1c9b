open Helpers
module Engine = Simkit.Engine
module Resource = Simkit.Resource

let make ?(capacity = 1.0) () =
  let e = Engine.create () in
  (e, Resource.create e ~capacity)

let test_single_job_duration () =
  let e, r = make () in
  let done_at = ref nan in
  Resource.submit r ~work:5.0 (fun () -> done_at := Engine.now e);
  Engine.run e;
  check_float "work/capacity" 5.0 !done_at

let test_capacity_scales () =
  let e, r = make ~capacity:2.0 () in
  let done_at = ref nan in
  Resource.submit r ~work:5.0 (fun () -> done_at := Engine.now e);
  Engine.run e;
  check_float "half the time" 2.5 !done_at

let test_processor_sharing_two_equal_jobs () =
  let e, r = make () in
  let t1 = ref nan and t2 = ref nan in
  Resource.submit r ~work:3.0 (fun () -> t1 := Engine.now e);
  Resource.submit r ~work:3.0 (fun () -> t2 := Engine.now e);
  Engine.run e;
  (* Both share the capacity, so both finish at 6. *)
  check_float "job1" 6.0 !t1;
  check_float "job2" 6.0 !t2

let test_linear_contention () =
  (* n equal jobs of work W on unit capacity all complete at n*W —
     the property behind the paper's boot(n) = 3.4n + ... *)
  List.iter
    (fun n ->
      let e, r = make () in
      let finish = ref nan in
      for _ = 1 to n do
        Resource.submit r ~work:3.4 (fun () -> finish := Engine.now e)
      done;
      Engine.run e;
      check_float
        (Printf.sprintf "n=%d" n)
        (3.4 *. float_of_int n)
        !finish)
    [ 1; 2; 5; 11 ]

let test_shorter_job_finishes_first () =
  let e, r = make () in
  let short = ref nan and long = ref nan in
  Resource.submit r ~work:1.0 (fun () -> short := Engine.now e);
  Resource.submit r ~work:10.0 (fun () -> long := Engine.now e);
  Engine.run e;
  (* Shared until the short one finishes at t=2 (each got rate 1/2);
     the long one then runs alone: 10 - 1 = 9 remaining, done at 11. *)
  check_float "short" 2.0 !short;
  check_float "long" 11.0 !long

let test_staggered_arrival () =
  let e, r = make () in
  let t1 = ref nan and t2 = ref nan in
  Resource.submit r ~work:4.0 (fun () -> t1 := Engine.now e);
  ignore
    (Engine.schedule e ~delay:2.0 (fun () ->
         Resource.submit r ~work:4.0 (fun () -> t2 := Engine.now e)));
  Engine.run e;
  (* Job1 alone for 2 s (2 done), then shares: 2 remaining at rate 1/2
     -> finishes at 6. Job2: 2 done by then, runs alone after t=6,
     finishes at 8. *)
  check_float "job1" 6.0 !t1;
  check_float "job2" 8.0 !t2

let test_weights () =
  let e, r = make () in
  let heavy = ref nan and light = ref nan in
  Resource.submit r ~work:3.0 ~weight:3.0 (fun () -> heavy := Engine.now e);
  Resource.submit r ~work:1.0 ~weight:1.0 (fun () -> light := Engine.now e);
  Engine.run e;
  (* Rates 3/4 and 1/4: both need 4 seconds. *)
  check_float "heavy" 4.0 !heavy;
  check_float "light" 4.0 !light

let test_zero_work_completes () =
  let e, r = make () in
  let fired = ref false in
  Resource.submit r ~work:0.0 (fun () -> fired := true);
  Engine.run e;
  check_true "completed" !fired;
  check_float "no time passed" 0.0 (Engine.now e)

let test_set_capacity_repaces () =
  let e, r = make () in
  let done_at = ref nan in
  Resource.submit r ~work:10.0 (fun () -> done_at := Engine.now e);
  ignore (Engine.schedule e ~delay:5.0 (fun () -> Resource.set_capacity r 5.0));
  Engine.run e;
  (* 5 units in the first 5 s, then 5 units at rate 5 -> 1 more second. *)
  check_float "re-paced" 6.0 !done_at

let test_completion_allows_submit_in_callback () =
  let e, r = make () in
  let second_done = ref nan in
  Resource.submit r ~work:1.0 (fun () ->
      Resource.submit r ~work:2.0 (fun () -> second_done := Engine.now e));
  Engine.run e;
  check_float "chained" 3.0 !second_done

let test_accounting () =
  let e, r = make () in
  Resource.submit r ~work:2.0 (fun () -> ());
  Resource.submit r ~work:2.0 (fun () -> ());
  Engine.run e;
  check_float ~eps:1e-6 "work done" 4.0 (Resource.total_work_done r);
  check_float ~eps:1e-6 "busy time" 4.0 (Resource.busy_time r);
  check_int "no active jobs" 0 (Resource.active_jobs r)

let test_busy_time_with_gaps () =
  let e, r = make () in
  Resource.submit r ~work:1.0 (fun () -> ());
  ignore
    (Engine.schedule e ~delay:10.0 (fun () ->
         Resource.submit r ~work:1.0 (fun () -> ())));
  Engine.run e;
  check_float ~eps:1e-6 "busy excludes idle gap" 2.0 (Resource.busy_time r)

let test_invalid_args () =
  let e = Engine.create () in
  check_true "bad capacity"
    (try ignore (Resource.create e ~capacity:0.0); false
     with Invalid_argument _ -> true);
  let r = Resource.create e ~capacity:1.0 in
  check_true "bad weight"
    (try Resource.submit r ~work:1.0 ~weight:0.0 (fun () -> ()); false
     with Invalid_argument _ -> true)

let prop_conservation =
  qtest "PS conserves work: finish time = total work on unit capacity"
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.1 10.0))
    (fun works ->
      let e, r = make () in
      let last = ref 0.0 in
      List.iter
        (fun w -> Resource.submit r ~work:w (fun () -> last := Engine.now e))
        works;
      Engine.run e;
      let total = List.fold_left ( +. ) 0.0 works in
      Float.abs (!last -. total) < 1e-6)

let prop_completion_order =
  qtest "equal-weight jobs complete in order of work"
    QCheck.(list_of_size (Gen.int_range 2 8) (float_range 0.1 10.0))
    (fun works ->
      let e, r = make () in
      let order = ref [] in
      List.iteri
        (fun i w ->
          Resource.submit r ~work:w (fun () -> order := (i, w) :: !order))
        works;
      Engine.run e;
      let completed = List.rev !order in
      let sorted_by_work =
        List.stable_sort (fun (_, w1) (_, w2) -> Float.compare w1 w2) completed
      in
      List.map snd completed = List.map snd sorted_by_work)

let suite =
  ( "resource",
    [
      Alcotest.test_case "single job duration" `Quick test_single_job_duration;
      Alcotest.test_case "capacity scales" `Quick test_capacity_scales;
      Alcotest.test_case "two equal jobs share" `Quick
        test_processor_sharing_two_equal_jobs;
      Alcotest.test_case "linear contention" `Quick test_linear_contention;
      Alcotest.test_case "shorter finishes first" `Quick
        test_shorter_job_finishes_first;
      Alcotest.test_case "staggered arrival" `Quick test_staggered_arrival;
      Alcotest.test_case "weights" `Quick test_weights;
      Alcotest.test_case "zero work" `Quick test_zero_work_completes;
      Alcotest.test_case "set capacity" `Quick test_set_capacity_repaces;
      Alcotest.test_case "submit in callback" `Quick
        test_completion_allows_submit_in_callback;
      Alcotest.test_case "accounting" `Quick test_accounting;
      Alcotest.test_case "busy time with gaps" `Quick test_busy_time_with_gaps;
      Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
      prop_conservation;
      prop_completion_order;
    ] )
