(* Prober and httperf models. *)
open Helpers
module Engine = Simkit.Engine
module Prober = Netsim.Prober
module Httperf = Netsim.Httperf

(* --- prober -------------------------------------------------------------- *)

let test_prober_measures_outage () =
  let e = Engine.create () in
  let up = ref true in
  let p = Prober.create e ~interval_s:0.1 ~is_up:(fun () -> !up) () in
  Prober.start p;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:52.0 (fun () -> up := true));
  ignore (Engine.schedule e ~delay:80.0 (fun () -> Prober.stop p));
  Engine.run e;
  (match Prober.downtimes p with
  | [ d ] -> check_in_band "42 s outage" ~lo:41.8 ~hi:42.3 d
  | l -> Alcotest.failf "expected one outage, got %d" (List.length l));
  check_true "longest" (Prober.longest_outage p <> None)

let test_prober_multiple_outages () =
  let e = Engine.create () in
  let up = ref true in
  let p = Prober.create e ~interval_s:0.1 ~is_up:(fun () -> !up) () in
  Prober.start p;
  let set v at = ignore (Engine.schedule e ~delay:at (fun () -> up := v)) in
  set false 5.0; set true 10.0; set false 20.0; set true 40.0;
  ignore (Engine.schedule e ~delay:50.0 (fun () -> Prober.stop p));
  Engine.run e;
  check_int "two outages" 2 (List.length (Prober.outages p));
  check_in_band "total ~25" ~lo:24.5 ~hi:25.6
    (List.fold_left ( +. ) 0.0 (Prober.downtimes p));
  (match Prober.longest_outage p with
  | Some l -> check_in_band "longest ~20" ~lo:19.5 ~hi:20.5 l
  | None -> Alcotest.fail "expected outages")

let test_prober_in_progress_outage () =
  let e = Engine.create () in
  let p = Prober.create e ~interval_s:0.1 ~is_up:(fun () -> false) () in
  Prober.start p;
  ignore (Engine.schedule e ~delay:5.0 (fun () -> Prober.stop p));
  Engine.run e;
  check_int "not completed" 0 (List.length (Prober.outages p));
  check_true "no longest outage yet" (Prober.longest_outage p = None)

let test_prober_never_down () =
  let e = Engine.create () in
  let p = Prober.create e ~is_up:(fun () -> true) () in
  Prober.start p;
  ignore (Engine.schedule e ~delay:5.0 (fun () -> Prober.stop p));
  Engine.run e;
  check_int "clean" 0 (List.length (Prober.outages p));
  check_true "zero downtime" (Prober.downtimes p = [])

(* --- httperf ------------------------------------------------------------- *)

let test_httperf_closed_loop_throughput () =
  let e = Engine.create () in
  (* Each request takes exactly 0.1 s; 4 connections => 40 req/s. *)
  let request k = ignore (Engine.schedule e ~delay:0.1 (fun () -> k true)) in
  let load = Httperf.create e ~connections:4 ~request () in
  Httperf.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Httperf.stop load));
  Engine.run e;
  check_in_band "about 400 completions" ~lo:395.0 ~hi:405.0
    (float_of_int (Httperf.completed load));
  check_in_band "rate" ~lo:38.0 ~hi:42.0
    (Httperf.throughput_between load ~lo:1.0 ~hi:9.0)

let test_httperf_retries_after_failure () =
  let e = Engine.create () in
  let server_up = ref false in
  let request k =
    if !server_up then ignore (Engine.schedule e ~delay:0.1 (fun () -> k true))
    else k false
  in
  let load = Httperf.create e ~connections:1 ~retry_backoff_s:0.5 ~request () in
  Httperf.start load;
  ignore (Engine.schedule e ~delay:5.0 (fun () -> server_up := true));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Httperf.stop load));
  Engine.run e;
  check_true "failures recorded" (Httperf.failed load > 5);
  check_true "recovered" (Httperf.completed load > 40)

let test_httperf_window_throughput () =
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:0.05 (fun () -> k true)) in
  let load = Httperf.create e ~connections:1 ~request () in
  Httperf.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Httperf.stop load));
  Engine.run e;
  let windows = Httperf.mean_window_throughput load ~every:50 in
  check_true "has windows" (windows <> []);
  List.iter
    (fun (_, rate) -> check_in_band "20 req/s" ~lo:19.0 ~hi:21.0 rate)
    windows

let suite =
  ( "netsim",
    [
      Alcotest.test_case "prober measures outage" `Quick
        test_prober_measures_outage;
      Alcotest.test_case "prober multiple outages" `Quick
        test_prober_multiple_outages;
      Alcotest.test_case "prober in-progress outage" `Quick
        test_prober_in_progress_outage;
      Alcotest.test_case "prober never down" `Quick test_prober_never_down;
      Alcotest.test_case "httperf closed loop" `Quick
        test_httperf_closed_loop_throughput;
      Alcotest.test_case "httperf retries" `Quick
        test_httperf_retries_after_failure;
      Alcotest.test_case "httperf windows" `Quick test_httperf_window_throughput;
    ] )
