(* The event counter behind every throughput series (Obs.Metric.Counter):
   a streaming total and the rate of the last completed window, with no
   per-event state kept. *)
open Helpers
module Counter = Obs.Metric.Counter

let record_all c times = List.iter (fun t -> Counter.record c ~time:t) times

let test_counter_total () =
  let c = Counter.create () in
  check_int "empty" 0 (Counter.total c);
  record_all c [ 0.1; 0.2; 5.0 ];
  check_int "three" 3 (Counter.total c)

let test_counter_rate_series () =
  let c = Counter.create () in
  (* 4 events in [0,1), 2 in [1,2). *)
  record_all c [ 0.1; 0.2; 0.3; 0.9; 1.1; 1.5 ];
  check_float "window [0,1)" 4.0 (Counter.last_window_rate c ~now:1.5);
  check_float "window [1,2)" 2.0 (Counter.last_window_rate c ~now:2.5)

let test_counter_rate_series_until () =
  let c = Counter.create () in
  Counter.record c ~time:0.5;
  check_float "window with the event" 1.0 (Counter.last_window_rate c ~now:1.5);
  check_float "empty tail window" 0.0 (Counter.last_window_rate c ~now:3.0)

let test_counter_invalid () =
  List.iter
    (fun window ->
      check_true
        (Printf.sprintf "window %g rejected" window)
        (try
           ignore (Counter.create ~window ());
           false
         with Invalid_argument _ -> true))
    [ 0.0; -1.0 ]

let suite =
  ( "series",
    [
      Alcotest.test_case "counter total" `Quick test_counter_total;
      Alcotest.test_case "counter rate series" `Quick test_counter_rate_series;
      Alcotest.test_case "counter rate until" `Quick
        test_counter_rate_series_until;
      Alcotest.test_case "counter invalid args" `Quick test_counter_invalid;
    ] )
