open Helpers
module Engine = Simkit.Engine
module Trace = Simkit.Trace

let test_span_records_interval () =
  let e = Engine.create () in
  let tr = Trace.create e in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         let s = Trace.begin_span tr "work" in
         ignore (Engine.schedule e ~delay:3.0 (fun () -> Trace.end_span tr s))));
  Engine.run e;
  match Trace.spans tr with
  | [ ("work", start, stop) ] ->
    check_float "start" 1.0 start;
    check_float "stop" 4.0 stop
  | _ -> Alcotest.fail "expected one span"

let test_open_span_not_listed () =
  let e = Engine.create () in
  let tr = Trace.create e in
  ignore (Trace.begin_span tr "open");
  check_int "no completed spans" 0 (List.length (Trace.spans tr))

let test_end_span_idempotent () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let s = Trace.begin_span tr "x" in
  Trace.end_span tr s;
  ignore (Engine.schedule e ~delay:5.0 (fun () -> Trace.end_span tr s));
  Engine.run e;
  match Trace.spans tr with
  | [ ("x", _, stop) ] -> check_float "first end wins" 0.0 stop
  | _ -> Alcotest.fail "expected one span"

let test_instants () =
  let e = Engine.create () in
  let tr = Trace.create e in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Trace.instant tr "mark"));
  Engine.run e;
  check_true "instant recorded" (Trace.instants tr = [ ("mark", 2.0) ])

let test_find_span () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let s = Trace.begin_span tr "a" in
  Trace.end_span tr s;
  check_true "found" (Trace.find_span tr "a" = Some (0.0, 0.0));
  check_true "not found" (Trace.find_span tr "b" = None)

let test_spans_in_start_order () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let s1 = Trace.begin_span tr "first" in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         let s2 = Trace.begin_span tr "second" in
         Trace.end_span tr s2;
         Trace.end_span tr s1));
  Engine.run e;
  Alcotest.(check (list string))
    "order" [ "first"; "second" ]
    (List.map (fun (l, _, _) -> l) (Trace.spans tr))

let suite =
  ( "trace",
    [
      Alcotest.test_case "span interval" `Quick test_span_records_interval;
      Alcotest.test_case "open span hidden" `Quick test_open_span_not_listed;
      Alcotest.test_case "end idempotent" `Quick test_end_span_idempotent;
      Alcotest.test_case "instants" `Quick test_instants;
      Alcotest.test_case "find span" `Quick test_find_span;
      Alcotest.test_case "start order" `Quick test_spans_in_start_order;
    ] )
