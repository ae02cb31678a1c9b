(* Open-loop Poisson generator. *)
open Helpers
module Engine = Simkit.Engine
module Poisson = Netsim.Poisson

let test_poisson_rate () =
  let e = Engine.create () in
  let rng = Simkit.Rng.create 7 in
  let gen =
    Poisson.create e ~rate_per_s:50.0 ~rng ~request:(fun k -> k true) ()
  in
  Poisson.start gen;
  ignore (Engine.schedule e ~delay:100.0 (fun () -> Poisson.stop gen));
  Engine.run ~until:101.0 e;
  (* ~5000 arrivals expected. *)
  check_in_band "arrival count" ~lo:4600.0 ~hi:5400.0
    (float_of_int (Poisson.offered gen));
  check_int "none lost" 0 (Poisson.lost gen)

let test_poisson_rejects_bad_rates () =
  let e = Engine.create () in
  List.iter
    (fun rate ->
      match
        Poisson.create e ~rate_per_s:rate ~rng:(Simkit.Rng.create 1)
          ~request:(fun k -> k true)
          ()
      with
      | _ -> Alcotest.failf "rate %g accepted" rate
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan ]

let test_poisson_counts_losses_during_outage () =
  let e = Engine.create () in
  let rng = Simkit.Rng.create 11 in
  let up = ref true in
  let gen =
    Poisson.create e ~rate_per_s:20.0 ~rng ~request:(fun k -> k !up) ()
  in
  Poisson.start gen;
  ignore (Engine.schedule e ~delay:50.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:92.0 (fun () -> up := true));
  ignore (Engine.schedule e ~delay:150.0 (fun () -> Poisson.stop gen));
  Engine.run ~until:151.0 e;
  (* A 42 s outage at 20 req/s loses ~840 requests. *)
  check_in_band "lost during outage" ~lo:700.0 ~hi:1000.0
    (float_of_int (Poisson.lost gen));
  check_in_band "loss ratio ~28%" ~lo:0.2 ~hi:0.36
    (float_of_int (Poisson.lost gen) /. float_of_int (Poisson.offered gen))

let test_poisson_open_loop_independence () =
  (* Open loop: the arrival count does not depend on response latency. *)
  let count_with latency =
    let e = Engine.create () in
    let rng = Simkit.Rng.create 13 in
    let gen =
      Poisson.create e ~rate_per_s:10.0 ~rng
        ~request:(fun k ->
          ignore (Engine.schedule e ~delay:latency (fun () -> k true)))
        ()
    in
    Poisson.start gen;
    ignore (Engine.schedule e ~delay:100.0 (fun () -> Poisson.stop gen));
    Engine.run ~until:102.0 e;
    Poisson.offered gen
  in
  check_int "same offered load" (count_with 0.001) (count_with 2.0)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
      Alcotest.test_case "poisson rejects bad rates" `Quick
        test_poisson_rejects_bad_rates;
      Alcotest.test_case "poisson losses in outage" `Quick
        test_poisson_counts_losses_during_outage;
      Alcotest.test_case "poisson open loop" `Quick
        test_poisson_open_loop_independence;
    ] )
