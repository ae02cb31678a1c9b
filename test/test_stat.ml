open Helpers
module Stat = Simkit.Stat

let test_mean () =
  check_float "mean" 2.0 (Stat.mean [ 1.0; 2.0; 3.0 ]);
  check_float "singleton" 5.0 (Stat.mean [ 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stat.mean: empty sample") (fun () ->
      ignore (Stat.mean []))

let test_stddev () =
  (* Sample stddev of 2,4,4,4,5,5,7,9 is sqrt(32/7). *)
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float ~eps:1e-9 "stddev" (sqrt (32.0 /. 7.0)) (Stat.stddev xs);
  check_float "constant sample" 0.0 (Stat.stddev [ 3.0; 3.0; 3.0 ])

let test_summary () =
  let s = Stat.summarize [ 1.0; 5.0; 3.0 ] in
  check_int "count" 3 s.Stat.count;
  check_float "mean" 3.0 s.Stat.mean;
  check_float "min" 1.0 s.Stat.min;
  check_float "max" 5.0 s.Stat.max

let test_linear_fit_exact () =
  let points = List.init 10 (fun i ->
      let x = float_of_int i in
      (x, (2.5 *. x) -. 7.0))
  in
  let fit = Stat.linear_fit points in
  check_float ~eps:1e-9 "slope" 2.5 fit.Stat.slope;
  check_float ~eps:1e-9 "intercept" (-7.0) fit.Stat.intercept;
  check_float ~eps:1e-9 "r2" 1.0 fit.Stat.r2

let test_linear_fit_noisy () =
  (* Symmetric noise around y = x keeps the fit on the line. *)
  let points = [ (0.0, 0.1); (0.0, -0.1); (10.0, 10.1); (10.0, 9.9) ] in
  let fit = Stat.linear_fit points in
  check_float ~eps:1e-9 "slope" 1.0 fit.Stat.slope;
  check_float ~eps:1e-9 "intercept" 0.0 fit.Stat.intercept;
  check_true "r2 < 1 with noise" (fit.Stat.r2 < 1.0)

let test_linear_fit_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Stat.linear_fit: need at least two points") (fun () ->
      ignore (Stat.linear_fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "vertical"
    (Invalid_argument "Stat.linear_fit: all x values identical") (fun () ->
      ignore (Stat.linear_fit [ (1.0, 1.0); (1.0, 2.0) ]))

let test_eval_linear () =
  let line = { Stat.slope = 3.0; intercept = 1.0; r2 = 1.0 } in
  check_float "eval" 10.0 (Stat.eval_linear line 3.0)

(* Welford's one-pass mean and sample variance: an independent
   (online) reference for the batch statistics. *)
let online xs =
  let n, mean, m2 =
    List.fold_left
      (fun (n, mean, m2) x ->
        let n = n + 1 in
        let delta = x -. mean in
        let mean = mean +. (delta /. float_of_int n) in
        (n, mean, m2 +. (delta *. (x -. mean))))
      (0, 0.0, 0.0) xs
  in
  (mean, if n < 2 then 0.0 else m2 /. float_of_int (n - 1))

let test_online_matches_batch () =
  let xs = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  let mean, variance = online xs in
  check_float ~eps:1e-9 "mean" mean (Stat.mean xs);
  check_float ~eps:1e-9 "stddev" (sqrt variance) (Stat.stddev xs)

let test_online_small () =
  check_float "stddev of empty" (sqrt (snd (online []))) (Stat.stddev []);
  check_float "stddev of one" (sqrt (snd (online [ 42.0 ])))
    (Stat.stddev [ 42.0 ]);
  check_float "mean of one" (fst (online [ 42.0 ])) (Stat.mean [ 42.0 ])

let prop_online_mean =
  qtest "online mean equals batch mean"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs -> Float.abs (fst (online xs) -. Stat.mean xs) < 1e-6)

let prop_fit_recovers_line =
  qtest "fit recovers exact lines"
    QCheck.(pair (float_bound_inclusive 10.0) (float_bound_inclusive 10.0))
    (fun (slope, intercept) ->
      let points =
        List.init 5 (fun i ->
            let x = float_of_int i in
            (x, (slope *. x) +. intercept))
      in
      let fit = Stat.linear_fit points in
      Float.abs (fit.Stat.slope -. slope) < 1e-6
      && Float.abs (fit.Stat.intercept -. intercept) < 1e-6)

let suite =
  ( "stat",
    [
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "mean empty" `Quick test_mean_empty;
      Alcotest.test_case "stddev" `Quick test_stddev;
      Alcotest.test_case "summary" `Quick test_summary;
      Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
      Alcotest.test_case "linear fit noisy" `Quick test_linear_fit_noisy;
      Alcotest.test_case "linear fit errors" `Quick test_linear_fit_errors;
      Alcotest.test_case "eval linear" `Quick test_eval_linear;
      Alcotest.test_case "online matches batch" `Quick test_online_matches_batch;
      Alcotest.test_case "online small samples" `Quick test_online_small;
      prop_online_mean;
      prop_fit_recovers_line;
    ] )
