open Helpers
module Rng = Simkit.Rng

let test_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.bits64 a = Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_true "different seeds differ" (Rng.bits64 a <> Rng.bits64 b)

let test_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let p = List.init 20 (fun _ -> Rng.bits64 parent) in
  let c = List.init 20 (fun _ -> Rng.bits64 child) in
  check_true "split streams differ" (p <> c)

let test_int_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_true "0 <= v" (v >= 0);
    check_true "v < 17" (v < 17)
  done

let test_int_bound_one () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    check_int "always 0" 0 (Rng.int r 1)
  done

let test_int_invalid () =
  let r = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_uniform_range () =
  let r = Rng.create 13 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform r in
    check_true "0 <= u < 1" (u >= 0.0 && u < 1.0)
  done

let test_uniform_mean () =
  let r = Rng.create 17 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.uniform r
  done;
  check_in_band "mean near 0.5" ~lo:0.48 ~hi:0.52 (!total /. float_of_int n)

let test_exponential_mean () =
  let r = Rng.create 23 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r ~mean:5.0
  done;
  check_in_band "mean near 5" ~lo:4.7 ~hi:5.3 (!total /. float_of_int n)

let test_exponential_positive () =
  let r = Rng.create 29 in
  for _ = 1 to 1000 do
    check_true "positive" (Rng.exponential r ~mean:1.0 >= 0.0)
  done

let prop_int_in_range =
  qtest "int stays in range"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let suite =
  ( "rng",
    [
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "split" `Quick test_split_independent;
      Alcotest.test_case "int range" `Quick test_int_range;
      Alcotest.test_case "int bound one" `Quick test_int_bound_one;
      Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
      Alcotest.test_case "uniform range" `Quick test_uniform_range;
      Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
      prop_int_in_range;
    ] )
