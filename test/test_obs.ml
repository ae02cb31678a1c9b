(* The observability plane: deterministic exports, histogram buckets,
   and the benchstat regression gate. The headline test re-runs a full
   fig6a experiment under two fresh registries and demands the JSON
   export be byte-identical — the property the whole plane is built
   around (sorted iteration, fixed float repr, sim-clock sampling). *)

open Obs

let check_float = Alcotest.(check (float 1e-9))

let contains ~needle haystack =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* --- deterministic export over a full experiment ----------------------- *)

(* Mirror of the CLI: the instrumented engine publishes its clock as a
   gauge, so the export's [now] comes back out of the registry. *)
let registry_now reg =
  match Registry.find reg "sim.engine.now_s" with
  | Some (Registry.Gauge g) -> Metric.gauge_value g
  | _ -> 0.0

(* Run [f] with [reg] as this domain's ambient registry, the one a
   scenario instruments into. *)
let with_registry reg f =
  let saved = ambient () in
  set_ambient reg;
  Fun.protect ~finally:(fun () -> set_ambient saved) f

let fig6a_export () =
  let reg = Registry.create () in
  with_registry reg (fun () ->
      ignore (Rejuv.Experiment.fig6 ~workload:Rejuv.Scenario.Ssh ()));
  Export.to_json ~now:(registry_now reg) reg

let test_fig6a_byte_identical () =
  let a = fig6a_export () in
  let b = fig6a_export () in
  Alcotest.(check string) "same seed, same bytes" a b;
  Alcotest.(check bool) "export is non-trivial" true (String.length a > 500)

let test_export_formats_deterministic () =
  let build () =
    let reg = Registry.create () in
    let c = Registry.counter reg "c" in
    Metric.Counter.record c ~time:1.0;
    Metric.Counter.record c ~time:2.0;
    let lat = Registry.histogram reg "lat" in
    Metric.Histogram.observe lat 0.004;
    Metric.Histogram.observe lat 0.021;
    Registry.set_gauge reg "depth" 3.0;
    reg
  in
  List.iter
    (fun fmt ->
      let a = Export.render fmt ~now:5.0 (build ()) in
      let b = Export.render fmt ~now:5.0 (build ()) in
      Alcotest.(check string) "render is a pure function of the data" a b)
    [ Export.Json; Export.Csv; Export.Prom ]

(* --- histogram determinism ---------------------------------------------- *)

let hist_of values =
  let h = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h) values;
  h

(* No [sum] here: float addition is not associative, so the running sum
   is only reproducible for a fixed observation order (which is what the
   seeded-run export guarantee relies on). Buckets and extrema are
   order-free. *)
let hist_fingerprint h =
  ( Metric.Histogram.buckets h,
    Metric.Histogram.count h,
    Metric.Histogram.min_value h,
    Metric.Histogram.max_value h )

let values = [ 0.003; 0.011; 0.012; 0.4; 1.7; 1.7; 23.0; 0.0; 150.0 ]

let test_bucket_order_independence () =
  let a = hist_of values in
  let b = hist_of (List.rev values) in
  Alcotest.(check bool)
    "observation order does not change the buckets" true
    (hist_fingerprint a = hist_fingerprint b);
  check_float "sums agree to rounding" (Metric.Histogram.sum a)
    (Metric.Histogram.sum b);
  (* identical observation order ⇒ identical export bytes *)
  let export h =
    let reg = Registry.create () in
    Registry.register reg "h" (Registry.Histogram h);
    Export.to_json ~now:0.0 reg
  in
  Alcotest.(check string) "same export bytes" (export a)
    (export (hist_of values))

let test_quantiles_within_range () =
  let h = hist_of values in
  let in_range name = function
    | None -> Alcotest.failf "%s: no quantile on a non-empty histogram" name
    | Some q ->
      Alcotest.(check bool)
        (name ^ " clamped to observed range")
        true
        (q >= 0.0 && q <= 150.0)
  in
  in_range "p50" (Metric.Histogram.p50 h);
  in_range "p95" (Metric.Histogram.p95 h);
  in_range "p99" (Metric.Histogram.p99 h)

let test_empty_histogram_exports_nulls () =
  let reg = Registry.create () in
  Registry.register reg "empty"
    (Registry.Histogram (Metric.Histogram.create ()));
  let json = Export.to_json ~now:0.0 reg in
  Alcotest.(check bool)
    "statistics render as nulls, not exceptions" true
    (contains ~needle:"\"mean\":null" json)

(* --- benchstat gate ----------------------------------------------------- *)

let bench_file pairs : Benchstat.Check.file =
  {
    metrics =
      List.map
        (fun (name, value, tol) ->
          (name, { Benchstat.Check.value; unit_ = "s"; tolerance_pct = tol }))
        pairs;
  }

let baseline =
  bench_file
    [
      ("fig6a.n10.warm_downtime_s", 5.0, Some 5.0);
      ("fig6a.n10.cold_downtime_s", 70.0, Some 5.0);
      ("self.bench.wall_s", 12.0, None);
    ]

let test_benchstat_green_on_identical () =
  let text = Benchstat.Check.to_json baseline in
  match Benchstat.Check.check ~old_text:text ~new_text:text with
  | Error r -> Alcotest.failf "identical files must pass: %s" r
  | Ok comparisons ->
    Alcotest.(check int)
      "both gated metrics counted" 2
      (Benchstat.Check.gated_count comparisons);
    Alcotest.(check int)
      "no failures" 0
      (List.length (Benchstat.Check.failures comparisons))

let test_benchstat_red_on_regression () =
  (* a 20% downtime regression against a 5% band must trip the gate *)
  let regressed =
    bench_file
      [
        ("fig6a.n10.warm_downtime_s", 6.0, Some 5.0);
        ("fig6a.n10.cold_downtime_s", 70.0, Some 5.0);
        ("self.bench.wall_s", 40.0, None);
      ]
  in
  match
    Benchstat.Check.check
      ~old_text:(Benchstat.Check.to_json baseline)
      ~new_text:(Benchstat.Check.to_json regressed)
  with
  | Ok _ -> Alcotest.fail "a 20% regression must fail the gate"
  | Error report ->
    Alcotest.(check bool)
      "report names the regressed metric" true
      (contains ~needle:"fig6a.n10.warm_downtime_s" report)

let test_benchstat_missing_metric_fails () =
  let pruned = bench_file [ ("fig6a.n10.warm_downtime_s", 5.0, Some 5.0) ] in
  match
    Benchstat.Check.check
      ~old_text:(Benchstat.Check.to_json baseline)
      ~new_text:(Benchstat.Check.to_json pruned)
  with
  | Ok _ -> Alcotest.fail "dropping a baseline metric must fail the gate"
  | Error _ -> ()

let test_benchstat_roundtrip () =
  let text = Benchstat.Check.to_json baseline in
  match Benchstat.Check.of_json text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok file ->
    Alcotest.(check string) "canonical form is a fixed point" text
      (Benchstat.Check.to_json file)

let suite =
  ( "obs",
    [
      Alcotest.test_case "fig6a metrics export is byte-identical" `Slow
        test_fig6a_byte_identical;
      Alcotest.test_case "exports are deterministic in all formats" `Quick
        test_export_formats_deterministic;
      Alcotest.test_case "histogram buckets are order-independent" `Quick
        test_bucket_order_independence;
      Alcotest.test_case "quantiles stay inside the observed range" `Quick
        test_quantiles_within_range;
      Alcotest.test_case "empty histogram exports nulls" `Quick
        test_empty_histogram_exports_nulls;
      Alcotest.test_case "benchstat passes identical files" `Quick
        test_benchstat_green_on_identical;
      Alcotest.test_case "benchstat rejects a 20% regression" `Quick
        test_benchstat_red_on_regression;
      Alcotest.test_case "benchstat rejects a vanished metric" `Quick
        test_benchstat_missing_metric_fails;
      Alcotest.test_case "bench file JSON roundtrips" `Quick
        test_benchstat_roundtrip;
    ] )
