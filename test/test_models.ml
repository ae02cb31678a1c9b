(* Strategy properties, the Section 3.2 downtime model, Section 5.3
   availability, the Figure 2 policy schedules and the Section 6
   cluster model. *)
open Helpers
module Strategy = Rejuv.Strategy
module Dm = Rejuv.Downtime_model
module Availability = Rejuv.Availability
module Policy = Rejuv.Policy
module Cluster = Rejuv.Cluster

(* --- strategy ------------------------------------------------------------ *)

let test_strategy_properties () =
  check_true "only cold restarts services"
    (List.for_all
       (fun s -> Strategy.restarts_services s = (s = Strategy.Cold))
       Strategy.all)

let test_strategy_of_string () =
  check_true "warm" (Strategy.of_string "warm" = Some Strategy.Warm);
  check_true "SAVED" (Strategy.of_string "SAVED" = Some Strategy.Saved);
  check_true "full name" (Strategy.of_string "cold-vm reboot" = Some Strategy.Cold);
  check_true "junk" (Strategy.of_string "tepid" = None)

(* --- downtime model ------------------------------------------------------ *)

let test_paper_fit_values () =
  let f = Dm.paper_fits in
  (* d_w(11) = reboot_vmm(11) + resume(11) = 36.95 + 4.66. *)
  check_float ~eps:0.01 "d_warm(11)" 41.61 (Dm.d_warm f ~n:11);
  (* d_c(11) = 47 + 43 + (3.8*11+13) - 16.8*0.5. *)
  check_float ~eps:0.01 "d_cold(11)" 136.4 (Dm.d_cold f ~n:11 ~alpha:0.5)

let test_reduction_formula_matches_paper () =
  (* Section 5.6: r(n) = 3.9n + 60 - 17 alpha. *)
  let r = Dm.reduction_as_formula Dm.paper_fits in
  check_float ~eps:0.05 "n slope" 3.92 r.Dm.n_slope;
  check_float ~eps:0.1 "constant" 60.07 r.Dm.constant;
  check_float ~eps:0.05 "alpha coefficient" (-16.8) r.Dm.alpha_coefficient

let test_reduction_always_positive () =
  (* The paper's closing claim for its configuration. *)
  check_true "r(n) > 0" (Dm.always_positive Dm.paper_fits ~max_n:100)

let test_alpha_validation () =
  check_true "alpha 0 rejected"
    (try ignore (Dm.d_cold Dm.paper_fits ~n:1 ~alpha:0.0); false
     with Invalid_argument _ -> true)

let test_fit_roundtrip () =
  let pts line = List.init 5 (fun i ->
      let x = float_of_int i in
      (x, Simkit.Stat.eval_linear line x))
  in
  let f = Dm.paper_fits in
  let refit =
    Dm.fit ~reboot_vmm:(pts f.Dm.reboot_vmm) ~resume:(pts f.Dm.resume)
      ~reboot_os:(pts f.Dm.reboot_os) ~boot:(pts f.Dm.boot)
      ~reset_hw:f.Dm.reset_hw
  in
  check_float ~eps:1e-6 "slope recovered" f.Dm.reboot_vmm.Simkit.Stat.slope
    refit.Dm.reboot_vmm.Simkit.Stat.slope

let prop_reduction_identity =
  qtest "r(n) = d_cold - d_warm for all n, alpha"
    QCheck.(pair (int_range 0 50) (float_range 0.01 1.0))
    (fun (n, alpha) ->
      let f = Dm.paper_fits in
      Float.abs
        (Dm.reduction f ~n ~alpha
        -. (Dm.d_cold f ~n ~alpha -. Dm.d_warm f ~n))
      < 1e-9)

let prop_reduction_formula_consistent =
  qtest "closed form equals direct computation"
    QCheck.(pair (int_range 0 50) (float_range 0.01 1.0))
    (fun (n, alpha) ->
      let f = Dm.paper_fits in
      let c = Dm.reduction_as_formula f in
      let closed =
        (c.Dm.n_slope *. float_of_int n)
        +. c.Dm.constant
        +. (c.Dm.alpha_coefficient *. alpha)
      in
      Float.abs (closed -. Dm.reduction f ~n ~alpha) < 1e-9)

(* --- availability -------------------------------------------------------- *)

let test_paper_availability_numbers () =
  (* Section 5.3: warm 99.993 %, cold 99.985 %, saved 99.977 %. *)
  let avail strategy vmm_downtime_s =
    Availability.availability
      (Availability.paper_example strategy ~vmm_downtime_s)
  in
  check_float ~eps:5e-6 "warm" 0.99993 (avail Strategy.Warm 42.0);
  check_float ~eps:5e-6 "cold" 0.99985 (avail Strategy.Cold 241.0);
  check_float ~eps:5e-6 "saved" 0.99977 (avail Strategy.Saved 429.0)

let test_nines () =
  check_int "four nines" 4 (Availability.nines 0.99993);
  check_int "three nines" 3 (Availability.nines 0.99985);
  check_int "three nines saved" 3 (Availability.nines 0.99977);
  check_int "two nines" 2 (Availability.nines 0.995);
  check_int "zero" 0 (Availability.nines 0.0)

let test_alpha_only_matters_for_cold () =
  let with_alpha strategy alpha =
    let p = Availability.paper_example strategy ~vmm_downtime_s:100.0 in
    Availability.availability { p with Availability.alpha }
  in
  check_true "warm insensitive"
    (with_alpha Strategy.Warm 0.1 = with_alpha Strategy.Warm 0.9);
  check_true "cold sensitive"
    (with_alpha Strategy.Cold 0.1 <> with_alpha Strategy.Cold 0.9)

let prop_availability_bounds =
  qtest "availability stays in (0, 1]"
    QCheck.(pair (float_range 1.0 10000.0) (float_range 0.01 1.0))
    (fun (vmm_downtime_s, alpha) ->
      let p = Availability.paper_example Strategy.Cold ~vmm_downtime_s in
      let a = Availability.availability { p with Availability.alpha } in
      a > 0.0 && a <= 1.0)

(* --- policy -------------------------------------------------------------- *)

let week = Simkit.Units.weeks 1.0

let test_independent_schedule () =
  (* Figure 2a: with the warm strategy, OS clocks tick on regardless of
     VMM rejuvenations. *)
  let events =
    Policy.schedule ~strategy:Strategy.Warm ~vm_count:1 ~os_interval_s:week
      ~vmm_interval_s:(4.0 *. week)
      ~horizon_s:(8.0 *. week +. 1.0)
  in
  check_int "8 OS rejuvenations" 8 (Policy.os_rejuvenation_count events);
  check_int "2 VMM rejuvenations" 2 (Policy.vmm_rejuvenation_count events)

let test_entangled_schedule () =
  (* Figure 2b: a cold VMM rejuvenation reboots the OS and restarts its
     clock, so fewer scheduled OS rejuvenations happen. *)
  let events =
    Policy.schedule ~strategy:Strategy.Cold ~vm_count:1 ~os_interval_s:week
      ~vmm_interval_s:(3.5 *. week)
      ~horizon_s:(7.0 *. week +. 1.0)
  in
  (* VMM rejuvenations at 3.5 w and 7 w. The first kills the OS
     rejuvenation that would have run at 4 w; the clock restarts at
     3.5 -> 4.5, 5.5, 6.5. *)
  check_int "VMM events" 2 (Policy.vmm_rejuvenation_count events);
  check_int "OS events" 6 (Policy.os_rejuvenation_count events);
  let times =
    List.filter_map
      (function Policy.Os_rejuvenation { at; _ } -> Some (at /. week) | _ -> None)
      events
  in
  Alcotest.(check (list (float 1e-6)))
    "clock restarted" [ 1.0; 2.0; 3.0; 4.5; 5.5; 6.5 ] times

let test_schedule_ordering_and_downtime () =
  let events =
    Policy.schedule ~strategy:Strategy.Cold ~vm_count:3 ~os_interval_s:week
      ~vmm_interval_s:(4.0 *. week)
      ~horizon_s:(4.0 *. week +. 1.0)
  in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Policy.event_time a <= Policy.event_time b && sorted rest
    | _ -> true
  in
  check_true "time ordered" (sorted events);
  let total =
    List.fold_left
      (fun acc -> function
        | Policy.Os_rejuvenation _ -> acc +. 33.6
        | Policy.Vmm_rejuvenation _ -> acc +. 241.0)
      0.0 events
  in
  (* 3 VMs x 3 OS rejuvenations (the 4th absorbed) + 1 VMM. *)
  check_float ~eps:0.5 "downtime" ((9.0 *. 33.6) +. 241.0) total

let test_policy_trigger () =
  let engine = Simkit.Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Xenvmm.Vmm.create host in
  run_task engine (Xenvmm.Vmm.power_on vmm);
  let aging = Xenvmm.Aging.attach ~config:no_aging vmm in
  check_true "flat trend -> no action"
    (Policy.Trigger.evaluate aging ~now:(Simkit.Engine.now engine)
       ~lead_time_s:3600.0
    = Policy.Trigger.No_action);
  (* Inject a visible linear leak. *)
  for _ = 1 to 5 do
    Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 100.0) engine;
    Xenvmm.Vmm_heap.leak (Xenvmm.Vmm.heap vmm) ~bytes:(1024 * 1024);
    Xenvmm.Aging.sample aging
  done;
  match
    Policy.Trigger.evaluate aging ~now:(Simkit.Engine.now engine)
      ~lead_time_s:100.0
  with
  | Policy.Trigger.Rejuvenate_within dt -> check_true "positive lead" (dt > 0.0)
  | Policy.Trigger.Rejuvenate_now -> ()
  | Policy.Trigger.No_action -> Alcotest.fail "expected a trend"

(* --- cluster ------------------------------------------------------------- *)

let test_warm_timeline () =
  let p = Cluster.paper_params ~m:4 ~p:100.0 () in
  let tl = Cluster.warm_timeline p ~reboot_at:600.0 in
  check_float "before" 400.0 (Cluster.throughput_at tl 0.0);
  check_float "during" 300.0 (Cluster.throughput_at tl 620.0);
  check_float "after" 400.0 (Cluster.throughput_at tl 700.0)

let test_cold_timeline_has_degraded_tail () =
  let p = Cluster.paper_params ~m:4 ~p:100.0 () in
  let tl = Cluster.cold_timeline p ~reboot_at:600.0 in
  check_float "outage" 300.0 (Cluster.throughput_at tl 700.0);
  (* After the 241 s outage: (m - 0.69) p while caches refill. *)
  check_float "cache refill dip" 331.0 (Cluster.throughput_at tl 850.0);
  check_float "recovered" 400.0 (Cluster.throughput_at tl 1000.0)

let test_migration_baseline_capped () =
  let p = Cluster.paper_params ~m:4 ~p:100.0 () in
  let tl = Cluster.migration_timeline p ~migrate_at:600.0 in
  (* One host is reserved even in steady state. *)
  check_float "reserved spare" 300.0 (Cluster.throughput_at tl 0.0);
  check_float "during migration" 288.0 (Cluster.throughput_at tl 700.0);
  check_float "after" 300.0 (Cluster.throughput_at tl 2000.0)

let test_lost_capacity_ranking () =
  (* Over a rejuvenation cycle the warm reboot loses the least capacity;
     migration's permanently reserved host costs the most at this scale. *)
  let p = Cluster.paper_params ~m:4 ~p:1.0 () in
  let horizon_s = 3600.0 in
  let lost tl = Cluster.lost_capacity p tl ~horizon_s in
  let warm = lost (Cluster.warm_timeline p ~reboot_at:600.0) in
  let cold = lost (Cluster.cold_timeline p ~reboot_at:600.0) in
  let migration = lost (Cluster.migration_timeline p ~migrate_at:600.0) in
  check_true "warm < cold" (warm < cold);
  check_true "cold < migration (m small)" (cold < migration);
  check_close ~tolerance:0.01 "warm loses its outage" 42.0 warm

let test_rolling_rejuvenation_no_overlap () =
  let p = Cluster.paper_params ~m:3 ~p:1.0 () in
  let tl =
    Cluster.rolling_rejuvenation p ~strategy:Strategy.Warm ~start_at:100.0
      ~gap_s:300.0
  in
  check_float "steady" 3.0 (Cluster.throughput_at tl 0.0);
  check_float "first host down" 2.0 (Cluster.throughput_at tl 110.0);
  check_float "between reboots" 3.0 (Cluster.throughput_at tl 200.0);
  check_float "second host down" 2.0 (Cluster.throughput_at tl 410.0);
  check_float "all done" 3.0 (Cluster.throughput_at tl 1200.0)

let test_rolling_rejuvenation_overlap () =
  (* Gap shorter than the outage: dips must compose additively. *)
  let p = Cluster.paper_params ~m:3 ~p:1.0 () in
  let tl =
    Cluster.rolling_rejuvenation p ~strategy:Strategy.Warm ~start_at:0.0
      ~gap_s:20.0
  in
  (* At t=25: hosts 0 (0..42) and 1 (20..62) both down. *)
  check_float "two down at once" 1.0 (Cluster.throughput_at tl 25.0);
  check_float "recovered" 3.0 (Cluster.throughput_at tl 200.0)

let test_cluster_validation () =
  let p = Cluster.paper_params ~m:1 () in
  check_true "migration needs m >= 2"
    (try ignore (Cluster.migration_timeline p ~migrate_at:0.0); false
     with Invalid_argument _ -> true)

let suite =
  ( "models",
    [
      Alcotest.test_case "strategy properties" `Quick test_strategy_properties;
      Alcotest.test_case "strategy of_string" `Quick test_strategy_of_string;
      Alcotest.test_case "paper fit values" `Quick test_paper_fit_values;
      Alcotest.test_case "reduction formula (5.6)" `Quick
        test_reduction_formula_matches_paper;
      Alcotest.test_case "reduction always positive" `Quick
        test_reduction_always_positive;
      Alcotest.test_case "alpha validation" `Quick test_alpha_validation;
      Alcotest.test_case "fit roundtrip" `Quick test_fit_roundtrip;
      prop_reduction_identity;
      prop_reduction_formula_consistent;
      Alcotest.test_case "paper availability (5.3)" `Quick
        test_paper_availability_numbers;
      Alcotest.test_case "nines" `Quick test_nines;
      Alcotest.test_case "alpha only for cold" `Quick
        test_alpha_only_matters_for_cold;
      prop_availability_bounds;
      Alcotest.test_case "independent schedule (fig 2a)" `Quick
        test_independent_schedule;
      Alcotest.test_case "entangled schedule (fig 2b)" `Quick
        test_entangled_schedule;
      Alcotest.test_case "schedule ordering + downtime" `Quick
        test_schedule_ordering_and_downtime;
      Alcotest.test_case "aging trigger" `Quick test_policy_trigger;
      Alcotest.test_case "warm timeline (fig 9)" `Quick test_warm_timeline;
      Alcotest.test_case "cold timeline (fig 9)" `Quick
        test_cold_timeline_has_degraded_tail;
      Alcotest.test_case "migration baseline" `Quick
        test_migration_baseline_capped;
      Alcotest.test_case "lost capacity ranking" `Quick
        test_lost_capacity_ranking;
      Alcotest.test_case "rolling rejuvenation" `Quick
        test_rolling_rejuvenation_no_overlap;
      Alcotest.test_case "rolling overlap" `Quick
        test_rolling_rejuvenation_overlap;
      Alcotest.test_case "cluster validation" `Quick test_cluster_validation;
    ] )
