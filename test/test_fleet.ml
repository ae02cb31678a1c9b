(* The fleet control plane: wave planning, the SLO admission guard
   (as a QCheck law), migrate-then-reboot waves, and determinism of
   the fleet_rolling experiment output. The Section 6 cluster preset
   is exercised in test_cluster_sim.ml. *)
open Helpers
module Fleet = Rejuv.Fleet
module Wave = Rejuv.Wave
module Strategy = Rejuv.Strategy

(* --- Wave.plan ----------------------------------------------------------- *)

let test_plan_partitions_consecutively () =
  let p = Wave.plan_exn ~hosts:10 ~width:3 ~slo:0.5 in
  check_int "floor = ceil(0.5 * 10)" 5 p.Wave.slo_floor;
  check_int "width kept (below slack)" 3 p.Wave.width;
  Alcotest.(check (list (list int)))
    "consecutive waves"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ]; [ 9 ] ]
    p.Wave.waves;
  Alcotest.(check (list int))
    "covers every host exactly once"
    (List.init 10 Fun.id)
    (List.concat p.Wave.waves)

let test_plan_clamps_width_to_slack () =
  let p = Wave.plan_exn ~hosts:10 ~width:8 ~slo:0.7 in
  check_int "floor" 7 p.Wave.slo_floor;
  check_int "width clamped to hosts - floor" 3 p.Wave.width;
  check_true "no wave exceeds the clamp"
    (List.for_all (fun w -> List.length w <= 3) p.Wave.waves)

let test_plan_rejects_impossible_inputs () =
  let err ~hosts ~width ~slo =
    match Wave.plan ~hosts ~width ~slo with
    | Error (`Msg _) -> true
    | Ok _ -> false
  in
  check_true "no hosts" (err ~hosts:0 ~width:2 ~slo:0.5);
  check_true "no width" (err ~hosts:8 ~width:0 ~slo:0.5);
  check_true "no slack: every host needed" (err ~hosts:8 ~width:2 ~slo:1.0);
  check_true "negative SLO" (err ~hosts:8 ~width:2 ~slo:(-0.5));
  check_true "NaN SLO" (err ~hosts:8 ~width:2 ~slo:Float.nan)

(* --- the control plane --------------------------------------------------- *)

let small_fleet ?(hosts = 6) ?(wave_width = 2) ?(slo = 0.5) ?(seed = 42) () =
  let f =
    Fleet.create
      {
        Fleet.Config.default with
        hosts;
        wave_width;
        slo;
        host = { Rejuv.Scenario.Config.default with seed };
        load_rate_per_s = 20.0;
        gap_s = 2.0;
        sample_interval_s = 2.0;
      }
  in
  Fleet.start f;
  f

let test_warm_pass_meets_slo_and_recovers () =
  let f = small_fleet () in
  let r = Fleet.run f ~strategy:(Wave.Reboot Strategy.Warm) in
  check_true "SLO met" r.Fleet.slo_met;
  check_true "no host skipped" (r.Fleet.skipped = []);
  check_int "all hosts rejuvenated" 6
    (List.length (List.concat_map (fun w -> w.Fleet.wave_hosts) r.Fleet.waves));
  check_int "fleet healthy after" 6 (Fleet.healthy_hosts f);
  check_true "some load served" (r.Fleet.offered > 100)

let test_migrate_waves_lose_no_capacity_headroom () =
  (* Migrating the guests away before the reboot keeps each host's VMs
     reachable; the pass still honours the floor and hosts come back. *)
  let f = small_fleet ~hosts:4 ~wave_width:1 () in
  let r = Fleet.run f ~strategy:Wave.Migrate in
  check_true "SLO met" r.Fleet.slo_met;
  check_true "nothing skipped" (r.Fleet.skipped = []);
  check_int "fleet healthy after" 4 (Fleet.healthy_hosts f)

(* QCheck law: whatever the (hosts, width, slo) cell, the admission
   guard never lets observed healthy capacity fall below the floor. *)
let qcheck_slo_guard =
  qtest ~count:6 "admission guard holds the SLO floor"
    QCheck.(
      triple (int_range 5 10) (int_range 1 4)
        (map (fun k -> 0.5 +. (0.1 *. float_of_int k)) (int_range 0 3)))
    (fun (hosts, width, slo) ->
      match Wave.plan ~hosts ~width ~slo with
      | Error _ -> QCheck.assume_fail () (* no slack: nothing to run *)
      | Ok _ ->
        let f = small_fleet ~hosts ~wave_width:width ~slo () in
        let r = Fleet.run f ~strategy:(Wave.Reboot Strategy.Warm) in
        r.Fleet.min_healthy >= r.Fleet.slo_floor)

(* [Fleet.run] walks the wave plan and derives its stream rates from
   the load and the host traffic config, so a config that would make
   the plan impossible or the rates zero, NaN, negative or larger than
   the population's must be refused when the fleet is built — before
   any host boots. *)
let test_create_rejects_bad_config () =
  let module Fluid = Netsim.Fluid in
  let base = { Fleet.Config.default with hosts = 2; slo = 0.5 } in
  ignore (Fleet.create base);
  let rejects name cfg =
    match Fleet.create cfg with
    | _ -> Alcotest.fail (name ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  let rejects_traffic name traffic =
    rejects name
      { base with host = { Rejuv.Scenario.Config.default with traffic } }
  in
  let hybrid = { Fluid.default_config with Fluid.mode = Fluid.Hybrid } in
  let fluid = { Fluid.default_config with Fluid.mode = Fluid.Fluid } in
  rejects_traffic "hybrid, no clients"
    { hybrid with Fluid.clients = 0; think_time_s = 60.0 };
  rejects_traffic "hybrid, more tracers than clients"
    { hybrid with Fluid.clients = 2; tracers = 4 };
  rejects_traffic "negative think time"
    { fluid with Fluid.think_time_s = -1.0 };
  rejects_traffic "zero epoch" { fluid with Fluid.epoch_s = 0.0 };
  rejects "zero wave width" { base with wave_width = 0 };
  rejects "NaN SLO" { base with slo = Float.nan };
  rejects "zero load" { base with load_rate_per_s = 0.0 }

(* --- determinism --------------------------------------------------------- *)

let fleet_json () =
  let r =
    Rejuv.Experiment.fleet_cell ~seed:7 ~hosts:8 ~width:3 ~slo:0.6
      ~strategy:(Wave.Reboot Strategy.Warm) ()
  in
  Rejuv.Experiment.Result.to_json (Rejuv.Experiment.Result.Fleet [ r ])

let test_same_seed_same_json () =
  let a = fleet_json () and b = fleet_json () in
  Alcotest.(check string) "byte-identical reports" a b;
  check_true "non-trivial payload" (String.length a > 100)

let suite =
  ( "fleet",
    [
      Alcotest.test_case "plan partitions consecutively" `Quick
        test_plan_partitions_consecutively;
      Alcotest.test_case "plan clamps width to slack" `Quick
        test_plan_clamps_width_to_slack;
      Alcotest.test_case "plan rejects impossible inputs" `Quick
        test_plan_rejects_impossible_inputs;
      Alcotest.test_case "warm pass meets SLO" `Slow
        test_warm_pass_meets_slo_and_recovers;
      Alcotest.test_case "migrate waves keep capacity" `Slow
        test_migrate_waves_lose_no_capacity_headroom;
      qcheck_slo_guard;
      Alcotest.test_case "create rejects bad config" `Quick
        test_create_rejects_bad_config;
      Alcotest.test_case "same seed, same JSON" `Slow test_same_seed_same_json;
    ] )
