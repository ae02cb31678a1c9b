(* The empirical cluster: the paper's Section 6 rolling rejuvenation
   with measured loss, run on the fleet's cluster preset. *)
open Helpers
module Fleet = Rejuv.Fleet
module Wave = Rejuv.Wave
module Strategy = Rejuv.Strategy

(* Three hosts of two VMs rejuvenated one at a time. Blind dispatch by
   default: the loss bands below measure the paper's lost-request
   model, where a down host's share of the load is dropped. *)
let cluster ?(blind_dispatch = true) () =
  let f =
    Fleet.create
      {
        Fleet.Config.cluster with
        hosts = 3;
        host = { Rejuv.Scenario.Config.default with vm_count = 2 };
        blind_dispatch;
      }
  in
  Fleet.start f;
  f

let roll f strategy = Fleet.run f ~strategy:(Wave.Reboot strategy)

let test_start_brings_all_hosts_up () =
  let f = cluster () in
  check_int "all healthy" 3 (Fleet.healthy_hosts f)

let test_rolling_warm_small_losses () =
  let f = cluster () in
  let r = roll f Strategy.Warm in
  check_int "one wave per host" 3 (List.length r.Fleet.waves);
  List.iter
    (fun w ->
      check_int "one host per wave" 1 (List.length w.Fleet.wave_hosts);
      check_in_band "per-host procedure" ~lo:40.0 ~hi:75.0
        w.Fleet.wave_makespan_s)
    r.Fleet.waves;
  (* A third of the requests hit the down host during its ~57 s
     outage. Over the whole pass the loss ratio stays small. *)
  check_in_band "loss ratio" ~lo:0.05 ~hi:0.35 r.Fleet.loss_ratio;
  check_int "cluster healthy after" 3 (Fleet.healthy_hosts f)

let test_warm_loses_less_than_cold () =
  let warm = roll (cluster ()) Strategy.Warm in
  let cold = roll (cluster ()) Strategy.Cold in
  check_true "warm loses far fewer requests"
    (float_of_int cold.Fleet.lost > 2.0 *. float_of_int warm.Fleet.lost)

let test_capacity_timeline_dips_one_host_at_a_time () =
  (* The healthy-host samples of a warm pass: one host down during each
     reboot, all three back in the gaps between waves. *)
  let f = cluster () in
  let r = roll f Strategy.Warm in
  check_int "never below m-1, dipped during reboots" 2 r.Fleet.min_healthy;
  check_true "recovered between reboots" (r.Fleet.mean_healthy > 2.0);
  check_int "recovered after" 3 (Fleet.healthy_hosts f)

let test_cluster_never_fully_dark () =
  (* Even a rolling COLD reboot keeps the cluster serving. *)
  let r = roll (cluster ()) Strategy.Cold in
  check_true "always at least 2 hosts" (r.Fleet.min_healthy >= 2)

let test_healthy_dispatch_avoids_down_hosts () =
  (* Health-aware dispatch sends a down host's requests to a healthy
     one, so a rolling warm pass loses almost nothing. *)
  let aware = roll (cluster ~blind_dispatch:false ()) Strategy.Warm in
  check_true "served nearly everything" (aware.Fleet.loss_ratio < 0.01);
  let blind = roll (cluster ()) Strategy.Warm in
  check_true "blind dispatch loses more"
    (float_of_int blind.Fleet.lost
    > 10.0 *. float_of_int (max aware.Fleet.lost 1))

let suite =
  ( "cluster_sim",
    [
      Alcotest.test_case "start brings hosts up" `Quick
        test_start_brings_all_hosts_up;
      Alcotest.test_case "rolling warm" `Slow test_rolling_warm_small_losses;
      Alcotest.test_case "warm loses less than cold" `Slow
        test_warm_loses_less_than_cold;
      Alcotest.test_case "capacity timeline" `Slow
        test_capacity_timeline_dips_one_host_at_a_time;
      Alcotest.test_case "never fully dark" `Slow test_cluster_never_fully_dark;
      Alcotest.test_case "healthy dispatch avoids down hosts" `Slow
        test_healthy_dispatch_avoids_down_hosts;
    ] )
