(* Rolling VMM rejuvenation across a load-balanced cluster (Section 6).

   Runs the Figure 9 cluster on the simulator: m hosts of 3 VMs, each
   rejuvenated in turn with the chosen strategy under 100 req/s of
   blind-dispatched load. Prints each host's dark window and the
   requests lost, beside the analytic Figure 9 model's lost capacity
   over the same window.

   Run with: dune exec examples/cluster_rolling.exe [m] [warm|saved|cold] *)

let pf = Format.printf

let () =
  let m = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let strategy =
    if Array.length Sys.argv > 2 then
      Option.value (Rejuv.Strategy.of_string Sys.argv.(2))
        ~default:Rejuv.Strategy.Warm
    else Rejuv.Strategy.Warm
  in
  pf "Rolling rejuvenation of %d hosts with the %s@.@." m
    (Rejuv.Strategy.name strategy);

  (* Blind dispatch: each host is offered 1/m of the load, and a request
     sent to a host while it is dark is lost. *)
  let fleet =
    Rejuv.Fleet.create
      { Rejuv.Fleet.Config.cluster with hosts = m; blind_dispatch = true }
  in
  Rejuv.Fleet.start fleet;
  let r = Rejuv.Fleet.run fleet ~strategy:(Rejuv.Wave.Reboot strategy) in

  (* The cluster preset rolls one host per wave, so a wave's window is
     its host's dark window. *)
  let window (w : Rejuv.Fleet.wave_report) =
    (w.started_at_s, w.started_at_s +. w.wave_makespan_s)
  in
  pf "measured dark windows:@.";
  List.iter
    (fun (w : Rejuv.Fleet.wave_report) ->
      let lo, hi = window w in
      pf "  host %d  t=%6.0f .. %6.0f s  (%.0f s)@."
        (List.hd w.wave_hosts + 1) lo hi w.wave_makespan_s)
    r.Rejuv.Fleet.waves;
  let dark =
    List.fold_left
      (fun acc (w : Rejuv.Fleet.wave_report) -> acc +. w.wave_makespan_s)
      0.0 r.Rejuv.Fleet.waves
  in
  pf "requests lost: %d of %d (%.1f %%)@." r.Rejuv.Fleet.lost
    r.Rejuv.Fleet.offered
    (100.0 *. r.Rejuv.Fleet.loss_ratio);

  (* The analytic Section 6 model (p = 1 host, the paper's outages for
     11 JBoss VMs), its reboots placed where the measured ones started,
     integrated up to the last measured recovery. *)
  let windows = List.map window r.Rejuv.Fleet.waves in
  let first = fst (List.hd windows) in
  let last_start, last_end = List.nth windows (m - 1) in
  let gap_s =
    if m > 1 then (last_start -. first) /. float_of_int (m - 1) else 0.0
  in
  let params = Rejuv.Cluster.paper_params ~m ~p:1.0 () in
  let timeline =
    Rejuv.Cluster.rolling_rejuvenation params ~strategy ~start_at:first ~gap_s
  in
  pf "@.lost capacity over t=%.0f .. %.0f s:@." first last_end;
  pf "  measured        %6.0f host-seconds dark@." dark;
  pf "  analytic model  %6.0f host-seconds (paper's outages)@."
    (Rejuv.Cluster.lost_capacity params timeline ~horizon_s:last_end)
