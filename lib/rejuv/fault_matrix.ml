module Fault = Simkit.Fault

type cell = {
  fm_strategy : Strategy.t;
  fm_site : string;
  injected : int;
  recovered : bool;
  completed : Strategy.t;
  retries : int;
  domains_lost : int;
  baseline_downtime_s : float;
  downtime_s : float;
  extra_downtime_s : float;
}

let grid =
  List.concat_map
    (fun strategy ->
      List.map (fun (site, _) -> (strategy, site)) Fault.injection_sites)
    Strategy.all

let smoke_grid = [ (Strategy.Warm, "xend.resume") ]

(* One rejuvenation of a small consolidated testbed: two ordinary VMs
   (so resume/restore paths carry real work) plus one driver domain (so
   the "driver.reprovision" site is reachable). [arm] runs after the
   boot settles and before the reboot, so an [On_nth 1] trigger hits
   the rejuvenation itself, never the initial provisioning. Returns
   the measured downtime, the recovery outcome and how many times the
   armed site actually fired. *)
let measure ~seed ~strategy ~arm =
  let scenario =
    Scenario.create
      { Scenario.Config.default with seed; vm_count = 2; driver_vm_count = 1 }
  in
  Roothammer.start_and_run scenario;
  let plan = Scenario.fault_plan scenario in
  let before = Fault.Plan.total_fired plan in
  arm plan;
  let duration, outcome = Roothammer.rejuvenate_measured scenario ~strategy in
  (* Settle briefly, then tear the warm artifact down so the short run
     cannot leak a degraded NIC. *)
  Roothammer.settle scenario ~seconds:5.0;
  Scenario.cancel_network_artifact scenario;
  (duration, outcome, Fault.Plan.total_fired plan - before)

let run_cell ?(seed = 42) ~strategy ~site () =
  if not (Fault.is_injection_site site) then
    Fault.fail (Fault.Invariant ("Fault_matrix: unknown site " ^ site));
  let baseline_downtime_s, _, _ =
    measure ~seed ~strategy ~arm:(fun _ -> ())
  in
  let downtime_s, outcome, injected =
    measure ~seed ~strategy ~arm:(fun plan ->
        Fault.Plan.arm plan ~site (Fault.Plan.On_nth 1))
  in
  {
    fm_strategy = strategy;
    fm_site = site;
    injected;
    recovered = Recovery.recovered outcome;
    completed = outcome.Recovery.completed;
    retries = outcome.Recovery.retries;
    domains_lost = List.length outcome.Recovery.abandoned;
    baseline_downtime_s;
    downtime_s;
    extra_downtime_s = downtime_s -. baseline_downtime_s;
  }
