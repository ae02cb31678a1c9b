module Vmm = Xenvmm.Vmm

module Config = struct
  type t = {
    hosts : int;
    host : Scenario.Config.t;
    wave_width : int;
    slo : float;
    gap_s : float;
    load_rate_per_s : float;
    blind_dispatch : bool;
    sample_interval_s : float;
    partitions : int;
  }

  let default = (* simlint: allow D011 immutable template; the host config's engine/plan slots are None *)
    {
      hosts = 16;
      host = Scenario.Config.default;
      wave_width = 4;
      slo = 0.7;
      gap_s = 10.0;
      load_rate_per_s = 200.0;
      blind_dispatch = false;
      sample_interval_s = 5.0;
      partitions = 1;
    }

  let cluster = (* simlint: allow D011 immutable template; the host config's engine/plan slots are None *)
    {
      default with
      hosts = 4;
      host = { Scenario.Config.default with vm_count = 3 };
      wave_width = 1;
      slo = 0.0;
      gap_s = 20.0;
      load_rate_per_s = 100.0;
    }
end

(* Control-plane barrier period, simulated seconds: admission checks,
   deferral retries, wave starts and capacity sampling all happen on
   this grid. *)
let sync_quantum_s = 2.0

(* One fleet host. The cell is the only state shared across the shard
   boundary, and the protocol keeps it race-free by phase: [up], [busy]
   and [done_at] are written by the owning shard's events during a
   round and read by the coordinator only at quantum barriers (workers
   parked); [redirect_ok] flows the other way — written at barriers,
   read by the shard's load events during rounds. [counted] is
   coordinator-only. The round barrier provides the happens-before
   edges. *)
type cell = {
  idx : int;
  shard : int;
  node : Scenario.t;
  mutable up : bool;
  mutable busy : bool;  (* a rejuvenation task is in flight *)
  mutable done_at : float;  (* completion time of the last task *)
  mutable counted : bool;  (* completion folded into the obs counter *)
  mutable redirect_ok : bool;  (* some *other* host was healthy at the
                                  last barrier *)
}

type t = {
  cfg : Config.t;
  plan : Wave.plan;
  par : Simkit.Par_engine.t;
  members : cell array;
  fleet_spare : Scenario.t;
  mutable spare_up : bool;
}

let par t = t.par

let host_healthy c =
  Scenario.vms c.node <> []
  && List.for_all Scenario.vm_is_up (Scenario.vms c.node)

let healthy_hosts t =
  Array.fold_left (fun n c -> if host_healthy c then n + 1 else n) 0 t.members

let create (cfg : Config.t) =
  if cfg.Config.partitions <= 0 then
    invalid_arg "Fleet.create: partitions <= 0";
  let plan =
    Wave.plan_exn ~hosts:cfg.Config.hosts ~width:cfg.Config.wave_width
      ~slo:cfg.Config.slo
  in
  (* [run] derives its stream rates from the load and the traffic
     config. *)
  if not (cfg.Config.load_rate_per_s > 0.0) then
    invalid_arg
      (Printf.sprintf "Fleet.create: load_rate_per_s %g is not > 0"
         cfg.Config.load_rate_per_s);
  Netsim.Fluid.validate_config cfg.Config.host.Scenario.Config.traffic;
  let shards = min cfg.Config.partitions cfg.Config.hosts in
  (* Hosts share no mutable simulation state, so any cross-host event
     coupling flows through the coordinator at barrier times — that,
     plus per-host seeds derived from stable host indices (not from
     shard-local split order), is what makes the run byte-identical
     for every partition count. *)
  let par =
    Simkit.Par_engine.create ~seed:cfg.Config.host.Scenario.Config.seed
      ~quantum:sync_quantum_s ~shards ()
  in
  let members =
    Array.init cfg.Config.hosts (fun i ->
        let shard = i mod shards in
        let node =
          Scenario.create
            {
              cfg.Config.host with
              Scenario.Config.engine = Some (Simkit.Par_engine.shard par shard);
              name_prefix =
                Printf.sprintf "%sh%d-"
                  cfg.Config.host.Scenario.Config.name_prefix (i + 1);
            }
        in
        {
          idx = i;
          shard;
          node;
          up = false;
          busy = false;
          done_at = 0.0;
          counted = true;
          redirect_ok = false;
        })
  in
  (* The spare host: powered VMM, no guests — a migration target only.
     It is pinned to shard 0, where migration traffic stays local. *)
  let fleet_spare =
    Scenario.create
      {
        cfg.Config.host with
        Scenario.Config.engine = Some (Simkit.Par_engine.shard par 0);
        vm_count = 0;
        driver_vm_count = 0;
        name_prefix = "spare-";
      }
  in
  let t = { cfg; plan; par; members; fleet_spare; spare_up = false } in
  Obs.gauge "fleet.healthy_hosts" (fun () -> float_of_int (healthy_hosts t));
  Obs.gauge "fleet.capacity_fraction" (fun () ->
      float_of_int (healthy_hosts t) /. float_of_int cfg.Config.hosts);
  Obs.instrument_par_engine (Obs.ambient ()) par;
  t

let all_up t = t.spare_up && Array.for_all (fun c -> c.up) t.members

let start t =
  Scenario.start t.fleet_spare (fun () -> t.spare_up <- true);
  Array.iter (fun c -> Scenario.start c.node (fun () -> c.up <- true)) t.members;
  Simkit.Par_engine.run t.par ~on_quantum:(fun _q ->
      if all_up t || Simkit.Par_engine.idle t.par then `Stop else `Continue);
  if not (all_up t) then
    Simkit.Fault.fail (Simkit.Fault.Stalled "Fleet.start")

(* --- per-host actions ---------------------------------------------------- *)

let trace_host c fmt =
  Printf.ksprintf
    (fun msg ->
      Simkit.Trace.instant (Scenario.trace c.node)
        (Printf.sprintf "fleet host %d: %s" (c.idx + 1) msg))
    fmt

(* Host tasks run entirely on the host's own shard and report nothing
   but the cell flip; observability (the hosts_rejuvenated counter)
   happens on the coordinator when the completion is observed at a
   barrier, so the task body never touches another domain's state. *)
let rejuvenate_host c ~strategy k =
  Roothammer.rejuvenate c.node ~strategy (fun outcome ->
      (match outcome.Recovery.fatal with
      | Some f -> trace_host c "not recovered: %s" (Simkit.Fault.to_string f)
      | None -> ());
      k ())

(* Evacuate the guests to the spare, warm-reboot the emptied VMM, bring
   the guests home. Any failure is traced and the host abandoned in
   whatever state it reached — the wave must not wedge, and the health
   gauges already account for it. Migrate waves run with a single
   shard (enforced in [run]), so the spare is always local. *)
let migrate_then_reboot t c k =
  let src = Scenario.vmm c.node in
  let dst = Scenario.vmm t.fleet_spare in
  let kernels = List.map Scenario.vm_kernel (Scenario.vms c.node) in
  (* Conservative evacuation rate: the worst tracker-modulated dirty
     rate across the host's VMs (the static workload rate while memdyn
     is off — every domain then reports exactly that). *)
  let workload = t.cfg.Config.host.Scenario.Config.workload in
  let now = Simkit.Engine.now (Scenario.engine c.node) in
  let dirty_bytes_per_s =
    List.fold_left
      (fun acc v ->
        Float.max acc
          (Migration.dirty_rate_of_domain ~workload
             (Scenario.vm_domain v) ~now))
      (Migration.dirty_rate_of_workload workload)
      (Scenario.vms c.node)
  in
  let give_up what e =
    trace_host c "%s failed: %s" what (Vmm.error_message e);
    k ()
  in
  Migration.evacuate ~src ~dst ~kernels ~dirty_bytes_per_s (function
    | Error e -> give_up "evacuation" e
    | Ok () ->
      Vmm.shutdown_dom0 src (fun () ->
          Vmm.quick_reload src (function
            | Error e -> give_up "quick reload" e
            | Ok () ->
              Vmm.boot_dom0 src (fun () ->
                  Migration.evacuate ~src:dst ~dst:src ~kernels
                    ~dirty_bytes_per_s (function
                    | Error e -> give_up "migration back" e
                    | Ok () -> k ())))))

let host_task t c ~strategy k =
  match (strategy : Wave.strategy) with
  | Wave.Reboot s -> rejuvenate_host c ~strategy:s k
  | Wave.Migrate -> migrate_then_reboot t c k

(* --- the rolling pass ---------------------------------------------------- *)

type wave_report = {
  wave_index : int;
  wave_hosts : int list;
  started_at_s : float;
  wave_makespan_s : float;
  deferred : int;
}

type report = {
  fr_strategy : Wave.strategy;
  hosts : int;
  wave_width : int;
  slo : float;
  slo_floor : int;
  waves : wave_report list;
  makespan_s : float;
  offered : int;
  lost : int;
  loss_ratio : float;
  min_healthy : int;
  mean_healthy : float;
  slo_met : bool;
  skipped : int list;
}

let admission_retries = 25

(* Partition a wave's pending hosts into the ones the SLO guard admits
   right now and the ones it defers. Taking down a healthy host costs
   one unit of capacity; an already-unhealthy host costs none. All
   checks happen at one barrier instant, so [taken] tracks the healthy
   hosts this same decision is about to remove. *)
let admit t ~slo_floor pending =
  let healthy = healthy_hosts t in
  let taken = ref 0 in
  List.partition
    (fun i ->
      let cost = if host_healthy t.members.(i) then 1 else 0 in
      if healthy - !taken - cost >= slo_floor then begin
        taken := !taken + cost;
        true
      end
      else false)
    pending

(* The in-flight wave, advanced one quantum tick at a time. *)
type wave_state = {
  w_idx : int;
  mutable w_pending : int list;
  mutable w_admitted : int list;  (* admission order *)
  mutable w_deferrals : int;
  w_started : float;
}

let run t ~strategy =
  let cfg = t.cfg and plan = t.plan in
  if
    (match (strategy : Wave.strategy) with
    | Wave.Migrate -> true
    | Wave.Reboot _ -> false)
    && Simkit.Par_engine.shards t.par > 1
  then
    Simkit.Fault.fail
      (Simkit.Fault.Invariant
         "Fleet.run: migrate waves share the spare host and its \
          migration link; partitions must be 1");
  (* Open-loop load, one generator per host so every arrival is shard-
     local. Streams are seeded from (fleet seed, host index): stable
     across partition counts, unlike anything split from a shard
     engine's root stream. *)
  let rate = cfg.Config.load_rate_per_s /. float_of_int cfg.Config.hosts in
  (* Traffic-mode split. [Per_request] keeps the historical Poisson
     streams event-for-event ([rate *. 1.0] is exact). [Fluid]/[Hybrid]
     carry the bulk as one epoch-integrated flow stream per host — no
     RNG and O(shards × epochs) events however many clients are
     modeled, which is what lets a host carry 1M+ flows. When the template models an
     explicit client population with a positive think time, each of
     the [clients] closed-loop flows offers ~1/think requests/s;
     otherwise the fleet's [load_rate_per_s] knob is split as before.
     [create] validated the traffic config, so the split is finite and
     in [0, 1]. *)
  let traffic = cfg.Config.host.Scenario.Config.traffic in
  let tracer_fraction =
    match traffic.Netsim.Fluid.mode with
    | Netsim.Fluid.Per_request -> 1.0
    | Netsim.Fluid.Fluid -> 0.0
    | Netsim.Fluid.Hybrid ->
      float_of_int traffic.Netsim.Fluid.tracers
      /. float_of_int traffic.Netsim.Fluid.clients
  in
  let host_rate =
    if traffic.Netsim.Fluid.mode = Netsim.Fluid.Per_request then rate
    else if traffic.Netsim.Fluid.think_time_s > 0.0 then
      float_of_int traffic.Netsim.Fluid.clients
      /. traffic.Netsim.Fluid.think_time_s
    else rate
  in
  (* A request succeeds on a healthy host, or — unless dispatch is
     blind — when the balancer could have sent it to some other host
     that was healthy as of the last barrier. The barrier-published
     [redirect_ok] goes first: it settles most reads without walking
     the host's VMs and services, and both tests are pure, so the
     order cannot change the answer. *)
  let served c =
    ((not cfg.Config.blind_dispatch) && c.redirect_ok) || host_healthy c
  in
  let gens =
    if tracer_fraction <= 0.0 then [||]
    else
      Array.map
        (fun c ->
          Netsim.Poisson.create
            (Scenario.engine c.node)
            ~rate_per_s:(host_rate *. tracer_fraction)
            ~rng:
              (Simkit.Rng.create
                 ((cfg.Config.host.Scenario.Config.seed * 1_000_003)
                 + c.idx + 1))
            ~request:(fun k -> k (served c))
            ())
        t.members
  in
  (* One flow value per shard, one stream per host in host-index order.
     A shard's hosts share its clock and epoch grid, so one event per
     shard per epoch advances all their streams, and it makes the same
     reads in the same order as one tick event per host would
     (doc/traffic.md, Determinism). *)
  let flow_gens =
    if tracer_fraction >= 1.0 then [||]
    else
      Array.init (Simkit.Par_engine.shards t.par) (fun s ->
          let cells =
            Array.of_list
              (List.filter (fun c -> c.shard = s) (Array.to_list t.members))
          in
          Netsim.Fluid.Open.create
            (Simkit.Par_engine.shard t.par s)
            ~rates_per_s:
              (Array.make (Array.length cells)
                 (host_rate *. (1.0 -. tracer_fraction)))
            ~epoch_s:traffic.Netsim.Fluid.epoch_s
            ~served_fraction:(fun j -> if served cells.(j) then 1.0 else 0.0)
            ())
  in
  Array.iter Netsim.Poisson.start gens;
  Array.iter Netsim.Fluid.Open.start flow_gens;
  let t0 = Simkit.Par_engine.last_quantum t.par in
  let min_healthy = ref (healthy_hosts t) in
  let healthy_sum = ref 0.0 in
  let healthy_n = ref 0 in
  let next_sample = ref t0 in
  let wave_reports = ref [] in
  let skipped = ref [] in
  let queue = ref (List.mapi (fun i w -> (i, w)) plan.Wave.waves) in
  let cur = ref None in
  let next_wave_at = ref neg_infinity in
  let end_q = ref t0 in
  let finished = ref false in
  (* Everything the control plane does happens at barrier time [q],
     with every worker parked: sampling, redirect refresh, completion
     accounting, SLO-guarded admission, task launches. That is what
     keeps control decisions independent of the partitioning. *)
  let sample q =
    if q >= !next_sample then begin
      let h = healthy_hosts t in
      if h < !min_healthy then min_healthy := h;
      healthy_sum := !healthy_sum +. float_of_int h;
      incr healthy_n;
      next_sample := !next_sample +. cfg.Config.sample_interval_s
    end
  in
  let refresh_redirects () =
    let healthy = healthy_hosts t in
    Array.iter
      (fun c ->
        c.redirect_ok <- healthy - (if host_healthy c then 1 else 0) > 0)
      t.members
  in
  let count_completions q =
    Array.iter
      (fun c ->
        if (not c.counted) && not c.busy then begin
          c.counted <- true;
          Obs.incr ~time:q "fleet.hosts_rejuvenated"
        end)
      t.members
  in
  let launch q hosts =
    List.iter
      (fun i ->
        let c = t.members.(i) in
        c.busy <- true;
        c.counted <- false)
      hosts;
    match (strategy : Wave.strategy) with
    | Wave.Reboot _ ->
      (* Concurrent: each host's task is scheduled at the barrier time
         on its own shard. *)
      List.iter
        (fun i ->
          let c = t.members.(i) in
          let eng = Scenario.engine c.node in
          ignore
            (Simkit.Engine.schedule_at eng ~time:q (fun () ->
                 host_task t c ~strategy (fun () ->
                     c.done_at <- Simkit.Engine.now eng;
                     c.busy <- false))))
        hosts
    | Wave.Migrate ->
      (* Serial: the spare's memory and the migration link are shared. *)
      let rec serial time = function
        | [] -> ()
        | i :: rest ->
          let c = t.members.(i) in
          let eng = Scenario.engine c.node in
          ignore
            (Simkit.Engine.schedule_at eng ~time (fun () ->
                 host_task t c ~strategy (fun () ->
                     c.done_at <- Simkit.Engine.now eng;
                     c.busy <- false;
                     serial (Simkit.Engine.now eng) rest)))
      in
      serial q hosts
  in
  let rec tick_waves q =
    match !cur with
    | None -> (
      match !queue with
      | [] ->
        if not !finished then begin
          finished := true;
          end_q := q
        end
      | (idx, wave) :: rest ->
        if q >= !next_wave_at then begin
          queue := rest;
          Obs.set_gauge "fleet.wave_index" (float_of_int idx);
          cur :=
            Some
              {
                w_idx = idx;
                w_pending = wave;
                w_admitted = [];
                w_deferrals = 0;
                w_started = q;
              };
          tick_waves q
        end)
    | Some w ->
      let in_flight =
        List.exists (fun i -> t.members.(i).busy) w.w_admitted
      in
      (* Admission runs batch-by-batch, like the sequential control
         plane did: the deferred rest of a wave is reconsidered once
         the admitted batch has completed. *)
      if w.w_pending <> [] && not in_flight then begin
        match admit t ~slo_floor:plan.Wave.slo_floor w.w_pending with
        | [], waiting ->
          if w.w_deferrals >= admission_retries then begin
            List.iter
              (fun i -> trace_host t.members.(i) "skipped: SLO guard")
              waiting;
            skipped := !skipped @ waiting;
            w.w_pending <- []
          end
          else w.w_deferrals <- w.w_deferrals + 1
        | now, waiting ->
          w.w_pending <- waiting;
          w.w_admitted <- w.w_admitted @ now;
          launch q now
      end;
      if
        w.w_pending = []
        && List.for_all (fun i -> not t.members.(i).busy) w.w_admitted
      then begin
        let makespan =
          List.fold_left
            (fun acc i -> Float.max acc (t.members.(i).done_at -. w.w_started))
            0.0 w.w_admitted
        in
        wave_reports :=
          {
            wave_index = w.w_idx;
            wave_hosts = w.w_admitted;
            started_at_s = w.w_started;
            wave_makespan_s = makespan;
            deferred = w.w_deferrals;
          }
          :: !wave_reports;
        cur := None;
        next_wave_at := q +. cfg.Config.gap_s;
        tick_waves q
      end
  in
  Simkit.Par_engine.run t.par ~on_quantum:(fun q ->
      sample q;
      refresh_redirects ();
      count_completions q;
      tick_waves q;
      if !finished then `Stop
      else if Simkit.Par_engine.idle t.par then `Stop
      else `Continue);
  if not !finished then Simkit.Fault.fail (Simkit.Fault.Stalled "Fleet.run");
  (* Let probes and in-flight requests settle, then stop the plumbing. *)
  let settled = !end_q +. 5.0 in
  Simkit.Par_engine.run t.par ~until:settled;
  Array.iter Netsim.Poisson.stop gens;
  Array.iter Netsim.Fluid.Open.stop flow_gens;
  let mean_healthy =
    if !healthy_n = 0 then float_of_int (healthy_hosts t)
    else !healthy_sum /. float_of_int !healthy_n
  in
  let sum_over arr f = Array.fold_left (fun n g -> n + f g) 0 arr in
  let offered =
    sum_over gens Netsim.Poisson.offered
    + sum_over flow_gens Netsim.Fluid.Open.offered
  in
  let lost =
    sum_over gens Netsim.Poisson.lost
    + sum_over flow_gens Netsim.Fluid.Open.lost
  in
  {
    fr_strategy = strategy;
    hosts = cfg.Config.hosts;
    wave_width = plan.Wave.width;
    slo = cfg.Config.slo;
    slo_floor = plan.Wave.slo_floor;
    waves = List.rev !wave_reports;
    makespan_s = settled -. t0;
    offered;
    lost;
    loss_ratio =
      (if offered = 0 then 0.0
       else float_of_int lost /. float_of_int offered);
    min_healthy = !min_healthy;
    mean_healthy;
    slo_met = !min_healthy >= plan.Wave.slo_floor;
    skipped = !skipped;
  }
