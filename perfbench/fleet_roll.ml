(* fleet_roll: the ROADMAP north-star cell on [Rejuv.Fleet]. 200 hosts,
   hybrid traffic of 1M closed-loop flows per host (4 per-request
   tracers, 60-s think time), waves of 16 under a 0.75 SLO on 2
   partitions. One op is one full rolling pass over a freshly built and
   started fleet. A round builds [builds_per_round] fleets of seed
   --seed + round (the set-up) and rolls a warm, a saved and a cold pass
   over three of them (the timed phase). Fluid epoch ticks, Par_engine
   barrier rounds and the control plane do the work; the guest page
   cache and the runner idle. *)

open Rejuv

let partitions = 2
let strategies = [| Strategy.Warm; Strategy.Saved; Strategy.Cold |]

(* One fleet is created and started in about 10 ms on a 2-vCPU Xeon
   virtual machine, too short to time alone. The set-up region builds
   nine fleets, about 90 ms, which stays above the noise guard's 10 ms
   if fleet construction gets five times faster; only three are rolled,
   which keeps a round to about 3.5 s and gives a 30-s run about nine
   set-ups to take the median of. *)
let builds_per_round = 9

let hybrid_1m =
  {
    Netsim.Fluid.default_config with
    Netsim.Fluid.mode = Netsim.Fluid.Hybrid;
    clients = 1_000_000;
    tracers = 4;
    think_time_s = 60.0;
  }

let config ~seed =
  {
    Fleet.Config.default with
    hosts = 200;
    wave_width = 16;
    slo = 0.75;
    host = { Scenario.Config.default with seed; traffic = hybrid_1m };
    load_rate_per_s = 50.0;
    partitions;
  }

let build ~seed =
  let fleet =
    Harness.call "rejuv.fleet.create" (fun () -> Fleet.create (config ~seed))
  in
  Harness.call "rejuv.fleet.start" (fun () -> Fleet.start fleet);
  fleet

let pass ~i ~strategy fleet =
  Tracer.op := i;
  let par = Fleet.par fleet in
  let shards () =
    List.init (Simkit.Par_engine.shards par) (Simkit.Par_engine.shard par)
  in
  let report, region =
    Harness.timed ~phase:"run" (fun () ->
        Harness.queue_around shards (fun () ->
            Harness.call "rejuv.fleet.run" (fun () ->
                Fleet.run fleet ~strategy:(Wave.Reboot strategy))))
  in
  let s = Simkit.Par_engine.stats par in
  Harness.addi "simkit.par.rounds" s.Simkit.Par_engine.par_rounds;
  Harness.addi "simkit.par.barrier_waits" s.Simkit.Par_engine.par_barrier_waits;
  Harness.addi "simkit.par.messages" s.Simkit.Par_engine.par_messages;
  Harness.addi "simkit.par.quantum_ticks" s.Simkit.Par_engine.par_quantum_ticks;
  Harness.addi "netsim.traffic.completed"
    (report.Fleet.offered - report.Fleet.lost);
  Harness.addi "netsim.traffic.offered" report.Fleet.offered;
  Harness.addi "rejuv.fleet.waves" (List.length report.Fleet.waves);
  Harness.addi "rejuv.fleet.deferred"
    (List.fold_left (fun a w -> a + w.Fleet.deferred) 0 report.Fleet.waves);
  let summary =
    Experiment.Result.to_json (Experiment.Result.Fleet [ report ])
  in
  let error =
    if not report.Fleet.slo_met then Some "SLO missed"
    else if report.Fleet.skipped <> [] then
      Some (Printf.sprintf "%d hosts skipped" (List.length report.Fleet.skipped))
    else if Fleet.healthy_hosts fleet <> report.Fleet.hosts then
      Some "a host is unhealthy after the pass"
    else None
  in
  Harness.record { Harness.digest = Harness.digest_of summary; error };
  (Strategy.id strategy, region)

(* Layers fleet_roll has no call boundary into, reported as 0. Host
   stacks are private to the fleet: their scenarios are created and
   booted inside [Fleet.create] and [Fleet.start] (timed as the
   rejuv.fleet metrics), and their engines, per-request tracers,
   reboots and disks run inside [Fleet.run]. There is no sweep task and
   no runner. *)
let not_applicable =
  [
    "simkit.run_self_s";
    "guest.boot_s";
    "guest.request_s";
    "guest.request_p50_us";
    "guest.request_p99_us";
    "guest.requests_served";
    "guest.page_cache.hits";
    "guest.page_cache.misses";
    "guest.page_cache.hit_ratio";
    "netsim.httperf.completed";
    "netsim.httperf.failed";
    "netsim.httperf.ok_ratio";
    "netsim.httperf.continue_s";
    "xenvmm.reboot_s.warm";
    "xenvmm.reboot_s.saved";
    "xenvmm.reboot_s.cold";
    "xenvmm.reboot_events.warm";
    "xenvmm.reboot_events.saved";
    "xenvmm.reboot_events.cold";
    "hw.disk.bytes_read";
    "hw.disk.bytes_written";
    "mem.task_s";
    "rejuv.scenario_create_s";
    "runner.tasks";
    "runner.faulted";
    "runner.busy_s";
    "runner.utilization";
    "runner.overhead_s";
    "runner.task_p50_s";
    "runner.task_p90_s";
  ]
  @ List.map (fun id -> "rejuv.task_p50_s." ^ id) Vmm_sweep.experiment_ids

(* One round: build the round's fleets as one set-up region, then roll
   one pass over each of the first three, dropping each fleet after its
   pass and the rest right away. *)
let run ~seed ~seconds ~trace =
  let setups = ref [] in
  let n = Array.length strategies in
  let rounds =
    Harness.run_rounds ~trace ~seconds ~min_rounds:2 (fun ~round ~traced:_ ->
        (* Start every round from a collected heap, with a fresh ambient
           registry: the previous fleets' gauges would keep them alive. *)
        ignore (Obs.reset_ambient ());
        Gc.full_major ();
        match
          Harness.timed ~phase:"setup" (fun () ->
              Array.init builds_per_round (fun _ ->
                  Some (build ~seed:(seed + round))))
        with
        | exception Simkit.Fault.Error f ->
          Harness.check (Some ("fleet set-up: " ^ Simkit.Fault.to_string f));
          []
        | built, setup ->
          setups := setup :: !setups;
          Harness.addi "obs.metrics" (Obs.Registry.cardinality (Obs.ambient ()));
          let fleets = Array.sub built 0 n in
          Array.fill built 0 builds_per_round None;
          List.concat
            (List.init n (fun k ->
                 let i = (round * n) + k in
                 let fleet = Option.get fleets.(k) in
                 fleets.(k) <- None;
                 match pass ~i ~strategy:strategies.(k) fleet with
                 | region -> [ region ]
                 | exception Simkit.Fault.Error f ->
                   Harness.record
                     (Harness.bad (Printf.sprintf "op %d faulted" i)
                        (Simkit.Fault.to_string f));
                   [])))
  in
  let layers =
    if not trace then []
    else begin
      let tr = Tracer.summary () in
      let per_round name = Harness.per_round (Harness.total name) in
      let run = Tracer.find tr "rejuv.fleet.run" in
      let events =
        Harness.total "rejuv.fleet.create.events"
        +. Harness.total "rejuv.fleet.start.events"
        +. Harness.total "rejuv.fleet.run.events"
      in
      let med name =
        Harness.median (Array.to_list (Tracer.find tr name).Tracer.durations)
      in
      [
        Harness.metric "count" "simkit.events" (Harness.per_round events);
        Harness.metric "1/s" "simkit.events_per_s"
          (Harness.total "rejuv.fleet.run.events" /. run.Tracer.total_s);
        Harness.metric "count" "simkit.queue.tombstones" (per_round "simkit.queue.tombstones");
        Harness.metric "count" "simkit.queue.compactions" (per_round "simkit.queue.compactions");
        Harness.metric "count" "simkit.queue.resizes" (per_round "simkit.queue.resizes");
        Harness.metric "count" "simkit.par.rounds" (per_round "simkit.par.rounds");
        Harness.metric "count" "simkit.par.barrier_waits" (per_round "simkit.par.barrier_waits");
        Harness.metric "count" "simkit.par.messages" (per_round "simkit.par.messages");
        Harness.metric "count" "simkit.par.quantum_ticks" (per_round "simkit.par.quantum_ticks");
        Harness.metric "count" "netsim.traffic.completed" (per_round "netsim.traffic.completed");
        Harness.metric "count" "netsim.traffic.offered" (per_round "netsim.traffic.offered");
        Harness.secs "rejuv.fleet.create_s" (med "rejuv.fleet.create");
        Harness.secs "rejuv.fleet.start_s" (med "rejuv.fleet.start");
        Harness.secs "rejuv.fleet.run_s" (Harness.per_round run.Tracer.total_s);
        Harness.metric "count" "rejuv.fleet.waves" (per_round "rejuv.fleet.waves");
        Harness.metric "count" "rejuv.fleet.deferred" (per_round "rejuv.fleet.deferred");
        Harness.metric "count" "obs.metrics" (per_round "obs.metrics");
      ]
    end
  in
  {
    Harness.setups = List.rev !setups;
    rounds;
    layers;
    not_applicable;
    info = Paper.unvalidated;
  }
