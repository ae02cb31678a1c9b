(* vmm_sweep: the paper's VMM experiments as one batch — figures 4, 5
   and 6, quick reload, the Section 5.6 fits, the fault matrix and the
   elastic-restore grid, plus figure 6b's 11-VM JBoss point. Each seed
   expands through [Experiment.sweep_tasks] into 54 tasks; a round is a
   set-up batch, then [seeds_per_round] consecutive seeds run as one
   [Runner.Sweep.run ~jobs:2] batch with no cache. One op is one task. No web traffic: the
   engine, the VMM model and the runner pool do the work. *)

open Rejuv

let seeds_per_round = 4
let jobs = 2

(* Every round starts with a set-up: it expands the tasks of
   [seeds_per_round] fixed warm-up seeds and runs them as one batch,
   the same work as the round's timed batch. The first set-up also grows
   the heap; the median over the run's set-ups leaves that one out. One
   set-up per round spreads the set-ups over the whole run, as the
   timed batches are, so a slow minute of the machine weighs on both
   alike. The warm-up seeds do not depend on --seed, so neither does
   set-up time. *)
let warmup_seed = 1

let ids =
  [
    "fig4";
    "fig5";
    "fig6";
    "quick_reload";
    "section_5_6_fits";
    "fault_matrix";
    "elastic_restore";
  ]

(* The experiment ids ops are grouped by: [ids] and figure 6b. *)
let experiment_ids = ids @ [ "fig6b" ]

(* Keys carry the seed so one batch can hold several seeds; figure 6b
   is figure 6's shard at 11 VMs under JBoss, renamed to stay unique. *)
let tasks_of_seed seed =
  let params = { Experiment.Spec.default_params with seed } in
  let rename f (t : Experiment.Result.t Runner.Sweep.task) =
    {
      t with
      Runner.Sweep.key = Printf.sprintf "s%06d/%s" seed (f t.Runner.Sweep.key);
      cache_key = None;
    }
  in
  List.map (rename Fun.id) (Experiment.sweep_tasks ~params ids)
  @ List.map
      (rename (fun k -> "fig6b" ^ String.sub k 4 (String.length k - 4)))
      (Experiment.sweep_tasks
         ~params:
           { params with workload = Scenario.Jboss; vm_counts = Some [ 11 ] }
         [ "fig6" ])

let tasks_of_round ~seed r =
  List.concat_map tasks_of_seed
    (List.init seeds_per_round (fun k -> seed + (r * seeds_per_round) + k))

(* "s000042/fig4/mem=11" -> "fig4" *)
let experiment_of_key key =
  match String.split_on_char '/' key with _ :: id :: _ -> id | _ -> key

let check (o : Experiment.Result.t Runner.Sweep.outcome) =
  match o.Runner.Sweep.value with
  | Error f -> Harness.bad ("fault " ^ o.key) (Simkit.Fault.to_string f)
  | Ok v -> (
    let summary = o.key ^ " " ^ Experiment.Result.to_json v in
    match v with
    | Experiment.Result.Fault_matrix cells
      when List.exists (fun c -> not c.Fault_matrix.recovered) cells ->
      Harness.bad summary "a fault-matrix cell did not recover"
    | _ -> Harness.ok summary)

type task = {
  experiment : string;
  wall_s : float;
  events : int;
  faulted : bool;
}

let reduce (o : Experiment.Result.t Runner.Sweep.outcome) =
  {
    experiment = experiment_of_key o.key;
    wall_s = o.metrics.Runner.Sweep.wall_s;
    events = o.metrics.Runner.Sweep.sim_events;
    faulted = Stdlib.Result.is_error o.value;
  }

let paper_rows ~seed outcomes =
  let find key =
    List.find_map
      (fun (o : Experiment.Result.t Runner.Sweep.outcome) ->
        if String.equal o.key (Printf.sprintf "s%06d/%s" seed key) then
          Stdlib.Result.to_option o.value
        else None)
      outcomes
  in
  let open Experiment in
  match
    ( find "fig4/mem=11",
      find "fig5/vms=11",
      find "quick_reload",
      find "fig6/vms=11",
      find "fig6b/vms=11" )
  with
  | ( Some (Result.Task_times [ f4 ]),
      Some (Result.Task_times [ f5 ]),
      Some (Result.Reload q),
      Some (Result.Fig6 [ f6a ]),
      Some (Result.Fig6 [ f6b ]) ) ->
    Paper.report
      [
        (Paper.fig4_suspend, f4.onmem_suspend_s);
        (Paper.fig4_resume, f4.onmem_resume_s);
        (Paper.fig4_save, f4.xen_save_s);
        (Paper.fig4_restore, f4.xen_restore_s);
        (Paper.fig5_suspend, f5.onmem_suspend_s);
        (Paper.fig5_resume, f5.onmem_resume_s);
        (Paper.fig5_save, f5.xen_save_s);
        (Paper.fig5_restore, f5.xen_restore_s);
        (Paper.fig5_boot, f5.boot_s);
        (Paper.quick_reload, q.quick_reload_s);
        (Paper.hardware_reset, q.hardware_reset_s);
        (Paper.fig6a_warm, f6a.warm_downtime_s);
        (Paper.fig6a_saved, f6a.saved_downtime_s);
        (Paper.fig6a_cold, f6a.cold_downtime_s);
        (Paper.fig6b_cold, f6b.cold_downtime_s);
      ]
  | _ -> [ ("paper_err_pct", "missing: a reference task faulted") ]

(* Traced run only: one 11-VM scenario per strategy, driven directly,
   so the VMM reboot paths and the disk show up as their own spans. *)
let direct_reboots ~seed =
  List.iter
    (fun strategy ->
      let id = Strategy.id strategy in
      let sc =
        Harness.call "rejuv.scenario_create" (fun () ->
            Scenario.create
              { Scenario.Config.default with vm_count = 11; seed })
      in
      Harness.call "guest.boot" (fun () -> Roothammer.start_and_run sc);
      let disk = (Scenario.host sc).Hw.Host.disk in
      let r0 = Hw.Disk.bytes_read disk in
      let w0 = Hw.Disk.bytes_written disk in
      let _, outcome =
        Harness.queue_around (fun () -> [ Scenario.engine sc ]) (fun () ->
            Harness.call ("xenvmm.reboot." ^ id) (fun () ->
                Roothammer.rejuvenate_measured sc ~strategy))
      in
      Harness.addi "hw.disk.bytes_read" (Hw.Disk.bytes_read disk - r0);
      Harness.addi "hw.disk.bytes_written" (Hw.Disk.bytes_written disk - w0);
      Harness.check
        (Option.map
           (fun f -> "direct " ^ id ^ " reboot: " ^ Simkit.Fault.to_string f)
           outcome.Recovery.fatal))
    Strategy.all

(* Layers vmm_sweep has no call boundary into, reported as 0. There is
   no web traffic and no fleet; the engines run inside sweep tasks on
   worker domains, and the directly driven scenarios of a traced run are
   reached only through [Roothammer] calls, so the benchmark makes no
   [Engine.run] call of its own. *)
let not_applicable =
  [
    "simkit.run_self_s";
    "simkit.par.rounds";
    "simkit.par.barrier_waits";
    "simkit.par.messages";
    "simkit.par.quantum_ticks";
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
    "netsim.traffic.completed";
    "netsim.traffic.offered";
    "rejuv.fleet.create_s";
    "rejuv.fleet.start_s";
    "rejuv.fleet.run_s";
    "rejuv.fleet.waves";
    "rejuv.fleet.deferred";
  ]

let setup () =
  let (), region =
    Harness.timed ~phase:"setup" (fun () ->
        let warmup =
          Harness.call "rejuv.sweep_tasks" (fun () ->
              tasks_of_round ~seed:warmup_seed 0)
        in
        ignore
          (Harness.call "runner.sweep_run" (fun () ->
               Runner.Sweep.run ~jobs warmup)))
  in
  region

let run ~seed ~seconds ~trace =
  let setups = ref [] in
  let obs_metrics = ref 0 in
  (* Each batch is checked and reduced to its task timings right away;
     only the traced batches keep per-task records, so memory stays flat
     however many rounds fit in the run. *)
  let batches = ref [] in
  let task_walls = Simkit.Fvec.create () in
  let paper = ref [] in
  let rounds =
    Harness.run_rounds ~trace ~seconds ~min_rounds:3 (fun ~round ~traced ->
        setups := setup () :: !setups;
        if round = 0 then
          obs_metrics := Obs.Registry.cardinality (Obs.ambient ());
        let tasks =
          Harness.call "rejuv.sweep_tasks" (fun () -> tasks_of_round ~seed round)
        in
        let outcomes, batch =
          Harness.timed ~phase:"run" (fun () ->
              Harness.call "runner.sweep_run" (fun () ->
                  Runner.Sweep.run ~jobs tasks))
        in
        if round = 0 then paper := paper_rows ~seed outcomes;
        List.iter
          (fun (o : _ Runner.Sweep.outcome) ->
            Harness.record (check o);
            Simkit.Fvec.push task_walls o.metrics.Runner.Sweep.wall_s)
          outcomes;
        if traced then batches := (batch, List.map reduce outcomes) :: !batches;
        [ ("batch", batch) ])
  in
  let walls ts = List.map (fun t -> t.wall_s) ts in
  let task_walls = Simkit.Fvec.to_list task_walls in
  let info =
    !paper
    @ [
        ( "op_p50_s",
          Printf.sprintf "%.6f s (per task, %d samples)"
            (Harness.quantile task_walls 0.5)
            (List.length task_walls) );
        ( "op_p90_s",
          Printf.sprintf "%.6f s (per task, %d samples)"
            (Harness.quantile task_walls 0.9)
            (List.length task_walls) );
      ]
  in
  if trace then begin
    Tracer.on := true;
    direct_reboots ~seed;
    Tracer.on := false
  end;
  let layers =
    if not trace then []
    else begin
      let tr = Tracer.summary () in
      let n = float_of_int (List.length !batches) in
      let touts = List.concat_map snd !batches in
      let elapsed = List.fold_left (fun a (dt, _) -> a +. dt) 0.0 !batches in
      let tw = walls touts in
      let busy = List.fold_left ( +. ) 0.0 tw in
      let events = List.fold_left (fun a t -> a + t.events) 0 touts in
      let of_id id =
        List.filter_map
          (fun t -> if String.equal t.experiment id then Some t.wall_s else None)
          touts
      in
      let reboot id =
        [
          Harness.secs ("xenvmm.reboot_s." ^ id)
            (Harness.total ("xenvmm.reboot." ^ id ^ ".host_s"));
          Harness.metric "count" ("xenvmm.reboot_events." ^ id)
            (Harness.total ("xenvmm.reboot." ^ id ^ ".events"));
        ]
      in
      let med name = Harness.median (Array.to_list (Tracer.find tr name).Tracer.durations) in
      [
        Harness.metric "count" "simkit.events" (float_of_int events /. n);
        Harness.metric "1/s" "simkit.events_per_s" (float_of_int events /. busy);
        Harness.metric "count" "simkit.queue.tombstones" (Harness.total "simkit.queue.tombstones");
        Harness.metric "count" "simkit.queue.compactions" (Harness.total "simkit.queue.compactions");
        Harness.metric "count" "simkit.queue.resizes" (Harness.total "simkit.queue.resizes");
        Harness.secs "guest.boot_s" (med "guest.boot");
        Harness.secs "rejuv.scenario_create_s" (med "rejuv.scenario_create");
        Harness.metric "B" "hw.disk.bytes_read" (Harness.total "hw.disk.bytes_read");
        Harness.metric "B" "hw.disk.bytes_written" (Harness.total "hw.disk.bytes_written");
        Harness.secs "mem.task_s" (List.fold_left ( +. ) 0.0 (of_id "elastic_restore") /. n);
        Harness.metric "count" "runner.tasks" (float_of_int (List.length touts) /. n);
        Harness.metric "count" "runner.faulted"
          (float_of_int (List.length (List.filter (fun t -> t.faulted) touts))
          /. n);
        Harness.secs "runner.busy_s" (busy /. n);
        Harness.metric "ratio" "runner.utilization" (busy /. elapsed);
        Harness.secs "runner.overhead_s" ((elapsed -. (busy /. float_of_int jobs)) /. n);
        Harness.secs "runner.task_p50_s" (Harness.quantile tw 0.5);
        Harness.secs "runner.task_p90_s" (Harness.quantile tw 0.9);
        Harness.count "obs.metrics" !obs_metrics;
      ]
      @ List.concat_map reboot (List.map Strategy.id Strategy.all)
      @ List.map
          (fun id -> Harness.secs ("rejuv.task_p50_s." ^ id) (Harness.quantile (of_id id) 0.5))
          experiment_ids
    end
  in
  { Harness.setups = List.rev !setups; rounds; layers; not_applicable; info }
