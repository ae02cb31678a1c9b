(* Command-line driver: run individual paper experiments through the
   experiment registry, export any of them as CSV/JSON, and batch them
   across CPU cores with `sweep --jobs`. `roothammer --help` lists
   commands. *)

open Cmdliner
module Experiment = Rejuv.Experiment
module Result = Rejuv.Experiment.Result
module Spec = Rejuv.Experiment.Spec

let pf = Format.printf

(* --- common options -------------------------------------------------------- *)

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log VMM lifecycle events")

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) term

let run_spec id params = (Spec.find_exn id).Spec.run params

(* --- printing -------------------------------------------------------------- *)

let print_task_times rows ~x_label =
  pf "%-6s %12s %12s %12s %12s %12s %12s@." x_label "onmem-susp" "onmem-res"
    "xen-save" "xen-restore" "shutdown" "boot";
  List.iter
    (fun (r : Experiment.task_times) ->
      pf "%-6d %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f@." r.x
        r.onmem_suspend_s r.onmem_resume_s r.xen_save_s r.xen_restore_s
        r.shutdown_s r.boot_s)
    rows

let print_fig6 rows =
  pf "%-6s %10s %10s %10s@." "VMs" "warm" "saved" "cold";
  List.iter
    (fun (r : Experiment.fig6_row) ->
      pf "%-6d %10.1f %10.1f %10.1f@." r.n r.warm_downtime_s
        r.saved_downtime_s r.cold_downtime_s)
    rows

let print_availability rows =
  List.iter
    (fun (s, a) ->
      pf "%-16s %a (%d nines)@." (Rejuv.Strategy.name s)
        Rejuv.Availability.pp_percent a
        (Rejuv.Availability.nines a))
    rows

let print_fleet reports =
  pf "%-8s %6s %6s %5s %6s %10s %8s %8s %7s %7s %5s@." "strategy" "hosts"
    "width" "waves" "floor" "makespan-s" "offered" "lost" "loss-%" "min-up"
    "slo";
  List.iter
    (fun (r : Rejuv.Fleet.report) ->
      pf "%-8s %6d %6d %5d %6d %10.1f %8d %8d %7.2f %7d %5s%s@."
        (Rejuv.Wave.strategy_id r.fr_strategy)
        r.hosts r.wave_width (List.length r.waves) r.slo_floor r.makespan_s
        r.offered r.lost
        (100.0 *. r.loss_ratio)
        r.min_healthy
        (if r.slo_met then "met" else "MISS")
        (match r.skipped with
        | [] -> ""
        | s -> Printf.sprintf "  (%d skipped)" (List.length s)))
    reports

let print_timeline series =
  List.iter
    (fun (name, tl) ->
      pf "# %s@." name;
      List.iter (fun (t, v) -> pf "%8.0f %8.2f@." t v) tl)
    series

(* Generic human rendering, used by `sweep` for whatever was batched. *)
let print_result id = function
  | Result.Task_times rows ->
    pf "# %s@." id;
    print_task_times rows ~x_label:"x"
  | Result.Fig6 rows ->
    pf "# %s@." id;
    print_fig6 rows
  | Result.Reload r ->
    pf "# %s@.quick reload %.1f s, hardware reset %.1f s@." id
      r.quick_reload_s r.hardware_reset_s
  | Result.Fig7 r ->
    pf "# %s (%a): reboot at t=%.0f s, %d throughput windows@." id
      Rejuv.Strategy.pp r.f7_strategy r.reboot_command_at
      (List.length r.throughput)
  | Result.Before_after r ->
    pf "# %s@.before %.1f/%.1f after %.1f/%.1f  degradation %.0f%%@." id
      r.first_before r.second_before r.first_after r.second_after
      (100.0 *. r.degradation)
  | Result.Availability rows ->
    pf "# %s@." id;
    print_availability rows
  | Result.Fits f ->
    pf "# %s@.%a" id Rejuv.Downtime_model.pp f
  | Result.Timeline series ->
    pf "# %s@." id;
    print_timeline series
  | Result.Scalar { label; value } -> pf "# %s@.%s = %.2f@." id label value
  | Result.Fault_matrix cells ->
    pf "# %s@." id;
    pf "%-8s %-20s %5s %9s %-9s %7s %5s %8s@." "strategy" "site" "fired"
      "recovered" "completed" "retries" "lost" "extra-s";
    List.iter
      (fun (c : Rejuv.Fault_matrix.cell) ->
        pf "%-8s %-20s %5d %9b %-9s %7d %5d %8.1f@."
          (Rejuv.Strategy.id c.fm_strategy)
          c.fm_site c.injected c.recovered
          (Rejuv.Strategy.id c.completed)
          c.retries c.domains_lost c.extra_downtime_s)
      cells
  | Result.Fleet reports ->
    pf "# %s@." id;
    print_fleet reports
  | Result.Elastic rows ->
    pf "# %s@." id;
    pf "%-16s %6s %-8s %10s %10s %10s@." "memdyn" "ws" "disk" "downtime-s"
      "image-MiB" "lag-s";
    List.iter
      (fun (r : Experiment.elastic_row) ->
        pf "%-16s %6.2f %-8s %10.2f %10.1f %10.2f@."
          (Mem.Memdyn.mode_name r.er_mode)
          r.er_working_set r.er_disk r.er_downtime_s r.er_image_mib
          r.er_restore_lag_s)
      rows
  | Result.Traffic rows ->
    pf "# %s@." id;
    pf "%-12s %9s %-8s %10s %8s %10s %10s %8s@." "traffic" "clients"
      "strategy" "steady-rps" "outage-s" "completed" "failed" "tracer";
    List.iter
      (fun (r : Experiment.traffic_row) ->
        pf "%-12s %9d %-8s %10.1f %8.1f %10d %10d %8d@."
          (Netsim.Fluid.mode_name r.tw_mode)
          r.tw_clients
          (Rejuv.Strategy.id r.tw_strategy)
          r.tw_steady_rps r.tw_outage_s r.tw_completed r.tw_failed
          r.tw_tracer_requests)
      rows

(* --- figure commands -------------------------------------------------------- *)

let fig4_cmd =
  let run verbose csv json =
    setup_logs verbose;
    match run_spec "fig4" Spec.default_params with
    | Result.Task_times rows as r ->
      print_task_times rows ~x_label:"GiB";
      Cli_args.export ~csv ~json [ ("fig4", r) ]
    | _ -> assert false
  in
  cmd "fig4" ~doc:"Task times vs memory size of one VM"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

let fig5_cmd =
  let run verbose csv json =
    setup_logs verbose;
    match run_spec "fig5" Spec.default_params with
    | Result.Task_times rows as r ->
      print_task_times rows ~x_label:"VMs";
      Cli_args.export ~csv ~json [ ("fig5", r) ]
    | _ -> assert false
  in
  cmd "fig5" ~doc:"Task times vs number of VMs"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

let reload_cmd =
  let run verbose csv json =
    setup_logs verbose;
    match run_spec "quick_reload" Spec.default_params with
    | Result.Reload r as res ->
      pf "quick reload:   %6.1f s (paper: 11 s)@." r.quick_reload_s;
      pf "hardware reset: %6.1f s (paper: 59 s)@." r.hardware_reset_s;
      Cli_args.export ~csv ~json [ ("quick_reload", res) ]
    | _ -> assert false
  in
  cmd "reload" ~doc:"Section 5.2: effect of quick reload"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

let fig6_cmd =
  let run verbose workload csv json =
    setup_logs verbose;
    match run_spec "fig6" { Spec.default_params with workload } with
    | Result.Fig6 rows as r ->
      print_fig6 rows;
      Cli_args.export ~csv ~json [ ("fig6", r) ]
    | _ -> assert false
  in
  cmd "fig6" ~doc:"Downtime of networked services"
    Term.(
      const run $ verbose_arg $ Cli_args.workload_arg $ Cli_args.csv_arg
      $ Cli_args.json_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's operation timeline as a Chrome trace \
           (chrome://tracing, ui.perfetto.dev) to $(docv)")

let fig7_cmd =
  let run verbose strategy csv json trace =
    setup_logs verbose;
    match run_spec "fig7" { Spec.default_params with strategy } with
    | Result.Fig7 r as res ->
      Option.iter
        (fun path -> Cli_args.write_file path r.Experiment.chrome_trace_json)
        trace;
      pf "# %a; reboot command at t=%.0f s@." Rejuv.Strategy.pp r.f7_strategy
        r.reboot_command_at;
      (match (r.web_down_at, r.web_up_at) with
      | Some d, Some u -> pf "# web server down %.1f .. %.1f s@." d u
      | _ -> ());
      List.iter
        (fun (l, a, b) -> pf "# span %-28s %8.1f .. %8.1f@." l a b)
        r.f7_spans;
      List.iter (fun (t, v) -> pf "%8.1f %10.1f@." t v) r.throughput;
      Cli_args.export ~csv ~json [ ("fig7", res) ]
    | _ -> assert false
  in
  cmd "fig7" ~doc:"Throughput timeline during the reboot"
    Term.(
      const run $ verbose_arg $ Cli_args.strategy_arg $ Cli_args.csv_arg
      $ Cli_args.json_arg $ trace_arg)

let fig8_cmd =
  let run verbose strategy csv json =
    setup_logs verbose;
    let params = { Spec.default_params with strategy } in
    match (run_spec "fig8_file" params, run_spec "fig8_web" params) with
    | (Result.Before_after file as rf), (Result.Before_after web as rw) ->
      pf
        "file read (MiB/s): before %.0f/%.0f after %.0f/%.0f  degradation \
         %.0f%%@."
        file.first_before file.second_before file.first_after
        file.second_after
        (100.0 *. file.degradation);
      pf
        "web (req/s):       before %.0f/%.0f after %.0f/%.0f  degradation \
         %.0f%%@."
        web.first_before web.second_before web.first_after web.second_after
        (100.0 *. web.degradation);
      Cli_args.export ~csv ~json [ ("fig8_file", rf); ("fig8_web", rw) ]
    | _ -> assert false
  in
  cmd "fig8" ~doc:"Throughput before/after the reboot"
    Term.(
      const run $ verbose_arg $ Cli_args.strategy_arg $ Cli_args.csv_arg
      $ Cli_args.json_arg)

let fits_cmd =
  let run verbose csv json =
    setup_logs verbose;
    match run_spec "section_5_6_fits" Spec.default_params with
    | Result.Fits f as r ->
      pf "%a" Rejuv.Downtime_model.pp f;
      Cli_args.export ~csv ~json [ ("section_5_6_fits", r) ]
    | _ -> assert false
  in
  cmd "fits" ~doc:"Section 5.6: fitted downtime model"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

let avail_cmd =
  let run verbose csv json =
    setup_logs verbose;
    (match run_spec "os_rejuvenation" Spec.default_params with
    | Result.Scalar { value; _ } ->
      pf "OS rejuvenation downtime: %.1f s (paper: 33.6 s)@." value
    | _ -> assert false);
    match run_spec "availability" Spec.default_params with
    | Result.Availability rows as r ->
      print_availability rows;
      Cli_args.export ~csv ~json [ ("availability", r) ]
    | _ -> assert false
  in
  cmd "avail" ~doc:"Section 5.3: availability"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

let fig9_cmd =
  let run verbose csv json =
    setup_logs verbose;
    match run_spec "fig9" Spec.default_params with
    | Result.Timeline series as r ->
      let p = Rejuv.Cluster.paper_params () in
      let horizon = 2400.0 in
      List.iter
        (fun (name, tl) ->
          pf "# %s@." name;
          List.iter (fun (t, v) -> pf "%8.0f %8.2f@." t v) tl;
          pf "# lost capacity over %.0f s: %.1f host-seconds@." horizon
            (Rejuv.Cluster.lost_capacity p tl ~horizon_s:horizon))
        series;
      Cli_args.export ~csv ~json [ ("fig9", r) ]
    | _ -> assert false
  in
  cmd "fig9" ~doc:"Cluster throughput model"
    Term.(const run $ verbose_arg $ Cli_args.csv_arg $ Cli_args.json_arg)

(* --- running by registry id -------------------------------------------------- *)

let experiment_conv =
  let parse s =
    match Spec.find s with
    | Some _ -> Ok s
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown experiment %s (known: %s)" s
             (String.concat ", " (Spec.ids ()))))
  in
  Arg.conv (parse, Format.pp_print_string)

let run_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some experiment_conv) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "A registered experiment id (`roothammer list` shows all of \
             them)")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Shrink the run for CI: fault_matrix runs a single cell \
             (warm x xend.resume) and fleet_rolling a single small warm \
             cell instead of the full grid")
  in
  let run verbose id smoke partitions queue strategy workload memdyn traffic
      clients csv json metrics =
    setup_logs verbose;
    Option.iter Simkit.Engine.set_default_queue queue;
    (* Fresh ambient registry so --metrics reports this run only. *)
    let registry = Obs.reset_ambient () in
    let params =
      {
        Spec.default_params with
        smoke;
        partitions;
        strategy;
        workload;
        memdyn;
        traffic;
        clients;
      }
    in
    let r = run_spec id params in
    print_result id r;
    Cli_args.export ~csv ~json [ (id, r) ];
    Cli_args.print_metrics ~registry metrics
  in
  cmd "run" ~doc:"Run any registered experiment by id"
    Term.(
      const run $ verbose_arg $ id_arg $ smoke_arg $ Cli_args.partitions_arg
      $ Cli_args.queue_arg $ Cli_args.strategy_arg $ Cli_args.workload_arg
      $ Cli_args.memdyn_arg $ Cli_args.traffic_arg $ Cli_args.clients_arg
      $ Cli_args.csv_arg $ Cli_args.json_arg $ Cli_args.metrics_arg)

(* --- the parallel sweep ----------------------------------------------------- *)

let sweep_cmd =
  let ids_arg =
    Arg.(
      value
      & pos_all experiment_conv [ "fig4"; "fig5"; "fig6" ]
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Registered experiments to run (default: fig4 fig5 fig6). \
             `roothammer list` shows all ids.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Result cache directory (default $(b,\\$ROOTHAMMER_CACHE) or \
             $(b,_cache))")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute everything; do not touch the cache")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After the parallel pass, re-run one shard sequentially and \
             assert its bytes match (isolation check)")
  in
  let quiet_results_arg =
    Arg.(
      value & flag
      & info [ "metrics-only" ] ~doc:"Print runner metrics but not the data")
  in
  let run verbose ids jobs partitions workload strategy memdyn traffic clients
      cache_dir no_cache verify quiet_results csv json metrics_out =
    setup_logs verbose;
    let registry = Obs.reset_ambient () in
    (* partitions is intra-run parallelism (shards of one fleet cell);
       jobs is inter-run parallelism (cells at once). They multiply, so
       crank one at a time. *)
    let params =
      {
        Spec.default_params with
        workload;
        strategy;
        partitions;
        memdyn;
        traffic;
        clients;
      }
    in
    let cache =
      if no_cache then None else Some (Runner.Cache.create ?dir:cache_dir ())
    in
    let t0 = Unix.gettimeofday () in (* simlint: allow D001 user-facing elapsed-time display *)
    let merged, outcomes =
      Experiment.sweep ?cache ~jobs ~verify_isolation:verify ~params ids
    in
    let elapsed = Unix.gettimeofday () -. t0 in (* simlint: allow D001 user-facing elapsed-time display *)
    let hits =
      List.length
        (List.filter
           (fun (o : Result.t Runner.Sweep.outcome) -> o.metrics.cached)
           outcomes)
    in
    pf "sweep: %d experiment(s), %d run(s) (%d cached), jobs=%d@."
      (List.length ids) (List.length outcomes) hits jobs;
    List.iter
      (fun (o : Result.t Runner.Sweep.outcome) ->
        pf "  %-24s %8.3f s %12d events%s@." o.key o.metrics.wall_s
          o.metrics.sim_events
          (if o.metrics.cached then "  (cached)" else ""))
      outcomes;
    let work = Runner.Sweep.total_wall_s outcomes in
    if hits = List.length outcomes then
      pf "all runs served from cache in %.3f s@." elapsed
    else
      pf "run wall-clock %.3f s in %.3f s elapsed (parallel speedup %.2fx)@."
        work elapsed
        (if elapsed > 0.0 then work /. elapsed else 1.0);
    let ok, faulted =
      List.partition_map
        (fun (id, r) ->
          match r with Ok v -> Left (id, v) | Error f -> Right (id, f))
        merged
    in
    List.iter
      (fun (id, f) ->
        pf "# %s FAULTED: %s@." id (Simkit.Fault.to_string f))
      faulted;
    if not quiet_results then
      List.iter (fun (id, r) -> print_result id r) ok;
    Cli_args.export ~csv ~json ok;
    (* Runner-level observability: per-run wall-time histogram, cache
       hit rate and shard utilization for this batch. (The simulations
       themselves ran on worker domains, each with its own ambient
       registry — their metrics are reachable via `run --metrics`.) *)
    Option.iter
      (fun path ->
        Runner.Sweep.observe ~elapsed_s:elapsed registry outcomes;
        Cli_args.write_file path (Obs.Export.to_json ~now:0.0 registry))
      metrics_out;
    if faulted <> [] then exit 1
  in
  cmd "sweep"
    ~doc:
      "Run a batch of registered experiments in parallel across CPU cores, \
       with an on-disk result cache"
    Term.(
      const run $ verbose_arg $ ids_arg $ Cli_args.jobs_arg
      $ Cli_args.partitions_arg $ Cli_args.workload_arg
      $ Cli_args.strategy_arg $ Cli_args.memdyn_arg $ Cli_args.traffic_arg
      $ Cli_args.clients_arg $ cache_dir_arg $ no_cache_arg $ verify_arg
      $ quiet_results_arg $ Cli_args.csv_arg $ Cli_args.json_arg
      $ Cli_args.metrics_out_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Spec.t) -> pf "%-18s %s@." s.id s.doc)
      (Spec.all ())
  in
  cmd "list" ~doc:"List the registered experiments" Term.(const run $ const ())

(* --- non-registry tools ----------------------------------------------------- *)

let migrate_cmd =
  let mem_arg =
    Arg.(value & opt int 1 & info [ "mem-gib" ] ~doc:"VM memory in GiB")
  in
  let dirty_arg =
    Arg.(
      value & opt float 20.0
      & info [ "dirty-mib" ] ~doc:"Dirty rate while running, MiB/s")
  in
  let run verbose mem_gib dirty_mib =
    setup_logs verbose;
    let p =
      Rejuv.Migration.plan
        ~mem_bytes:(Simkit.Units.gib mem_gib)
        ~dirty_bytes_per_s:(dirty_mib *. 1048576.0)
        ()
    in
    pf "pre-copy rounds:@.";
    List.iteri
      (fun i (bytes, duration) ->
        pf "  round %2d: %8.1f MiB in %6.2f s@." (i + 1)
          (Simkit.Units.bytes_to_mib bytes)
          duration)
      p.Rejuv.Migration.rounds;
    pf "stop-and-copy: %.1f MiB, blackout %.2f s@."
      (Simkit.Units.bytes_to_mib p.Rejuv.Migration.stop_copy_bytes)
      p.Rejuv.Migration.downtime_s;
    pf "total migration time: %.1f s@." p.Rejuv.Migration.total_s
  in
  cmd "migrate" ~doc:"Pre-copy live migration plan (Section 6)"
    Term.(const run $ verbose_arg $ mem_arg $ dirty_arg)

let schedule_cmd =
  let duration_arg =
    Arg.(
      value & opt float 42.0
      & info [ "duration" ] ~doc:"Rejuvenation outage length, seconds")
  in
  let run verbose duration =
    setup_logs verbose;
    (* A diurnal request-rate forecast, hour resolution. *)
    let profile =
      List.init 24 (fun h ->
          let load =
            if h < 7 then 80.0
            else if h < 9 then 400.0
            else if h < 18 then 900.0
            else if h < 22 then 500.0
            else 150.0
          in
          (float_of_int h *. 3600.0, load))
    in
    let start, cost =
      Rejuv.Policy.Load.best_window profile ~duration
        ~horizon:(24.0 *. 3600.0)
    in
    pf
      "best %.0f s rejuvenation window starts at %02d:%02d (displaces %.0f \
       requests)@."
      duration
      (int_of_float (start /. 3600.0))
      (int_of_float (Float.rem start 3600.0 /. 60.0))
      cost;
    pf "midday placement would displace %.0f@."
      (Rejuv.Policy.Load.cost profile ~start:(12.0 *. 3600.0) ~duration)
  in
  cmd "schedule" ~doc:"Load-aware placement of the rejuvenation window"
    Term.(const run $ verbose_arg $ duration_arg)

let blind_dispatch_arg =
  Arg.(
    value & flag
    & info [ "blind-dispatch" ]
        ~doc:
          "Offer each host 1/hosts of the load whatever its health, so a \
           request sent to a down host is lost (the paper's lost-request \
           model), instead of redirecting it to a healthy host")

let cluster_cmd =
  let hosts_arg =
    Arg.(value & opt int 4 & info [ "hosts" ] ~doc:"Cluster size")
  in
  let run verbose hosts strategy blind_dispatch =
    setup_logs verbose;
    let cfg = { Rejuv.Fleet.Config.cluster with hosts; blind_dispatch } in
    let fleet = Rejuv.Fleet.create cfg in
    Rejuv.Fleet.start fleet;
    pf "%d hosts up; rolling %s under %.0f req/s...@." hosts
      (Rejuv.Strategy.name strategy)
      cfg.Rejuv.Fleet.Config.load_rate_per_s;
    let r = Rejuv.Fleet.run fleet ~strategy:(Rejuv.Wave.Reboot strategy) in
    pf "rolling cycle: %.1f s; per-host %s@." r.Rejuv.Fleet.makespan_s
      (String.concat " "
         (List.map
            (fun w -> Printf.sprintf "%.0fs" w.Rejuv.Fleet.wave_makespan_s)
            r.Rejuv.Fleet.waves));
    pf "requests lost: %d of %d (%.1f %%)@." r.Rejuv.Fleet.lost
      r.Rejuv.Fleet.offered
      (100.0 *. r.Rejuv.Fleet.loss_ratio)
  in
  cmd "cluster" ~doc:"Rolling rejuvenation across a simulated cluster"
    Term.(
      const run $ verbose_arg $ hosts_arg $ Cli_args.strategy_arg
      $ blind_dispatch_arg)

let fleet_cmd =
  let hosts_arg =
    Arg.(value & opt int 16 & info [ "hosts" ] ~doc:"Fleet size")
  in
  let width_arg =
    Arg.(
      value & opt int 4
      & info [ "wave-width" ]
          ~doc:"Hosts rejuvenated per wave (clamped to the SLO slack)")
  in
  let slo_arg =
    Arg.(
      value & opt float 0.7
      & info [ "slo" ] ~doc:"Fraction of hosts that must stay healthy")
  in
  let load_arg =
    Arg.(
      value & opt float 200.0
      & info [ "load" ] ~doc:"Poisson client stream, requests per second")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Shrink the pass for CI: a 12-host fleet in waves of 3 under \
             50 req/s, overriding --hosts/--wave-width/--load")
  in
  let run verbose hosts width slo load partitions smoke wave_strategy memdyn
      traffic blind_dispatch metrics =
    setup_logs verbose;
    let hosts = if smoke then 12 else hosts in
    let width = if smoke then 3 else width in
    let load = if smoke then 50.0 else load in
    let registry = Obs.reset_ambient () in
    let traffic_cfg =
      match traffic with
      | None -> Netsim.Fluid.default_config
      | Some mode -> { Netsim.Fluid.default_config with Netsim.Fluid.mode }
    in
    let fleet =
      Rejuv.Fleet.create
        {
          Rejuv.Fleet.Config.default with
          hosts;
          wave_width = width;
          slo;
          load_rate_per_s = load;
          blind_dispatch;
          partitions;
          host =
            {
              Rejuv.Fleet.Config.default.Rejuv.Fleet.Config.host with
              Rejuv.Scenario.Config.memdyn = Mem.Memdyn.default memdyn;
              traffic = traffic_cfg;
            };
        }
    in
    Rejuv.Fleet.start fleet;
    let strategy =
      Option.value wave_strategy ~default:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm)
    in
    pf "%d hosts up (%d shard(s)); rolling %s waves of <= %d under %.0f \
        req/s...@."
      hosts
      (Simkit.Par_engine.shards (Rejuv.Fleet.par fleet))
      (Rejuv.Wave.strategy_id strategy)
      width load;
    let r = Rejuv.Fleet.run fleet ~strategy in
    print_fleet [ r ];
    Cli_args.print_metrics ~registry metrics
  in
  cmd "fleet"
    ~doc:
      "Fleet-scale rolling rejuvenation under an SLO guard (waves of hosts, \
       warm/saved/cold/migrate)"
    Term.(
      const run $ verbose_arg $ hosts_arg $ width_arg $ slo_arg $ load_arg
      $ Cli_args.partitions_arg $ smoke_arg $ Cli_args.wave_strategy_arg
      $ Cli_args.memdyn_arg $ Cli_args.traffic_arg $ blind_dispatch_arg
      $ Cli_args.metrics_arg)

let report_cmd =
  let n_arg =
    Arg.(value & opt int 11 & info [ "n"; "vm-count" ] ~doc:"Number of VMs")
  in
  let run verbose n =
    setup_logs verbose;
    let r = Rejuv.Report.run ~vm_count:n () in
    pf "%a" Rejuv.Report.pp r;
    if not (Rejuv.Report.all_hold r) then exit 1
  in
  cmd "report" ~doc:"One-page paper-vs-measured reproduction report"
    Term.(const run $ verbose_arg $ n_arg)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "roothammer" ~version:Rejuv.Roothammer.version
      ~doc:"Warm-VM reboot experiments (Kourai & Chiba, DSN 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            fig4_cmd; fig5_cmd; reload_cmd; fig6_cmd; fig7_cmd; fig8_cmd;
            fits_cmd; avail_cmd; fig9_cmd; run_cmd; sweep_cmd; list_cmd;
            migrate_cmd; schedule_cmd; cluster_cmd; fleet_cmd; report_cmd;
          ]))
