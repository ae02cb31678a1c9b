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

(* --- running registered experiments -------------------------------------- *)

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

(* Rejects a repeated id before anything runs: its rows would be
   produced twice and exported under one key twice. *)
let distinct_ids ids_arg =
  let check ids =
    match
      List.find_opt
        (fun id -> List.length (List.filter (String.equal id) ids) > 1)
        ids
    with
    | Some id -> `Error (false, Printf.sprintf "experiment %s is given twice" id)
    | None -> `Ok ids
  in
  Term.(ret (const check $ ids_arg))

(* The experiment params both `run` and `sweep` take from flags. *)
let params_term =
  let params partitions strategy workload memdyn traffic clients =
    {
      Spec.default_params with
      partitions;
      strategy;
      workload;
      memdyn;
      traffic;
      clients;
    }
  in
  Term.(
    const params $ Cli_args.partitions_arg $ Cli_args.strategy_arg
    $ Cli_args.workload_arg $ Cli_args.memdyn_arg $ Cli_args.traffic_arg
    $ Cli_args.clients_arg)

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Shrink each of the four grids (fault_matrix, fleet_rolling, \
           elastic_restore, elastic_traffic) to a single small cell, for CI")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write fig7's operation timeline as a Chrome trace \
           (chrome://tracing, ui.perfetto.dev) to $(docv); needs fig7 \
           among the experiments")

(* `run`'s term, over any source of ids: the positional arguments for
   `run` itself, a constant list for each figure alias. *)
let run_term ids =
  let run verbose ids params smoke queue csv json metrics trace =
    if Option.is_some trace && not (List.mem "fig7" ids) then
      `Error (false, "--trace needs fig7 among the experiments")
    else begin
      setup_logs verbose;
      Option.iter Simkit.Engine.set_default_queue queue;
      (* Fresh ambient registry so --metrics reports this run only. *)
      let registry = Obs.reset_ambient () in
      let params = { params with Spec.smoke } in
      let results =
        List.map
          (fun id ->
            let r = Experiment.run ~params id in
            pf "# %s@.%a" id Result.pp r;
            (id, r))
          ids
      in
      Option.iter
        (fun path ->
          match List.assoc "fig7" results with
          | Result.Fig7 r -> Cli_args.write_file path r.chrome_trace_json
          | _ -> assert false)
        trace;
      Cli_args.export ~csv ~json results;
      Cli_args.print_metrics ~registry metrics;
      `Ok ()
    end
  in
  Term.(
    ret
      (const run $ verbose_arg $ ids $ params_term $ smoke_arg
      $ Cli_args.queue_arg $ Cli_args.csv_arg $ Cli_args.json_arg
      $ Cli_args.metrics_arg $ trace_arg))

let run_cmd =
  let ids_arg =
    Arg.(
      non_empty
      & pos_all experiment_conv []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Registered experiment ids, run in the order given \
             (`roothammer list` shows all of them)")
  in
  cmd "run" ~doc:"Run registered experiments by id"
    (run_term (distinct_ids ids_arg))

(* The paper's figure commands: each is `run` over fixed ids. *)
let alias name ids ~doc =
  cmd name
    ~doc:(Printf.sprintf "%s (run %s)" doc (String.concat " " ids))
    (run_term (Term.const ids))

let figure_cmds =
  [
    alias "fig4" [ "fig4" ] ~doc:"Task times vs memory size of one VM";
    alias "fig5" [ "fig5" ] ~doc:"Task times vs number of VMs";
    alias "reload" [ "quick_reload" ] ~doc:"Section 5.2: effect of quick reload";
    alias "fig6" [ "fig6" ] ~doc:"Downtime of networked services";
    alias "fig7" [ "fig7" ] ~doc:"Throughput timeline during the reboot";
    alias "fig8" [ "fig8_file"; "fig8_web" ]
      ~doc:"Throughput before/after the reboot";
    alias "fits" [ "section_5_6_fits" ]
      ~doc:"Section 5.6: fitted downtime model";
    alias "avail" [ "os_rejuvenation"; "availability" ]
      ~doc:"Section 5.3: availability";
    alias "fig9" [ "fig9" ] ~doc:"Cluster throughput model";
  ]

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
            "After the parallel pass, re-run one cell sequentially and \
             assert its bytes match (isolation check)")
  in
  let quiet_results_arg =
    Arg.(
      value & flag
      & info [ "metrics-only" ] ~doc:"Print runner metrics but not the data")
  in
  (* partitions is intra-run parallelism (shards of one fleet cell);
     jobs is inter-run parallelism (cells at once). They multiply, so
     crank one at a time. *)
  let run verbose ids jobs params cache_dir no_cache verify quiet_results csv
      json metrics_out =
    setup_logs verbose;
    let registry = Obs.reset_ambient () in
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
      List.iter (fun (id, r) -> pf "# %s@.%a" id Result.pp r) ok;
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
      const run $ verbose_arg $ distinct_ids ids_arg $ Cli_args.jobs_arg
      $ params_term $ cache_dir_arg $ no_cache_arg $ verify_arg
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
  let run verbose hosts width slo load partitions wave_strategy memdyn traffic
      blind_dispatch metrics =
    setup_logs verbose;
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
    pf "%a" Result.pp (Result.Fleet [ r ]);
    Cli_args.print_metrics ~registry metrics
  in
  cmd "fleet"
    ~doc:
      "Fleet-scale rolling rejuvenation under an SLO guard (waves of hosts, \
       warm/saved/cold/migrate)"
    Term.(
      const run $ verbose_arg $ hosts_arg $ width_arg $ slo_arg $ load_arg
      $ Cli_args.partitions_arg $ Cli_args.wave_strategy_arg
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
          (figure_cmds
          @ [
              run_cmd; sweep_cmd; list_cmd; migrate_cmd; schedule_cmd;
              cluster_cmd; fleet_cmd; report_cmd;
            ])))
