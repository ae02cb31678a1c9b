(* Command-line interface: `run` runs registered experiments by id,
   across CPU cores with `--jobs`, and exports any of them as CSV/JSON;
   `list` shows the registry, the nine figure commands are `run` over
   fixed ids, and `report` prints the paper-vs-measured summary.
   `roothammer --help` lists commands. *)

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

(* The experiment params `run` takes from flags. *)
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

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "After the run, re-run the first cell (in key order) sequentially \
           and assert its bytes match (isolation check)")

(* `run`'s term, over any source of ids: the positional arguments for
   `run` itself, a constant list for each figure alias. The cells run
   through the sweep runner, in key order, on --jobs domains; what is
   printed and exported is the same for every --jobs. *)
let run_term ids =
  let run verbose ids jobs verify params smoke csv json metrics metrics_out
      trace =
    if Option.is_some trace && not (List.mem "fig7" ids) then
      `Error (false, "--trace needs fig7 among the experiments")
    else if Option.is_some metrics && (jobs > 1 || verify) then
      `Error
        ( false,
          "--metrics needs --jobs 1 and no --verify: worker domains keep \
           their own metrics, and --verify runs a cell twice" )
    else begin
      setup_logs verbose;
      (* Fresh ambient registry so --metrics reports this run only. *)
      let registry = Obs.reset_ambient () in
      let params = { params with Spec.smoke } in
      let t0 = Unix.gettimeofday () in (* simlint: allow D001 the runner view's elapsed time *)
      let merged, outcomes =
        Experiment.sweep ~jobs ~verify_isolation:verify ~params ids
      in
      let elapsed_s = Unix.gettimeofday () -. t0 in (* simlint: allow D001 the runner view's elapsed time *)
      let ok =
        List.filter_map
          (fun (id, r) ->
            match r with
            | Ok r ->
              pf "# %s@.%a" id Result.pp r;
              Some (id, r)
            | Error f ->
              pf "# %s FAULTED: %s@." id (Simkit.Fault.to_string f);
              None)
          merged
      in
      Option.iter
        (fun path ->
          match List.assoc_opt "fig7" ok with
          | Some (Result.Fig7 r) -> Cli_args.write_file path r.chrome_trace_json
          | Some _ -> assert false
          | None -> ())
        trace;
      Cli_args.export ~csv ~json ok;
      Cli_args.print_metrics ~registry metrics;
      Option.iter
        (fun path ->
          let runner = Obs.Registry.create () in
          Runner.Sweep.observe ~elapsed_s runner outcomes;
          Cli_args.write_file path (Obs.Export.to_json ~now:0.0 runner))
        metrics_out;
      if List.length ok < List.length merged then exit 1;
      `Ok ()
    end
  in
  Term.(
    ret
      (const run $ verbose_arg $ ids $ Cli_args.jobs_arg $ verify_arg
      $ params_term $ smoke_arg $ Cli_args.csv_arg $ Cli_args.json_arg
      $ Cli_args.metrics_arg $ Cli_args.metrics_out_arg $ trace_arg))

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

let list_cmd =
  let run () =
    List.iter
      (fun (s : Spec.t) -> pf "%-18s %s@." s.id s.doc)
      (Spec.all ())
  in
  cmd "list" ~doc:"List the registered experiments" Term.(const run $ const ())

(* --- the paper-vs-measured report ------------------------------------------ *)

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
          (figure_cmds @ [ run_cmd; list_cmd; report_cmd ])))
