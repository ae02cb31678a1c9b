(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5 and the Section 6 model) and prints
   paper-vs-measured rows, then times the simulator itself.

   Usage: main.exe [-j N] [tag ...] where tag is one of
   fig4 fig5 reload fig6a fig6b avail fig7 fig8a fig8b fits policy fig9
   memdyn traffic
   migration ablation cluster fleet parfleet sensitivity faults sweep
   eventcore. No tags = everything. The swept
   figures (fig4/fig5/fig6) run their points through the parallel sweep
   runner on N domains (default: the machine's). *)

let pf = Format.printf

let header title =
  pf "@.=== %s ===@." title

let jobs = ref (Runner.Pool.default_jobs ())

(* --- structured bench output ----------------------------------------------

   Each section records its headline numbers; the driver adds simulator
   self-metrics (wall time, events, events/s) per section and writes the
   whole batch as a roothammer-bench/1 file (default BENCH_PR10.json).
   Simulation outputs get a tolerance band and are gated by
   `benchstat --check` against the committed BENCH_BASELINE.json;
   timing self-metrics are informational (tolerance null). *)

let bench_out = ref "BENCH_PR10.json"
let bench_metrics : (string * Benchstat.Check.metric) list ref = ref []

let record ?(unit_ = "s")
    ?(tolerance_pct = Some Benchstat.Check.default_tolerance_pct) name value =
  bench_metrics :=
    (name, { Benchstat.Check.value; unit_; tolerance_pct }) :: !bench_metrics

let record_info ?(unit_ = "s") name value =
  record ~unit_ ~tolerance_pct:None name value

let write_bench_file () =
  let json = Benchstat.Check.to_json { Benchstat.Check.metrics = !bench_metrics } in
  let oc = open_out !bench_out in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  pf "@.wrote %d metric(s) to %s@." (List.length !bench_metrics) !bench_out

module Experiment = Rejuv.Experiment
module Result = Rejuv.Experiment.Result

(* Run one registered experiment's cells through the sweep runner,
   print the merged result and return it (byte-identical to
   [Experiment.run]'s). *)
let sweep_result ?(workload = Rejuv.Scenario.Ssh) id =
  let params = { Experiment.Spec.default_params with workload } in
  let merged, outcomes = Experiment.sweep ~jobs:!jobs ~params [ id ] in
  pf "(%d runs, %d domain(s), %.2f s of run wall-clock)@."
    (List.length outcomes) !jobs
    (Runner.Sweep.total_wall_s outcomes);
  match List.assoc id merged with
  | Ok r ->
    pf "%a" Result.pp r;
    r
  | Error f -> Simkit.Fault.fail f

(* Run one registered experiment in this domain and print it. *)
let run_result ?(strategy = Rejuv.Strategy.Warm) id =
  let r =
    Experiment.run
      ~params:{ Experiment.Spec.default_params with strategy }
      id
  in
  pf "%a" Result.pp r;
  r

let wall_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- Figure 4 / Figure 5 ------------------------------------------------- *)

let task_times_of id =
  match sweep_result id with
  | Result.Task_times rows -> rows
  | _ -> assert false

(* Headline: the largest sweep point (the paper reports 11 GiB / 11
   VMs), one metric per pre/post-reboot task. *)
let record_task_times tag rows =
  match List.rev rows with
  | [] -> ()
  | (last : Rejuv.Experiment.task_times) :: _ ->
    let r name v = record (Printf.sprintf "%s.at%02d.%s" tag last.x name) v in
    r "onmem_suspend_s" last.onmem_suspend_s;
    r "onmem_resume_s" last.onmem_resume_s;
    r "xen_save_s" last.xen_save_s;
    r "xen_restore_s" last.xen_restore_s;
    r "shutdown_s" last.shutdown_s;
    r "boot_s" last.boot_s

let fig4 () =
  header "Figure 4: pre/post-reboot task time vs VM memory size (1 VM)";
  pf "paper at 11 GiB: on-mem suspend 0.08 s, resume 0.9 s;@.";
  pf "                Xen save ~133 s, restore ~129 s (0.06%% / 0.7%%)@.";
  record_task_times "fig4" (task_times_of "fig4")

let fig5 () =
  header "Figure 5: pre/post-reboot task time vs number of VMs (1 GiB each)";
  pf "paper at 11 VMs: on-mem suspend 0.04 s, resume 4.2 s;@.";
  pf "                Xen save ~200 s, restore ~156 s; boot grows 3.4n@.";
  record_task_times "fig5" (task_times_of "fig5")

(* --- Section 5.2 --------------------------------------------------------- *)

let reload () =
  header "Section 5.2: effect of quick reload (VMM reboot, no domUs)";
  pf "paper: quick reload 11 s, hardware reset 59 s (speed-up 48 s)@.";
  match run_result "quick_reload" with
  | Result.Reload r ->
    record "reload.quick_reload_s" r.quick_reload_s;
    record "reload.hardware_reset_s" r.hardware_reset_s
  | _ -> assert false

(* --- Figure 6 ------------------------------------------------------------ *)

let fig6_rows workload =
  match sweep_result ~workload "fig6" with
  | Result.Fig6 rows -> rows
  | _ -> assert false

let record_fig6 tag rows =
  match List.rev rows with
  | [] -> ()
  | (last : Rejuv.Experiment.fig6_row) :: _ ->
    let r name v = record (Printf.sprintf "%s.n%02d.%s" tag last.n name) v in
    r "warm_downtime_s" last.warm_downtime_s;
    r "saved_downtime_s" last.saved_downtime_s;
    r "cold_downtime_s" last.cold_downtime_s

let fig6a () =
  header "Figure 6a: downtime of ssh (seconds)";
  pf "paper at 11 VMs: warm 42, saved 429, cold 157@.";
  record_fig6 "fig6a" (fig6_rows Rejuv.Scenario.Ssh)

let fig6b () =
  header "Figure 6b: downtime of JBoss (seconds)";
  pf "paper at 11 VMs: warm ~42 (same as ssh), cold 241@.";
  record_fig6 "fig6b" (fig6_rows Rejuv.Scenario.Jboss)

(* --- Section 5.3 --------------------------------------------------------- *)

let avail () =
  header "Section 5.3: availability (JBoss, 11 VMs, weekly OS rejuvenation)";
  pf "paper: OS rejuvenation downtime 33.6 s;@.";
  pf "       availability warm 99.993 %%, cold 99.985 %%, saved 99.977 %%@.";
  (match run_result "os_rejuvenation" with
  | Result.Scalar { value; _ } ->
    record "avail.os_rejuvenation_downtime_s" value
  | _ -> assert false);
  match run_result "availability" with
  | Result.Availability measured ->
    List.iter
      (fun (s, a) ->
        (* Gate on unavailability: drift in the tiny complement is what a
           regression would actually move. *)
        record ~unit_:"fraction"
          (Printf.sprintf "avail.%s.unavailability" (Rejuv.Strategy.id s))
          (1.0 -. a))
      measured
  | _ -> assert false

(* --- Figure 7 ------------------------------------------------------------ *)

let fig7_buckets (r : Experiment.fig7_result) =
  pf "throughput (50-request windows resampled to 5 s, req/s):@.";
  (* The raw series has a window every ~0.2 s; bucket it for reading. *)
  let bucket = 5.0 in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (t, v) ->
      let b = int_of_float (t /. bucket) in
      let sum, n = Option.value (Hashtbl.find_opt groups b) ~default:(0.0, 0) in
      Hashtbl.replace groups b (sum +. v, n + 1))
    r.throughput;
  Hashtbl.fold (fun b acc l -> (b, acc) :: l) groups []
  |> List.sort compare
  |> List.iter (fun (b, (sum, n)) ->
         pf "   t=%5.0f..%3.0f s  %8.1f req/s@."
           (float_of_int b *. bucket)
           (float_of_int (b + 1) *. bucket)
           (sum /. float_of_int n))

let fig7_one strategy =
  match run_result ~strategy "fig7" with
  | Result.Fig7 r ->
    (match (r.web_down_at, r.web_up_at) with
    | Some d, Some u ->
      record
        (Printf.sprintf "fig7.%s.web_outage_s" (Rejuv.Strategy.id strategy))
        (u -. d)
    | _ -> ());
    fig7_buckets r
  | _ -> assert false

let fig7 () =
  header "Figure 7: downtime breakdown + web throughput during the reboot";
  pf "paper: warm stops web at t=34, cold at t=27; cold dips 8 s after@.";
  pf "       reboot (cache misses); warm shows a 25 s network artifact@.";
  fig7_one Rejuv.Strategy.Warm;
  fig7_one Rejuv.Strategy.Cold

(* --- Figure 8 ------------------------------------------------------------ *)

(* Both strategies' first/second pass before and after the reboot. *)
let before_after tag id =
  List.iter
    (fun strategy ->
      pf "%s: " (Rejuv.Strategy.id strategy);
      match run_result ~strategy id with
      | Result.Before_after r ->
        let name = Printf.sprintf "%s.%s" tag (Rejuv.Strategy.id strategy) in
        record ~unit_:"fraction" (name ^ ".degradation") r.degradation;
        record ~unit_:"throughput" (name ^ ".first_after") r.first_after
      | _ -> assert false)
    [ Rejuv.Strategy.Warm; Rejuv.Strategy.Cold ]

let fig8a () =
  header "Figure 8a: 512 MB file-read throughput before/after the reboot";
  pf "paper: degradation warm 0 %%, cold 91 %% (MiB/s)@.";
  before_after "fig8a" "fig8_file"

let fig8b () =
  header "Figure 8b: web-server throughput before/after the reboot";
  pf "paper: degradation warm 0 %%, cold 69 %% (req/s)@.";
  before_after "fig8b" "fig8_web"

(* --- Section 5.6 ---------------------------------------------------------- *)

let fits () =
  header "Section 5.6: fitted downtime model";
  pf "paper: reboot_vmm(n) = -0.55n + 43, resume(n) = 0.43n - 0.07,@.";
  pf "       reboot_os(n) = 3.8n + 13, boot(n) = 3.4n + 2.8, reset_hw = 47@.";
  pf "       => r(n) = 3.9n + 60 - 17 alpha@.";
  pf "measured:@.";
  match run_result "section_5_6_fits" with
  | Result.Fits f ->
    let rf = Rejuv.Downtime_model.reduction_as_formula f in
    record ~unit_:"s/vm" "fits.reduction.n_slope" rf.n_slope;
    record "fits.reduction.constant" rf.constant;
    record "fits.reduction.alpha_coefficient" rf.alpha_coefficient
  | _ -> assert false

(* --- Figure 2 (policy) ---------------------------------------------------- *)

let policy () =
  header "Figure 2: rejuvenation timing (8-week horizon, 1 VM shown)";
  let week = Simkit.Units.weeks 1.0 in
  let show strategy =
    let events =
      Rejuv.Policy.schedule ~strategy ~vm_count:1 ~os_interval_s:week
        ~vmm_interval_s:(4.0 *. week)
        ~horizon_s:(8.0 *. week +. 1.0)
    in
    pf "%-16s " (Rejuv.Strategy.name strategy);
    List.iter
      (fun e ->
        match e with
        | Rejuv.Policy.Os_rejuvenation { at; _ } ->
          pf "os@@%.1fw " (at /. week)
        | Rejuv.Policy.Vmm_rejuvenation { at } -> pf "VMM@@%.1fw " (at /. week))
      events;
    pf "@."
  in
  show Rejuv.Strategy.Warm;
  show Rejuv.Strategy.Cold

(* --- Figure 9 -------------------------------------------------------------- *)

let fig9 () =
  header "Figure 9: cluster total throughput (m=4 hosts, p=1)";
  let p = Rejuv.Cluster.paper_params () in
  let horizon_s = 3600.0 in
  let lost (name, tl) =
    pf "%s: lost capacity %.1f host-s over %.0f s@." name
      (Rejuv.Cluster.lost_capacity p tl ~horizon_s)
      horizon_s
  in
  (match run_result "fig9" with
  | Result.Timeline series -> List.iter lost series
  | _ -> assert false);
  pf "rolling rejuvenation of all 4 hosts (warm, 120 s apart):@.";
  let rolling =
    ( "rolling",
      Rejuv.Cluster.rolling_rejuvenation p ~strategy:Rejuv.Strategy.Warm
        ~start_at:600.0 ~gap_s:120.0 )
  in
  pf "%a" Result.pp (Result.Timeline [ rolling ]);
  lost rolling

(* --- Section 6, executed: live migration vs warm reboot ------------------- *)

let migration () =
  header "Section 6 (executed): live migration vs the warm-VM reboot";
  pf "paper cites Clark et al.: ~72 s to migrate one busy ~1 GiB VM with@.";
  pf "negligible downtime; evacuating 11 such VMs ~ 17 minutes@.";
  let show_plan name dirty_mib =
    let p =
      Rejuv.Migration.plan ~mem_bytes:(Simkit.Units.gib 1)
        ~dirty_bytes_per_s:(dirty_mib *. 1048576.0) ()
    in
    pf "%-24s %2d rounds  precopy %6.1f s  blackout %5.2f s  total %6.1f s@."
      name
      (List.length p.Rejuv.Migration.rounds)
      p.Rejuv.Migration.precopy_s p.Rejuv.Migration.downtime_s
      p.Rejuv.Migration.total_s;
    p.Rejuv.Migration.total_s
  in
  let _ = show_plan "idle VM (1 MiB/s dirty)" 1.0 in
  let busy = show_plan "busy web VM (20 MiB/s)" 20.0 in
  pf "evacuating 11 busy VMs: %.1f min (paper estimate: ~17 min)@."
    (11.0 *. busy /. 60.0);
  let warm =
    (Rejuv.Experiment.run_reboot ~strategy:Rejuv.Strategy.Warm ~vm_count:11
       ~vm_mem_bytes:(Simkit.Units.gib 1) ())
      .Rejuv.Experiment.downtime_mean_s
  in
  pf "warm-VM reboot of the same host: one %.0f s outage, no spare host@."
    warm

(* --- Ablations of the design choices --------------------------------------- *)

let ablation () =
  header "Ablations: what each design choice buys";
  let base = Rejuv.Calibration.default in
  let downtime ?(calibration = base) ?(n = 5) strategy =
    (Rejuv.Experiment.run_reboot ~calibration ~strategy ~vm_count:n
       ~vm_mem_bytes:(Simkit.Units.gib 1) ())
      .Rejuv.Experiment.downtime_mean_s
  in
  let vmm_reboot ?(calibration = base) n =
    (Rejuv.Experiment.run_reboot ~calibration ~strategy:Rejuv.Strategy.Warm
       ~vm_count:n ~vm_mem_bytes:(Simkit.Units.gib 1) ())
      .Rejuv.Experiment.vmm_reboot_s
  in
  pf "1. scrub-skip at quick reload (why reboot_vmm(n) slopes down):@.";
  let no_skip = { base with Rejuv.Calibration.scrub_free_only = false } in
  pf "   reboot_vmm at n=0/11, with skip:    %5.1f / %5.1f s@."
    (vmm_reboot 0) (vmm_reboot 11);
  pf "   reboot_vmm at n=0/11, without skip: %5.1f / %5.1f s@."
    (vmm_reboot ~calibration:no_skip 0)
    (vmm_reboot ~calibration:no_skip 11);
  pf "2. suspend after (RootHammer) vs before dom0 shutdown:@.";
  let early =
    { base with Rejuv.Calibration.suspend_before_dom0_shutdown = true }
  in
  pf "   warm downtime, suspend after:  %5.1f s@."
    (downtime Rejuv.Strategy.Warm);
  pf "   warm downtime, suspend before: %5.1f s@."
    (downtime ~calibration:early Rejuv.Strategy.Warm);
  pf "3. xend's serial restore vs parallel restore (saved-VM reboot):@.";
  let par = { base with Rejuv.Calibration.parallel_restore = true } in
  pf "   saved downtime, serial:   %5.1f s@." (downtime Rejuv.Strategy.Saved);
  pf "   saved downtime, parallel: %5.1f s (interleaved reads)@."
    (downtime ~calibration:par Rejuv.Strategy.Saved);
  pf "4. driver domains (cannot be suspended; Section 7):@.";
  let driver_run ~driver_vm_count =
    let s =
      Rejuv.Scenario.create
        { Rejuv.Scenario.Config.default with vm_count = 3; driver_vm_count }
    in
    Rejuv.Roothammer.start_and_run s;
    let probers = Rejuv.Scenario.attach_probers s () in
    ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy:Rejuv.Strategy.Warm);
    Rejuv.Roothammer.settle s ~seconds:2.0;
    List.iter Netsim.Prober.stop probers;
    List.map2
      (fun vm p ->
        ( Rejuv.Scenario.vm_name vm,
          Option.value (Netsim.Prober.longest_outage p) ~default:0.0 ))
      (Rejuv.Scenario.vms s) probers
  in
  List.iter
    (fun (name, d) -> pf "   %-10s downtime %5.1f s@." name d)
    (driver_run ~driver_vm_count:1);
  pf "5. load-aware scheduling of the rejuvenation window:@.";
  let diurnal =
    [ (0.0, 300.0); (9.0 *. 3600.0, 900.0); (21.0 *. 3600.0, 120.0) ]
  in
  let duration = downtime Rejuv.Strategy.Warm in
  let start, cost =
    Rejuv.Policy.Load.best_window diurnal ~duration
      ~horizon:(24.0 *. 3600.0)
  in
  pf "   warm outage %.0f s placed at %.1f h costs %.0f lost requests@."
    duration (start /. 3600.0) cost;
  pf "   (naive midday placement: %.0f)@."
    (Rejuv.Policy.Load.cost diurnal ~start:(12.0 *. 3600.0) ~duration)

(* --- Figure 9, measured: rolling rejuvenation of a real cluster ----------- *)

let cluster () =
  header
    "Figure 9, measured: rolling rejuvenation of 4 simulated hosts (the \
     paper's future work)";
  pf "4 hosts x 3 VMs, blind dispatch, open-loop 100 req/s@.";
  let run strategy =
    (* Blind dispatch on purpose: the measured form of the Figure 9
       model sprays requests at the rebooting host to count its drops. *)
    let fleet =
      Rejuv.Fleet.create
        { Rejuv.Fleet.Config.cluster with blind_dispatch = true }
    in
    Rejuv.Fleet.start fleet;
    let r = Rejuv.Fleet.run fleet ~strategy:(Rejuv.Wave.Reboot strategy) in
    pf "%-16s elapsed %6.1f s  per-host outage %s  lost %d/%d (%.1f %%)@."
      (Rejuv.Strategy.name strategy)
      r.Rejuv.Fleet.makespan_s
      (String.concat "/"
         (List.map
            (fun w -> Printf.sprintf "%.0fs" w.Rejuv.Fleet.wave_makespan_s)
            r.Rejuv.Fleet.waves))
      r.Rejuv.Fleet.lost r.Rejuv.Fleet.offered
      (100.0 *. r.Rejuv.Fleet.loss_ratio)
  in
  List.iter run Rejuv.Strategy.all;
  pf "the cluster never goes dark; the strategies differ in how many@.";
  pf "requests the rebooting host drops — the measured form of Fig. 9@."

(* --- Fleet-scale rolling rejuvenation -------------------------------------- *)

let fleet () =
  header
    "Fleet: 200 hosts, rolling warm waves of 16 under a 0.75 SLO guard";
  pf "fleet_rolling's (200 hosts, width 16, warm) cell at seed 42@.";
  let ev0 = Simkit.Engine.domain_events_processed () in
  let r, wall =
    wall_of (fun () ->
        Experiment.fleet_cell ~seed:42 ~hosts:200 ~width:16 ~slo:0.75
          ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm)
          ())
  in
  let events = Simkit.Engine.domain_events_processed () - ev0 in
  pf "(%d sim events, %.2f s wall)@.%a" events wall Result.pp
    (Result.Fleet [ r ]);
  (* The acceptance gate: warm-wave rolling rejuvenation never drops
     projected capacity below the SLO floor. *)
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "fleet.warm.slo_met"
    (if r.Rejuv.Fleet.slo_met then 1.0 else 0.0);
  record ~unit_:"hosts" "fleet.warm.min_healthy"
    (float_of_int r.Rejuv.Fleet.min_healthy);
  record "fleet.warm.makespan_s" r.Rejuv.Fleet.makespan_s;
  record ~unit_:"fraction" "fleet.warm.loss_ratio" r.Rejuv.Fleet.loss_ratio;
  if wall > 0.0 && events > 0 then
    record_info ~unit_:"events/s" "fleet.events_per_s"
      (float_of_int events /. wall)

(* --- Partitioned fleet: intra-run parallelism ------------------------------ *)

(* The same 200-host warm cell, run whole on 1 shard and spread over 4.
   Two machine-independent gates: the reports must agree to the byte
   (the property `--partitions` leans on), and on real
   multicore hardware 4 shards must be at least 2x faster. The speedup
   gate holds vacuously below 4 effective cores — a 1-core CI runner
   can't parallelize anything — and says so. *)
let parfleet () =
  header "Partitioned fleet: the 200-host warm cell on 1 vs 4 shards";
  pf "same seed, same cell; partitions only spread its hosts over domains@.";
  let cell partitions =
    let t0 = Unix.gettimeofday () in
    let ev0 = Simkit.Engine.domain_events_processed () in
    let r =
      Rejuv.Experiment.fleet_cell ~partitions ~seed:42 ~hosts:200 ~width:16
        ~slo:0.75
        ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm)
        ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    let events = Simkit.Engine.domain_events_processed () - ev0 in
    (Rejuv.Experiment.Result.(to_json (Fleet [ r ])), wall, events)
  in
  let j1, w1, e1 = cell 1 in
  let j4, w4, e4 = cell 4 in
  let agree = j1 = j4 in
  let conserved = e1 = e4 in
  let speedup = if w4 > 0.0 then w1 /. w4 else 0.0 in
  let cores = Runner.Pool.default_jobs () in
  pf "partitions=1: %8.2f s  %9d events@." w1 e1;
  pf "partitions=4: %8.2f s  %9d events  (worker counts credited back)@." w4
    e4;
  pf "reports %s; speedup %.2fx on %d effective core(s)@."
    (if agree then "byte-identical" else "DIVERGED")
    speedup cores;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "parfleet.partitions_agree"
    (if agree then 1.0 else 0.0);
  (* Partition-aware event accounting: the four shards' executed-event
     counts, summed into this domain's charge, must equal the 1-shard
     run's — same simulation, same events, wherever they ran. *)
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "parfleet.events_conserved"
    (if conserved then 1.0 else 0.0);
  let vacuous = cores < 4 in
  if vacuous then
    pf "(< 4 effective cores: the speedup gate holds vacuously)@.";
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "parfleet.speedup_ge_2x"
    (if speedup >= 2.0 || vacuous then 1.0 else 0.0);
  record_info ~unit_:"x" "parfleet.speedup" speedup;
  if w4 > 0.0 && e4 > 0 then
    record_info ~unit_:"events/s" "parfleet.events_per_s"
      (float_of_int e4 /. w4)

(* --- Sensitivity: does the warm reboot still win on modern hardware? ------ *)

let sensitivity () =
  header "Sensitivity: 2007 testbed vs a 2020s server (8 GiB VMs, n=11)";
  pf "modern profile: 128 GiB RAM, NVMe (3 GB/s), 25 GbE, 0.05 s/GiB scrub,@.";
  pf "long server POST (~95 s), fast dom0 boot; guest timings unchanged@.";
  let run calibration strategy =
    (Rejuv.Experiment.run_reboot ~calibration ~strategy ~vm_count:11
       ~vm_mem_bytes:(Simkit.Units.gib 8) ~horizon_s:3600.0 ())
      .Rejuv.Experiment.downtime_mean_s
  in
  (* The 2007 host cannot hold 11 x 8 GiB; scale its memory up but keep
     every other 2007 characteristic. *)
  let old_big =
    Rejuv.Calibration.with_memory Rejuv.Calibration.default ~gib:128
  in
  pf "%-22s %10s %10s %10s@." "profile" "warm" "saved" "cold";
  let show name calibration =
    pf "%-22s %10.1f %10.1f %10.1f@." name
      (run calibration Rejuv.Strategy.Warm)
      (run calibration Rejuv.Strategy.Saved)
      (run calibration Rejuv.Strategy.Cold)
  in
  show "2007 disk, 128 GiB" old_big;
  show "2020s server" Rejuv.Calibration.modern;
  pf "reading: NVMe shrinks the saved-VM penalty dramatically, but the@.";
  pf "warm reboot still wins everywhere — and on big-memory hosts the@.";
  pf "full-scrub cost it skips grows with installed RAM.@."

(* --- Memory dynamics: ballooning + streamed restore ------------------------ *)

let memdyn () =
  header "Memory dynamics: ballooning and streamed demand-paged restore";
  pf "saved reboot of one 1 GiB VM on the 2007 testbed, per memdyn mode@.";
  let run memdyn =
    Rejuv.Experiment.run_reboot ?memdyn ~strategy:Rejuv.Strategy.Saved
      ~vm_count:1
      ~vm_mem_bytes:(Simkit.Units.gib 1)
      ()
  in
  let off = run None in
  let ballooned = run (Some (Mem.Memdyn.default Mem.Memdyn.Balloon)) in
  let streamed = run (Some (Mem.Memdyn.default Mem.Memdyn.Stream)) in
  pf "%-16s %12s %12s %10s@." "mode" "image-MiB" "downtime-s" "lag-s";
  List.iter
    (fun (name, (r : Rejuv.Experiment.reboot_run)) ->
      pf "%-16s %12.1f %12.1f %10.1f@." name r.saved_image_mib
        r.downtime_max_s r.restore_lag_s)
    [ ("off", off); ("balloon", ballooned); ("stream", streamed) ];
  (* Gate: the balloon driver reclaims idle pages before suspend, so
     the saved image must come out strictly smaller than full RAM. *)
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0)
    "memdyn.balloon_shrinks_image"
    (if
       ballooned.Rejuv.Experiment.saved_image_mib
       < off.Rejuv.Experiment.saved_image_mib
     then 1.0
     else 0.0);
  (* Gate: restoring only the hot pages before resume must beat
     stop-and-copy on 2007 spindles. *)
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0)
    "memdyn.stream_cuts_downtime"
    (if
       streamed.Rejuv.Experiment.downtime_max_s
       < off.Rejuv.Experiment.downtime_max_s
     then 1.0
     else 0.0);
  record ~unit_:"MiB" "memdyn.off.image_mib"
    off.Rejuv.Experiment.saved_image_mib;
  record ~unit_:"MiB" "memdyn.balloon.image_mib"
    ballooned.Rejuv.Experiment.saved_image_mib;
  record "memdyn.off.downtime_s" off.Rejuv.Experiment.downtime_max_s;
  record "memdyn.stream.downtime_s"
    streamed.Rejuv.Experiment.downtime_max_s;
  record "memdyn.stream.restore_lag_s"
    streamed.Rejuv.Experiment.restore_lag_s;
  (* Gate: off-mode inertness — a seeded fleet cell's JSON is
     byte-identical with memdyn absent vs explicitly off, and for
     partitions 1 and 4. *)
  let cell ?memdyn ~partitions () =
    Rejuv.Experiment.Result.to_json
      (Rejuv.Experiment.Result.Fleet
         [
           Rejuv.Experiment.fleet_cell ?memdyn ~partitions
             ~load_rate_per_s:20.0 ~seed:11 ~hosts:6 ~width:2 ~slo:0.5
             ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm)
             ();
         ])
  in
  let reference = cell ~memdyn:Mem.Memdyn.off ~partitions:1 () in
  let identical =
    String.length reference > 100
    && String.equal reference (cell ~partitions:1 ())
    && String.equal reference (cell ~memdyn:Mem.Memdyn.off ~partitions:4 ())
  in
  pf "off-mode fleet cell byte-identical across modes/partitions: %b@."
    identical;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "memdyn.off_identical"
    (if identical then 1.0 else 0.0)

(* --- The fault-injection campaign ------------------------------------------ *)

let faults () =
  header "Fault matrix: recovery per strategy x injection site";
  pf "each site armed to fire on its first call during the reboot;@.";
  pf "policy: 1 retry, fallback allowed, abandon failed domains@.";
  match sweep_result "fault_matrix" with
  | Result.Fault_matrix cells ->
    let recovered =
      List.length (List.filter (fun (c : Rejuv.Fault_matrix.cell) -> c.recovered) cells)
    in
    record ~unit_:"fraction" "faults.recovered_fraction"
      (float_of_int recovered /. float_of_int (List.length cells))
  | _ -> assert false

(* --- The parallel sweep runner itself -------------------------------------- *)

let sweep () =
  header "Sweep runner: fig4 + fig5 + fig6 batched across domains";
  let ids = [ "fig4"; "fig5"; "fig6" ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let (seq, _), t_seq = time (fun () -> Rejuv.Experiment.sweep ~jobs:1 ids) in
  let (par, outcomes), t_par =
    time (fun () ->
        Rejuv.Experiment.sweep ~jobs:!jobs ~verify_isolation:true ids)
  in
  let bytes merged = Marshal.to_string (List.map snd merged) [] in
  let run_wall = Runner.Sweep.total_wall_s outcomes in
  let events =
    List.fold_left
      (fun acc (o : _ Runner.Sweep.outcome) -> acc + o.metrics.sim_events)
      0 outcomes
  in
  pf "%d runs, %d sim events; sequential elapsed %.3f s@."
    (List.length outcomes) events t_seq;
  pf "%d domain(s): %.3f s of run wall-clock in %.3f s elapsed (overlap %.2fx)@."
    !jobs run_wall t_par
    (if t_par > 0.0 then run_wall /. t_par else 1.0);
  let cores = Domain.recommended_domain_count () in
  if cores <= 1 then
    pf "(host reports %d core — domains interleave, elapsed cannot drop)@."
      cores;
  let identical = String.equal (bytes seq) (bytes par) in
  pf "merged results byte-identical to the sequential path: %b@." identical;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "sweep.merged_identical"
    (if identical then 1.0 else 0.0);
  record_info ~unit_:"x" "sweep.overlap" (if t_par > 0.0 then run_wall /. t_par else 1.0)

(* --- Event-core microbenchmark --------------------------------------------

   Events/sec of the engine's event queue under the two workload shapes
   that motivated tombstone compaction: a cancel-heavy synthetic (the
   timeout idiom — schedule a far-future timeout, cancel it almost
   immediately — that used to drown the heap in tombstones) and an
   httperf-style closed loop. Wall-clock numbers are informational; the
   gate is a shape fact that holds on any machine: compaction must make
   the cancel-heavy workload at least 2x faster than the uncompacted
   heap. *)

let cancel_heavy_iters = 300_000
let cancel_heavy_actors = 64

(* Each round: one far-future timeout (cancelled 10 ms later, so it
   always dies a tombstone) plus one work event that re-arms the actor.
   Sim time stays well short of the 1000 s timeouts, so with compaction
   [`Off] every cancelled handle lingers in the queue until the final
   drain. *)
let run_cancel_heavy ~compaction () =
  let e = Simkit.Engine.create ~compaction () in
  let remaining = ref cancel_heavy_iters in
  let rec arm () =
    if !remaining > 0 then begin
      decr remaining;
      let timeout = Simkit.Engine.schedule e ~delay:1000.0 (fun () -> ()) in
      ignore
        (Simkit.Engine.schedule e ~delay:0.01 (fun () ->
             Simkit.Engine.cancel e timeout;
             arm ()))
    end
  in
  for _ = 1 to cancel_heavy_actors do
    arm ()
  done;
  Simkit.Engine.run e;
  e

let httperf_heavy_horizon_s = 600.0

let run_httperf_heavy () =
  let e = Simkit.Engine.create () in
  let rng = Simkit.Rng.create 7 in
  let gen =
    Netsim.Httperf.create e ~name:"bench" ~connections:32
      ~request:(fun k ->
        let latency = 0.002 +. Simkit.Rng.float rng 0.05 in
        ignore (Simkit.Engine.schedule e ~delay:latency (fun () -> k true)))
      ()
  in
  Netsim.Httperf.start gen;
  Simkit.Engine.run ~until:httperf_heavy_horizon_s e;
  Netsim.Httperf.stop gen;
  (e, gen)

(* --- Elastic traffic model ------------------------------------------------- *)

(* The hybrid fluid-flow aggregation gates: (a) the aggregate modes must
   reproduce the per-request fig7 observables at small n (steady
   throughput and outage width within 5%), and (b) aggregation must cut
   engine events by at least 10x at 1000 clients — the O(flows) ->
   O(epochs) win that unlocks the 1M-client hybrid fleet cell closing
   the section. *)
let traffic () =
  header "Traffic model: fluid/hybrid client aggregation vs per-request";
  let cell ?(clients = 10) mode =
    let ev0 = Simkit.Engine.domain_events_processed () in
    let row, wall =
      wall_of (fun () ->
          Rejuv.Experiment.run_traffic_cell ~seed:7
            (mode, clients, Rejuv.Strategy.Warm))
    in
    (row, Simkit.Engine.domain_events_processed () - ev0, wall)
  in
  pf "fig7-shaped cell (warm reboot at t=20 s), 10 clients, seed 7:@.";
  let small =
    List.map
      (fun mode ->
        let row, events, _ = cell mode in
        pf "%s: %d sim events@." (Netsim.Fluid.mode_name mode) events;
        (mode, row))
      [ Netsim.Fluid.Per_request; Netsim.Fluid.Fluid; Netsim.Fluid.Hybrid ]
  in
  pf "%a" Result.pp (Result.Traffic (List.map snd small));
  let pr : Rejuv.Experiment.traffic_row =
    List.assoc Netsim.Fluid.Per_request small
  in
  let within pct a reference =
    Float.abs (a -. reference) <= pct *. Float.max (Float.abs reference) 1e-9
  in
  let equivalent =
    List.for_all
      (fun (_, (r : Rejuv.Experiment.traffic_row)) ->
        within 0.05 r.tw_steady_rps pr.tw_steady_rps
        && within 0.05 r.tw_outage_s pr.tw_outage_s)
      small
  in
  pf "aggregate modes within 5%% of per-request (steady + outage): %b@."
    equivalent;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "traffic.equivalence_ok"
    (if equivalent then 1.0 else 0.0);
  record ~unit_:"req/s" "traffic.per_request.steady_rps" pr.tw_steady_rps;
  record "traffic.per_request.outage_s" pr.tw_outage_s;
  (* A saturated cell barely rewards aggregation: with zero think time
     even the 4-connection tracer runs at server capacity, so hybrid
     still simulates ~capacity x horizon requests. Informational. *)
  let _, ev_pr_sat, wall_pr_sat = cell ~clients:1000 Netsim.Fluid.Per_request in
  let _, ev_hy_sat, wall_hy_sat = cell ~clients:1000 Netsim.Fluid.Hybrid in
  pf "1000 zero-think clients (saturated): per-request %d events (%.2f s), \
      hybrid %d events (%.2f s) — %.1fx@."
    ev_pr_sat wall_pr_sat ev_hy_sat wall_hy_sat
    (float_of_int ev_pr_sat /. float_of_int (max ev_hy_sat 1));
  record_info ~unit_:"x" "traffic.saturated.event_reduction_x"
    (float_of_int ev_pr_sat /. float_of_int (max ev_hy_sat 1));
  (* The O(flows) -> O(epochs) gate, on the population shape the model
     exists for: many flows, each individually slow. 10k closed-loop
     clients with 1 s think time offer ~10k req/s; per-request that is
     O(requests) engine events, hybrid is O(epochs) plus a 4-connection
     tracer (~4 req/s). *)
  let aggregation_clients = 10_000 in
  let aggregation_horizon_s = 60.0 in
  let run_aggregation mode =
    let e = Simkit.Engine.create () in
    let server =
      Netsim.Fluid.static_server ~capacity_rps:50_000.0 ~service_time_s:0.002
        ()
    in
    (* The per-request path has no separate think knob, so the request
       closure carries the whole cycle (1 s think + 2 ms service) —
       the same N / (Z + S) closed loop the fluid side integrates. *)
    let request k =
      ignore (Simkit.Engine.schedule e ~delay:1.002 (fun () -> k true))
    in
    let cfg =
      {
        Netsim.Fluid.default_config with
        Netsim.Fluid.mode;
        clients = aggregation_clients;
        tracers = 4;
        think_time_s = 1.0;
      }
    in
    let load = Netsim.Fluid.create e ~config:cfg ~request ~server () in
    Netsim.Fluid.start load;
    Simkit.Engine.run ~until:aggregation_horizon_s e;
    Netsim.Fluid.stop load;
    (load, Simkit.Engine.events_processed e)
  in
  let (load_pr, ev_pr), wall_pr = wall_of (fun () -> run_aggregation Netsim.Fluid.Per_request) in
  let (load_hy, ev_hy), wall_hy = wall_of (fun () -> run_aggregation Netsim.Fluid.Hybrid) in
  let x_pr = Netsim.Fluid.throughput_between load_pr ~lo:10.0 ~hi:50.0 in
  let x_hy = Netsim.Fluid.throughput_between load_hy ~lo:10.0 ~hi:50.0 in
  let speedup = float_of_int ev_pr /. float_of_int (max ev_hy 1) in
  let wall_speedup = wall_pr /. Float.max wall_hy 1e-9 in
  pf "%d clients, 1 s think, %.0f s horizon:@." aggregation_clients
    aggregation_horizon_s;
  pf "  per-request %9d events  %8.2f s wall  %8.0f req/s steady@." ev_pr
    wall_pr x_pr;
  pf "  hybrid      %9d events  %8.2f s wall  %8.0f req/s steady@." ev_hy
    wall_hy x_hy;
  pf "  %.0fx fewer events, %.1fx wall-clock, steady throughput within \
      %.2f%%@."
    speedup wall_speedup
    (100.0 *. Float.abs (x_hy -. x_pr) /. Float.max x_pr 1e-9);
  record_info ~unit_:"events" "traffic.per_request.sim_events"
    (float_of_int ev_pr);
  record_info ~unit_:"events" "traffic.hybrid.sim_events"
    (float_of_int ev_hy);
  record_info ~unit_:"x" "traffic.event_reduction_x" speedup;
  record_info ~unit_:"x" "traffic.wall_speedup_x" wall_speedup;
  record_info "traffic.per_request.wall_s" wall_pr;
  record_info "traffic.hybrid.wall_s" wall_hy;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "traffic.speedup_ge_10x"
    (if speedup >= 10.0 then 1.0 else 0.0);
  (* The scale this buys: a 200-host fleet cell with 1M modeled
     closed-loop clients per host (60 s think time, so ~16.7k req/s
     offered per host), rolled through a full warm rejuvenation pass.
     Per-request this would be ~10^10 events; hybrid completes in
     seconds. *)
  let hybrid_1m =
    {
      Netsim.Fluid.default_config with
      Netsim.Fluid.mode = Netsim.Fluid.Hybrid;
      clients = 1_000_000;
      tracers = 4;
      think_time_s = 60.0;
    }
  in
  let (report : Rejuv.Fleet.report), wall_fleet =
    wall_of (fun () ->
        Rejuv.Experiment.fleet_cell ~traffic:hybrid_1m ~partitions:4
          ~load_rate_per_s:50.0 ~seed:11 ~hosts:200 ~width:16 ~slo:0.75
          ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm)
          ())
  in
  pf "1M-client hybrid fleet (200 hosts, 4 partitions): %d waves, makespan \
      %.0f s, lost %d/%d, SLO %s — %.2f s wall@."
    (List.length report.Rejuv.Fleet.waves)
    report.Rejuv.Fleet.makespan_s report.Rejuv.Fleet.lost
    report.Rejuv.Fleet.offered
    (if report.Rejuv.Fleet.slo_met then "met" else "MISSED")
    wall_fleet;
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) "traffic.fleet_1m.completed"
    (if report.Rejuv.Fleet.offered > 0 then 1.0 else 0.0);
  record ~unit_:"fraction" "traffic.fleet_1m.loss_ratio"
    report.Rejuv.Fleet.loss_ratio;
  record_info "traffic.fleet_1m.wall_s" wall_fleet

let eventcore () =
  header "Event core (events/sec with and without tombstone compaction)";
  pf "cancel-heavy synthetic: %d rounds, %d actors@." cancel_heavy_iters
    cancel_heavy_actors;
  let rates =
    List.map
      (fun (tag, compaction) ->
        let e, wall = wall_of (run_cancel_heavy ~compaction) in
        let events = Simkit.Engine.events_scheduled e in
        let rate = float_of_int events /. Float.max wall 1e-9 in
        pf "  %-14s %8.2f s  %9.0f events/s  (%d compactions)@." tag wall
          rate (Simkit.Engine.queue_stats e).Simkit.Engine.qs_compactions;
        record_info ~unit_:"events/s"
          (Printf.sprintf "eventcore.cancel_heavy.%s.events_per_s" tag)
          rate;
        (tag, rate))
      [ ("heap_off", `Off); ("heap_auto", `Auto) ]
  in
  let rate tag = List.assoc tag rates in
  let speedup = rate "heap_auto" /. rate "heap_off" in
  pf "  compaction vs uncompacted heap: %.2fx@." speedup;
  record_info ~unit_:"x" "eventcore.cancel_heavy.speedup_x" speedup;
  (* The acceptance gate, as a machine-independent boolean. *)
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0)
    "eventcore.cancel_heavy.speedup_ge_2x"
    (if speedup >= 2.0 then 1.0 else 0.0);
  pf "httperf-heavy closed loop: 32 connections, %.0f s horizon@."
    httperf_heavy_horizon_s;
  let (e, gen), wall = wall_of run_httperf_heavy in
  let rate =
    float_of_int (Simkit.Engine.events_processed e) /. Float.max wall 1e-9
  in
  pf "  %-14s %8.2f s  %9.0f events/s  (%d requests)@." "heap" wall rate
    (Netsim.Httperf.completed gen);
  record_info ~unit_:"events/s" "eventcore.httperf.heap.events_per_s" rate

(* --- driver ---------------------------------------------------------------- *)

let sections =
  [
    ("fig4", fig4); ("fig5", fig5); ("reload", reload); ("fig6a", fig6a);
    ("fig6b", fig6b); ("avail", avail); ("fig7", fig7); ("fig8a", fig8a);
    ("fig8b", fig8b); ("fits", fits); ("policy", policy); ("fig9", fig9);
    ("migration", migration); ("ablation", ablation); ("cluster", cluster);
    ("fleet", fleet); ("parfleet", parfleet); ("memdyn", memdyn);
    ("traffic", traffic);
    ("sensitivity", sensitivity); ("faults", faults);
    ("sweep", sweep); ("eventcore", eventcore);
  ]

(* Simulator self-metrics per section: real wall time and the simulated
   events executed on this domain (sweep-based sections run their
   events in worker domains, so their count reflects only merge work —
   still a useful canary for accidental main-domain simulation). All
   informational: wall time is machine-dependent and never gated. *)
let timed tag f =
  let t0 = Unix.gettimeofday () in
  let ev0 = Simkit.Engine.domain_events_processed () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let events = Simkit.Engine.domain_events_processed () - ev0 in
  record_info (Printf.sprintf "self.%s.wall_s" tag) wall;
  record_info ~unit_:"events"
    (Printf.sprintf "self.%s.sim_events" tag)
    (float_of_int events);
  if wall > 0.0 && events > 0 then
    record_info ~unit_:"events/s"
      (Printf.sprintf "self.%s.events_per_s" tag)
      (float_of_int events /. wall)

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest ->
      jobs := max 1 (int_of_string n);
      parse acc rest
    | ("-o" | "--out") :: path :: rest ->
      bench_out := path;
      parse acc rest
    | tag :: rest -> parse (tag :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | tags -> tags
  in
  pf "RootHammer benchmark harness — Kourai & Chiba, DSN 2007 reproduction@.";
  List.iter
    (fun tag ->
      match List.assoc_opt tag sections with
      | Some f -> timed tag f
      | None ->
        pf "unknown section %S (available: %s)@." tag
          (String.concat ", " (List.map fst sections)))
    requested;
  write_bench_file ()
