(* Benchmark harness: main.exe [-j N] [-o FILE] [tag ...]. Each row of
   [sections] runs registered experiments, or single cells of them,
   through [Experiment.sweep] on N domains (default: the machine's),
   prints them beside the paper's numbers, and records its gated values
   from the merged results and from each cell's wall time and simulated
   events. Only the synthetic checks call the library directly: the event
   core, the 10k-client aggregation, the 1M-client fleet, and memdyn's
   balloon-only run and off-mode identity. *)

open Simkit
open Rejuv
open Printf

let pf = Format.printf

module Result = Experiment.Result
module Spec = Experiment.Spec

let jobs = ref (Domain.recommended_domain_count ())

(* The recorded values, written as a roothammer-bench/1 file. Simulation
   outputs get a tolerance band that `benchstat --check` holds against
   BENCH_BASELINE.json; timings are informational (tolerance null). *)
let bench_out = ref "BENCH_PR10.json"
let bench_metrics : (string * Benchstat.Check.metric) list ref = ref []

let record ?(unit_ = "s")
    ?(tolerance_pct = Some Benchstat.Check.default_tolerance_pct) name value =
  bench_metrics :=
    (name, { Benchstat.Check.value; unit_; tolerance_pct }) :: !bench_metrics

let record_info ?unit_ name value = record ?unit_ ~tolerance_pct:None name value
let records ?unit_ prefix = List.iter (fun (name, v) -> record ?unit_ (prefix ^ name) v)
let gate name ok =
  record ~unit_:"bool" ~tolerance_pct:(Some 0.0) name (if ok then 1.0 else 0.0)

let record_rate name ~events ~wall =
  if wall > 0.0 && events > 0 then
    record_info ~unit_:"events/s" name (float_of_int events /. wall)

let wall_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Simulated events the sweep cells ran, less those this domain counted
   itself; [timed] adds this domain's own count. *)
let cell_events = ref 0

let events_of =
  List.fold_left (fun n (o : _ Runner.Sweep.outcome) -> n + o.metrics.sim_events) 0

(* Run registered ids or cell keys: one merged result per name. *)
let sweep ?(params = Spec.default_params) ?(jobs = !jobs) ?verify names =
  let ev0 = Engine.domain_events_processed () in
  let merged, outcomes = Experiment.sweep ~jobs ?verify_isolation:verify ~params names in
  cell_events :=
    !cell_events + events_of outcomes - (Engine.domain_events_processed () - ev0);
  (List.map (function _, Ok r -> r | _, Error f -> Fault.fail f) merged, outcomes)

(* One name, printed, with its cells' runner metrics. *)
let show ?(params = Spec.default_params) name =
  match sweep ~params [ name ] with
  | [ r ], outcomes ->
    pf "%a(%d cell(s), %d domain(s), %.2f s of cell wall-clock)@." Result.pp r
      (List.length outcomes) (min !jobs (List.length outcomes))
      (Runner.Sweep.total_wall_s outcomes);
    (r, List.map (fun (o : _ Runner.Sweep.outcome) -> o.metrics) outcomes)
  | _ -> assert false

let print id () = ignore (show id)
let last rows = List.nth rows (List.length rows - 1)

(* [f] over the warm and the cold run of [id]. *)
let per_strategy id f =
  List.iter
    (fun strategy ->
      let params = { Spec.default_params with strategy } in
      f (Strategy.id strategy) (fst (show ~params id)))
    [ Strategy.Warm; Strategy.Cold ]

(* Headline: the largest sweep point (the paper's 11 GiB / 11 VMs). *)
let task_times id () =
  match show id with
  | Result.Task_times rows, _ ->
    let (t : Experiment.task_times) = last rows in
    records (sprintf "%s.at%02d." id t.x)
      [ ("onmem_suspend_s", t.onmem_suspend_s); ("onmem_resume_s", t.onmem_resume_s);
        ("xen_save_s", t.xen_save_s); ("xen_restore_s", t.xen_restore_s);
        ("shutdown_s", t.shutdown_s); ("boot_s", t.boot_s) ]
  | _ -> assert false

let fig6 tag workload () =
  match show ~params:{ Spec.default_params with workload } "fig6" with
  | Result.Fig6 rows, _ ->
    let (r : Experiment.fig6_row) = last rows in
    records (sprintf "%s.n%02d." tag r.n)
      [ ("warm_downtime_s", r.warm_downtime_s); ("saved_downtime_s", r.saved_downtime_s);
        ("cold_downtime_s", r.cold_downtime_s) ]
  | _ -> assert false

(* Fig. 7's windows come every ~0.2 s; print them averaged per 5 s. *)
let fig7_buckets throughput =
  pf "throughput (50-request windows resampled to 5 s, req/s):@.";
  let bucket (t, _) = int_of_float (t /. 5.0) in
  List.iter
    (fun b ->
      let vs = List.filter (fun p -> bucket p = b) throughput |> List.map snd in
      pf "   t=%5.0f..%3.0f s  %8.1f req/s@." (float_of_int b *. 5.0)
        (float_of_int (b + 1) *. 5.0)
        (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)))
    (List.sort_uniq compare (List.map bucket throughput))

(* The first pass before and after each strategy's reboot. *)
let before_after tag id () =
  per_strategy id (fun s -> function
    | Result.Before_after r ->
      record ~unit_:"fraction" (tag ^ "." ^ s ^ ".degradation") r.degradation;
      record ~unit_:"throughput" (tag ^ "." ^ s ^ ".first_after") r.first_after
    | _ -> assert false)

let fleet_cell = "fleet_rolling/h=0200/w=016/s=warm"

(* The same cell on 1 shard and on 4: the reports agree to the byte, the
   shards' events credited back add up to the 1-shard run's, and 4 shards
   are 2x faster, a gate that holds vacuously below 4 cores, and says so. *)
let parfleet () =
  let cell partitions =
    match sweep ~params:{ Spec.default_params with partitions } [ fleet_cell ] with
    | [ r ], [ o ] -> (Result.to_json r, o.metrics)
    | _ -> assert false
  in
  let j1, m1 = cell 1 in
  let j4, m4 = cell 4 in
  let speedup = if m4.wall_s > 0.0 then m1.wall_s /. m4.wall_s else 0.0 in
  let cores = Runner.Pool.default_jobs () in
  pf "partitions=1: %8.2f s  %9d events@.partitions=4: %8.2f s  %9d events  (worker \
      counts credited back)@.reports %s; speedup %.2fx on %d effective core(s)@."
    m1.wall_s m1.sim_events m4.wall_s m4.sim_events
    (if j1 = j4 then "byte-identical" else "DIVERGED") speedup cores;
  gate "parfleet.partitions_agree" (j1 = j4);
  gate "parfleet.events_conserved" (m1.sim_events = m4.sim_events);
  if cores < 4 then pf "(< 4 effective cores: the speedup gate holds vacuously)@.";
  gate "parfleet.speedup_ge_2x" (speedup >= 2.0 || cores < 4);
  record_info ~unit_:"x" "parfleet.speedup" speedup;
  record_rate "parfleet.events_per_s" ~events:m4.sim_events ~wall:m4.wall_s

(* Ballooning must shrink the saved image below full RAM, a streamed restore
   must beat stop-and-copy on 2007 spindles, and off mode must be inert: a
   fleet cell's JSON is the same with memdyn absent or off, on 1 partition
   or 4. Balloon-only is no elastic_restore cell. *)
let memdyn () =
  let restore m = sprintf "elastic_restore/m=%s/ws=035/d=hdd2007" m in
  match sweep [ restore "off"; restore "stream" ] with
  | [ Result.Elastic [ off ]; Result.Elastic [ stream ] ], _ ->
    let memdyn = Mem.Memdyn.default Mem.Memdyn.Balloon and vm_mem_bytes = Units.gib 1 in
    let b = Experiment.run_reboot ~memdyn ~strategy:Saved ~vm_count:1 ~vm_mem_bytes () in
    let balloon =
      { off with er_mode = Mem.Memdyn.Balloon; er_downtime_s = b.downtime_max_s;
        er_image_mib = b.saved_image_mib; er_restore_lag_s = b.restore_lag_s }
    in
    pf "%a" Result.pp (Result.Elastic [ off; balloon; stream ]);
    gate "memdyn.balloon_shrinks_image" (balloon.er_image_mib < off.er_image_mib);
    gate "memdyn.stream_cuts_downtime" (stream.er_downtime_s < off.er_downtime_s);
    record ~unit_:"MiB" "memdyn.off.image_mib" off.er_image_mib;
    record ~unit_:"MiB" "memdyn.balloon.image_mib" balloon.er_image_mib;
    record "memdyn.off.downtime_s" off.er_downtime_s;
    record "memdyn.stream.downtime_s" stream.er_downtime_s;
    record "memdyn.stream.restore_lag_s" stream.er_restore_lag_s;
    let cell ?memdyn partitions =
      Experiment.fleet_cell ?memdyn ~partitions ~load_rate_per_s:20.0 ~seed:11 ~hosts:6
        ~width:2 ~slo:0.5 ~strategy:(Wave.Reboot Strategy.Warm) ()
      |> fun r -> Result.to_json (Result.Fleet [ r ])
    in
    let off_json = cell ~memdyn:Mem.Memdyn.off 1 in
    let identical =
      String.length off_json > 100 && off_json = cell 1
      && off_json = cell ~memdyn:Mem.Memdyn.off 4
    in
    pf "off-mode fleet cell byte-identical across modes/partitions: %b@." identical;
    gate "memdyn.off_identical" identical
  | _ -> assert false

(* 10k closed-loop clients, each slow (1 s think, 2 ms service, carried
   whole by the per-request closure), offer ~10k req/s. *)
let run_aggregation mode () =
  let open Netsim.Fluid in
  let e = Engine.create () in
  let server = static_server ~capacity_rps:50e3 ~service_time_s:0.002 () in
  let request k = ignore (Engine.schedule e ~delay:1.002 (fun () -> k true)) in
  let config = { default_config with mode; clients = 10_000; think_time_s = 1.0 } in
  let load = create e ~config:{ config with tracers = 4 } ~request ~server () in
  start load;
  Engine.run ~until:60.0 e;
  stop load;
  (Engine.events_processed e, throughput_between load ~lo:10.0 ~hi:50.0)

(* The aggregate modes must reproduce the per-request fig7 observables
   at 10 clients (steady throughput and outage within 5%), and cut engine
   events at least 10x at 10k clients: O(epochs) plus a 4-connection
   tracer instead of O(requests), the win behind the 1M-client fleet. *)
let traffic () =
  let open Netsim.Fluid in
  let cell (mode, clients) =
    sprintf "elastic_traffic/m=%s/c=%07d/s=warm" (mode_name mode) clients
  in
  let small = [ (Per_request, 10); (Fluid, 10); (Hybrid, 10) ] in
  let results, outcomes =
    sweep ~params:{ Spec.default_params with seed = 7 }
      (List.map cell (small @ [ (Per_request, 1000); (Hybrid, 1000) ]))
  in
  let find c = List.find (fun (o : _ Runner.Sweep.outcome) -> o.key = cell c) outcomes in
  let metrics c = (find c).metrics in
  pf "fig7-shaped cell (warm reboot at t=20 s), 10 clients, seed 7:@.";
  List.iter (fun c -> pf "%s: %d sim events@." (mode_name (fst c)) (metrics c).sim_events)
    small;
  let rows = match Result.merge results with Result.Traffic r -> r | _ -> assert false in
  let rows = List.filteri (fun i _ -> i < 3) rows in
  pf "%a" Result.pp (Result.Traffic rows);
  let pr = List.hd rows in
  let near a b = Float.abs (a -. b) <= 0.05 *. Float.max (Float.abs b) 1e-9 in
  let equivalent =
    List.for_all
      (fun (r : Experiment.traffic_row) ->
        near r.tw_steady_rps pr.tw_steady_rps && near r.tw_outage_s pr.tw_outage_s)
      rows
  in
  pf "aggregate modes within 5%% of per-request (steady + outage): %b@." equivalent;
  gate "traffic.equivalence_ok" equivalent;
  record ~unit_:"req/s" "traffic.per_request.steady_rps" pr.tw_steady_rps;
  record "traffic.per_request.outage_s" pr.tw_outage_s;
  (* Zero think time saturates even the tracer: informational. *)
  let sat_pr = metrics (Per_request, 1000) and sat_hy = metrics (Hybrid, 1000) in
  let sat_x = float_of_int sat_pr.sim_events /. float_of_int (max sat_hy.sim_events 1) in
  pf "1000 zero-think clients (saturated): per-request %d events (%.2f s), hybrid \
      %d events (%.2f s) — %.1fx@."
    sat_pr.sim_events sat_pr.wall_s sat_hy.sim_events sat_hy.wall_s sat_x;
  record_info ~unit_:"x" "traffic.saturated.event_reduction_x" sat_x;
  let (ev_pr, x_pr), wall_pr = wall_of (run_aggregation Per_request) in
  let (ev_hy, x_hy), wall_hy = wall_of (run_aggregation Hybrid) in
  let speedup = float_of_int ev_pr /. float_of_int (max ev_hy 1) in
  let wall_speedup = wall_pr /. Float.max wall_hy 1e-9 in
  pf "10000 clients, 1 s think, 60 s horizon:@.";
  List.iter
    (fun (name, ev, wall, x) ->
      pf "  %-11s %9d events  %8.2f s wall  %8.0f req/s steady@." name ev wall x)
    [ ("per-request", ev_pr, wall_pr, x_pr); ("hybrid", ev_hy, wall_hy, x_hy) ];
  pf "  %.0fx fewer events, %.1fx wall-clock, steady throughput within %.2f%%@."
    speedup wall_speedup (100.0 *. Float.abs (x_hy -. x_pr) /. Float.max x_pr 1e-9);
  List.iter
    (fun (name, unit_, v) -> record_info ~unit_ ("traffic." ^ name) v)
    [ ("per_request.sim_events", "events", float_of_int ev_pr);
      ("hybrid.sim_events", "events", float_of_int ev_hy);
      ("event_reduction_x", "x", speedup); ("wall_speedup_x", "x", wall_speedup);
      ("per_request.wall_s", "s", wall_pr); ("hybrid.wall_s", "s", wall_hy) ];
  gate "traffic.speedup_ge_10x" (speedup >= 10.0);
  (* 200 hosts of 1M closed-loop clients (60 s think, ~16.7k req/s
     each) through a warm pass: ~10^10 events if run per-request. *)
  let traffic = { default_config with mode = Hybrid; clients = 1_000_000; tracers = 4 } in
  let (r : Fleet.report), wall =
    wall_of (fun () ->
        Experiment.fleet_cell ~traffic:{ traffic with think_time_s = 60.0 } ~partitions:4
          ~load_rate_per_s:50.0 ~seed:11 ~hosts:200 ~width:16 ~slo:0.75
          ~strategy:(Wave.Reboot Strategy.Warm) ())
  in
  pf "1M-client hybrid fleet (200 hosts, 4 partitions): %d waves, makespan %.0f s, \
      lost %d/%d, SLO %s — %.2f s wall@."
    (List.length r.waves) r.makespan_s r.lost r.offered
    (if r.slo_met then "met" else "MISSED") wall;
  gate "traffic.fleet_1m.completed" (r.offered > 0);
  record ~unit_:"fraction" "traffic.fleet_1m.loss_ratio" r.loss_ratio;
  record_info "traffic.fleet_1m.wall_s" wall

(* fig4-6 on 1 domain and on 2 (replaying a cell): the same bytes. *)
let sweep_runner () =
  let ids = [ "fig4"; "fig5"; "fig6" ] in
  let bytes results = String.concat "\n" (List.map Result.to_json results) in
  let (seq, _), t_seq = wall_of (fun () -> sweep ~jobs:1 ids) in
  let (par, outcomes), t_par = wall_of (fun () -> sweep ~jobs:2 ~verify:true ids) in
  let run_wall = Runner.Sweep.total_wall_s outcomes in
  let overlap = if t_par > 0.0 then run_wall /. t_par else 1.0 in
  pf "%d runs, %d sim events; sequential elapsed %.3f s@.2 domains: %.3f s of run \
      wall-clock in %.3f s elapsed (overlap %.2fx)@."
    (List.length outcomes) (events_of outcomes) t_seq run_wall t_par overlap;
  if Domain.recommended_domain_count () <= 1 then pf "(1 core: elapsed cannot drop)@.";
  let identical = String.equal (bytes seq) (bytes par) in
  pf "merged results byte-identical to the sequential path: %b@." identical;
  gate "sweep.merged_identical" identical;
  record_info ~unit_:"x" "sweep.overlap" overlap

(* Events/sec of the event queue under a cancel-heavy synthetic and an
   httperf-style closed loop. The gate holds on any machine: compaction
   makes the cancel-heavy workload at least 2x faster. Each round is a
   1000-s timeout cancelled 10 ms later by the work event that re-arms
   the actor, so with compaction [`Off] every handle lingers to the end. *)
let cancel_heavy_iters = 300_000
let cancel_heavy_actors = 64

let run_cancel_heavy ~compaction () =
  let e = Engine.create ~compaction () in
  let remaining = ref cancel_heavy_iters in
  let rec arm () =
    if !remaining > 0 then begin
      decr remaining;
      let timeout = Engine.schedule e ~delay:1000.0 ignore in
      let work () = Engine.cancel e timeout; arm () in
      ignore (Engine.schedule e ~delay:0.01 work)
    end
  in
  for _ = 1 to cancel_heavy_actors do arm () done;
  Engine.run e;
  e

let eventcore () =
  pf "cancel-heavy synthetic: %d rounds, %d actors@." cancel_heavy_iters
    cancel_heavy_actors;
  let rate (tag, compaction) =
    let e, wall = wall_of (run_cancel_heavy ~compaction) in
    let rate = float_of_int (Engine.events_scheduled e) /. Float.max wall 1e-9 in
    pf "  %-14s %8.2f s  %9.0f events/s  (%d compactions)@." tag wall rate
      (Engine.queue_stats e).Engine.qs_compactions;
    record_info ~unit_:"events/s"
      (sprintf "eventcore.cancel_heavy.%s.events_per_s" tag) rate;
    rate
  in
  let off = rate ("heap_off", `Off) in
  let speedup = rate ("heap_auto", `Auto) /. off in
  pf "  compaction vs uncompacted heap: %.2fx@." speedup;
  record_info ~unit_:"x" "eventcore.cancel_heavy.speedup_x" speedup;
  gate "eventcore.cancel_heavy.speedup_ge_2x" (speedup >= 2.0);
  pf "httperf-heavy closed loop: 32 connections, 600 s horizon@.";
  let e = Engine.create () and rng = Rng.create 7 in
  let request k =
    ignore (Engine.schedule e ~delay:(0.002 +. Rng.float rng 0.05) (fun () -> k true))
  in
  let gen = Netsim.Httperf.create e ~name:"bench" ~connections:32 ~request () in
  Netsim.Httperf.start gen;
  let (), wall = wall_of (fun () -> Engine.run ~until:600.0 e) in
  Netsim.Httperf.stop gen;
  let rate = float_of_int (Engine.events_processed e) /. Float.max wall 1e-9 in
  pf "  %-14s %8.2f s  %9.0f events/s  (%d requests)@." "heap" wall rate
    (Netsim.Httperf.completed gen);
  record_info ~unit_:"events/s" "eventcore.httperf.heap.events_per_s" rate

(* The table: tag, title, the paper's numbers (or what to read), run. *)
let sections =
  [
    ( "fig4", "Figure 4: pre/post-reboot task time vs VM memory size (1 VM)",
      "paper at 11 GiB: on-mem suspend 0.08 s, resume 0.9 s; Xen save ~133 s,\n\
       restore ~129 s (0.06% / 0.7%)", task_times "fig4" );
    ( "fig5", "Figure 5: pre/post-reboot task time vs number of VMs (1 GiB each)",
      "paper at 11 VMs: on-mem suspend 0.04 s, resume 4.2 s; Xen save ~200 s,\n\
       restore ~156 s; boot grows 3.4n", task_times "fig5" );
    ( "reload", "Section 5.2: effect of quick reload (VMM reboot, no domUs)",
      "paper: quick reload 11 s, hardware reset 59 s (speed-up 48 s)",
      fun () ->
        match show "quick_reload" with
        | Result.Reload r, _ ->
          record "reload.quick_reload_s" r.quick_reload_s;
          record "reload.hardware_reset_s" r.hardware_reset_s
        | _ -> assert false );
    ( "fig6a", "Figure 6a: downtime of ssh (seconds)",
      "paper at 11 VMs: warm 42, saved 429, cold 157", fig6 "fig6a" Scenario.Ssh );
    ( "fig6b", "Figure 6b: downtime of JBoss (seconds)",
      "paper at 11 VMs: warm ~42 (as ssh), cold 241", fig6 "fig6b" Scenario.Jboss );
    ( "avail", "Section 5.3: availability (JBoss, 11 VMs, weekly OS rejuvenation)",
      "paper: OS rejuvenation downtime 33.6 s; availability warm 99.993 %,\n\
       cold 99.985 %, saved 99.977 %",
      fun () ->
        let os = show "os_rejuvenation" in
        match (os, show "availability") with
        | (Result.Scalar { value; _ }, _), (Result.Availability measured, _) ->
          record "avail.os_rejuvenation_downtime_s" value;
          (* Unavailability: a regression moves the tiny complement. *)
          records ~unit_:"fraction" "avail."
            (List.map (fun (s, a) -> (Strategy.id s ^ ".unavailability", 1.0 -. a))
               measured)
        | _ -> assert false );
    ( "fig7", "Figure 7: downtime breakdown + web throughput during the reboot",
      "paper: warm stops web at t=34, cold at t=27; cold dips 8 s after\n\
       reboot (cache misses); warm shows a 25 s network artifact",
      fun () ->
        per_strategy "fig7" (fun s -> function
          | Result.Fig7 ({ web_down_at = Some d; web_up_at = Some u; _ } as r) ->
            record ("fig7." ^ s ^ ".web_outage_s") (u -. d);
            fig7_buckets r.throughput
          | _ -> assert false) );
    ( "fig8a", "Figure 8a: 512 MB file-read throughput before/after the reboot",
      "paper: degradation warm 0%, cold 91% (MiB/s)", before_after "fig8a" "fig8_file" );
    ( "fig8b", "Figure 8b: web-server throughput before/after the reboot",
      "paper: degradation warm 0%, cold 69% (req/s)", before_after "fig8b" "fig8_web" );
    ( "fits", "Section 5.6: fitted downtime model",
      "paper: reboot_vmm(n) = -0.55n + 43, resume(n) = 0.43n - 0.07,\n\
       reboot_os(n) = 3.8n + 13, boot(n) = 3.4n + 2.8, reset_hw = 47\n\
       => r(n) = 3.9n + 60 - 17 alpha; measured:",
      fun () ->
        match show "section_5_6_fits" with
        | Result.Fits f, _ ->
          let rf = Downtime_model.reduction_as_formula f in
          record ~unit_:"s/vm" "fits.reduction.n_slope" rf.n_slope;
          records "fits.reduction."
            [ ("constant", rf.constant); ("alpha_coefficient", rf.alpha_coefficient) ]
        | _ -> assert false );
    ( "policy", "Figure 2: rejuvenation timing (8-week horizon, 1 VM shown)",
      "paper: warm keeps each OS's weekly clock; cold restarts it at each\n\
       4-weekly VMM rejuvenation", print "fig2" );
    ( "fig9", "Figure 9: cluster total throughput (m=4 hosts, p=1)", "",
      fun () ->
        match show "fig9" with
        | Result.Timeline series, _ ->
          let p = Cluster.paper_params () in
          List.iter
            (fun (name, tl) ->
              let lost = Cluster.lost_capacity p tl ~horizon_s:3600.0 in
              pf "%s: lost capacity %.1f host-s over 3600 s@." name lost)
            series
        | _ -> assert false );
    ( "migration", "Section 6 (executed): live migration vs the warm-VM reboot",
      "paper cites Clark et al.: ~72 s to migrate one busy ~1 GiB VM with\n\
       negligible downtime; evacuating 11 such VMs ~ 17 minutes", print "migration" );
    ("ablation", "Ablations: what each design choice buys", "", print "ablation");
    ( "cluster", "Figure 9, measured: rolling rejuvenation of 4 simulated hosts",
      "4 hosts x 3 VMs, blind dispatch, open-loop 100 req/s",
      fun () ->
        let outage (w : Fleet.wave_report) = sprintf "%.0fs" w.wave_makespan_s in
        match show "cluster" with
        | Result.Fleet reports, _ ->
          List.iter
            (fun (r : Fleet.report) ->
              pf "%s: per-host outage %s@." (Wave.strategy_id r.fr_strategy)
                (String.concat "/" (List.map outage r.waves)))
            reports
        | _ -> assert false );
    ( "fleet", "Fleet: 200 hosts, rolling warm waves of 16 under a 0.75 SLO guard", "",
      fun () ->
        match show fleet_cell with
        | Result.Fleet [ r ], [ m ] ->
          pf "(%d sim events, %.2f s wall)@." m.sim_events m.wall_s;
          (* Warm waves never drop projected capacity below the SLO. *)
          gate "fleet.warm.slo_met" r.slo_met;
          record ~unit_:"hosts" "fleet.warm.min_healthy" (float_of_int r.min_healthy);
          record "fleet.warm.makespan_s" r.makespan_s;
          record ~unit_:"fraction" "fleet.warm.loss_ratio" r.loss_ratio;
          record_rate "fleet.events_per_s" ~events:m.sim_events ~wall:m.wall_s
        | _ -> assert false );
    ("parfleet", "Partitioned fleet: the 200-host cell on 1 vs 4 shards", "", parfleet);
    ("memdyn", "Memory dynamics: a saved 1 GiB VM per memdyn mode", "", memdyn);
    ("traffic", "Traffic model: fluid/hybrid aggregation vs per-request", "", traffic);
    ( "sensitivity", "Sensitivity: 2007 testbed vs a 2020s server (8 GiB VMs, n=11)",
      "modern: 128 GiB RAM, NVMe (3 GB/s), 25 GbE, 0.05 s/GiB scrub, long POST\n\
       (~95 s), fast dom0 boot: the warm reboot still wins", print "sensitivity" );
    ( "faults", "Fault matrix: recovery per strategy x injection site", "",
      fun () ->
        match show "fault_matrix" with
        | Result.Fault_matrix cells, _ ->
          let ok = List.filter (fun (c : Fault_matrix.cell) -> c.recovered) cells in
          record ~unit_:"fraction" "faults.recovered_fraction"
            (float_of_int (List.length ok) /. float_of_int (List.length cells))
        | _ -> assert false );
    ("sweep", "Sweep runner: fig4 + fig5 + fig6 on 1 vs 2 domains", "", sweep_runner);
    ("eventcore", "Event core: events/s with/without queue compaction", "", eventcore);
  ]

(* Self-metrics per section: real wall time and the simulated events it
   ran, on this domain and in its sweep cells. Informational. *)
let timed (tag, title, paper, run) =
  pf "@.=== %s ===@." title;
  if paper <> "" then pf "%s@." paper;
  cell_events := 0;
  let ev0 = Engine.domain_events_processed () in
  let (), wall = wall_of run in
  let events = Engine.domain_events_processed () - ev0 + !cell_events in
  record_info ("self." ^ tag ^ ".wall_s") wall;
  record_info ~unit_:"events" ("self." ^ tag ^ ".sim_events") (float_of_int events);
  record_rate ("self." ^ tag ^ ".events_per_s") ~events ~wall

let () =
  let rec parse = function
    | ("-j" | "--jobs") :: n :: rest -> jobs := max 1 (int_of_string n); parse rest
    | ("-o" | "--out") :: path :: rest -> bench_out := path; parse rest
    | tag :: rest -> tag :: parse rest
    | [] -> []
  in
  let tags = List.map (fun (tag, _, _, _) -> tag) sections in
  let requested =
    match parse (List.tl (Array.to_list Sys.argv)) with [] -> tags | l -> l
  in
  pf "RootHammer benchmark harness — Kourai & Chiba, DSN 2007 reproduction@.";
  List.iter
    (fun tag ->
      match List.find_opt (fun (t, _, _, _) -> t = tag) sections with
      | Some section -> timed section
      | None -> pf "unknown section %S (available: %s)@." tag (String.concat ", " tags))
    requested;
  let oc = open_out !bench_out in
  output_string oc (Benchstat.Check.to_json { Benchstat.Check.metrics = !bench_metrics });
  output_char oc '\n';
  close_out oc;
  pf "@.wrote %d metric(s) to %s@." (List.length !bench_metrics) !bench_out
