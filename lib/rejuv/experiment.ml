module Jsonx = Simkit.Jsonx

type reboot_run = {
  strategy : Strategy.t;
  vm_count : int;
  vm_mem_bytes : int;
  pre_task_s : float;
  vmm_reboot_s : float;
  post_task_s : float;
  downtimes : float list;
  downtime_mean_s : float;
  downtime_max_s : float;
  spans : (string * float * float) list;
  saved_image_mib : float;
  restore_lag_s : float;
}

(* Paper-reproduction experiments run with nothing armed on the fault
   plan, so a fault here is a genuine failure: surface it as a raised
   [Fault.Error] for the sweep runner to capture. *)
let strategy_task strategy scenario k =
  Roothammer.rejuvenate scenario ~strategy (fun outcome ->
      match outcome.Recovery.fatal with
      | Some f -> Simkit.Fault.fail f
      | None -> k ())

let span_duration spans label =
  List.fold_left
    (fun acc (l, start, stop) ->
      if String.equal l label then acc +. (stop -. start) else acc)
    0.0 spans

(* Step the engine until the flag is set; stop (and fail) once simulated
   time passes the deadline. Stepping — rather than draining to the
   deadline — stops immediately on completion even with perpetual
   processes (probers, workload generators) in flight. *)
let run_until_done engine ~flag ~deadline =
  while
    (not !flag)
    && Simkit.Engine.now engine <= deadline
    && Simkit.Engine.step engine
  do
    ()
  done;
  if not !flag then
    Simkit.Fault.fail
      (Simkit.Fault.Timeout { what = "experiment"; deadline_s = deadline })

let boot_testbed scenario =
  let started = ref false in
  Scenario.start scenario (fun () -> started := true);
  Simkit.Engine.run (Scenario.engine scenario);
  if not !started then
    Simkit.Fault.fail (Simkit.Fault.Stalled "Experiment testbed start")

(* Experiment entry points keep optional [calibration]/[seed] (absent
   means "the config default"), folded into a [Scenario.Config] here. *)
let scenario_config ?calibration ?seed ?memdyn ~vm_count ~vm_mem_bytes
    ~workload () =
  let cfg =
    { Scenario.Config.default with vm_count; vm_mem_bytes; workload }
  in
  let cfg =
    match calibration with
    | None -> cfg
    | Some calibration -> { cfg with Scenario.Config.calibration }
  in
  let cfg =
    match memdyn with
    | None -> cfg
    | Some memdyn -> { cfg with Scenario.Config.memdyn }
  in
  match seed with None -> cfg | Some seed -> { cfg with Scenario.Config.seed }

let run_reboot ?calibration ?(workload = Scenario.Ssh) ?seed ?memdyn
    ?(settle_s = 20.0) ?(horizon_s = 1200.0) ~strategy ~vm_count
    ~vm_mem_bytes () =
  let scenario =
    Scenario.create
      (scenario_config ?calibration ?seed ?memdyn ~vm_count ~vm_mem_bytes
         ~workload ())
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let probers = Scenario.attach_probers scenario () in
  let finished = ref false in
  ignore
    (Simkit.Engine.schedule engine ~delay:settle_s (fun () ->
         strategy_task strategy scenario (fun () -> finished := true)));
  run_until_done engine ~flag:finished
    ~deadline:(Simkit.Engine.now engine +. settle_s +. horizon_s);
  (* Let the probers observe the recovered services. *)
  Simkit.Engine.run
    ~until:(Simkit.Engine.now engine +. 2.0)
    engine;
  List.iter Netsim.Prober.stop probers;
  List.iter
    (fun v ->
      if not (Scenario.vm_is_up v) then
        Simkit.Fault.fail (Simkit.Fault.Not_recovered (Scenario.vm_name v)))
    (Scenario.vms scenario);
  (* A streamed restore keeps paging cold pages in after the services
     are already answering; drain until every stream completes so
     [restore_lag_s] reports the full demand-paging tail. With memdyn
     off no VM ever has a stream, so this adds zero steps. *)
  let stream_pending () =
    List.exists
      (fun v ->
        Option.is_some (Xenvmm.Domain.mem_stream (Scenario.vm_domain v)))
      (Scenario.vms scenario)
  in
  while stream_pending () && Simkit.Engine.step engine do
    ()
  done;
  let downtimes =
    List.map
      (fun p -> Option.value (Netsim.Prober.longest_outage p) ~default:0.0)
      probers
  in
  let spans = Simkit.Trace.spans (Scenario.trace scenario) in
  let pre_task_s = span_duration spans "pre-reboot tasks" in
  let vmm_reboot_s = span_duration spans "vmm reboot" in
  let post_task_s = span_duration spans "post-reboot tasks" in
  let summary =
    match downtimes with
    | [] -> { Simkit.Stat.count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0 }
    | _ -> Simkit.Stat.summarize downtimes
  in
  let vmm = Scenario.vmm scenario in
  {
    strategy;
    vm_count;
    vm_mem_bytes;
    pre_task_s;
    vmm_reboot_s;
    post_task_s;
    downtimes;
    downtime_mean_s = summary.Simkit.Stat.mean;
    downtime_max_s = summary.Simkit.Stat.max;
    spans;
    saved_image_mib =
      (match Xenvmm.Vmm.last_saved_image vmm with
      | Some img ->
        Simkit.Units.bytes_to_mib (Xenvmm.Image.saved_bytes img)
      | None -> 0.0);
    restore_lag_s = Xenvmm.Vmm.last_restore_lag_s vmm;
  }

(* --- Figures 4 and 5 ---------------------------------------------------- *)

type task_times = {
  x : int;
  onmem_suspend_s : float;
  onmem_resume_s : float;
  xen_save_s : float;
  xen_restore_s : float;
  shutdown_s : float;
  boot_s : float;
}

let task_times_of_runs ~x ~(warm : reboot_run) ~(saved : reboot_run)
    ~(cold : reboot_run) =
  {
    x;
    onmem_suspend_s = span_duration warm.spans "on-memory suspend";
    onmem_resume_s = warm.post_task_s;
    xen_save_s = saved.pre_task_s;
    xen_restore_s = saved.post_task_s;
    shutdown_s = cold.pre_task_s;
    boot_s = cold.post_task_s;
  }

(* One point of Figure 4 or 5: the same testbed rebooted warm, saved
   and cold. *)
let task_times_at ?memdyn ~x ~vm_count ~vm_mem_bytes () =
  let run strategy =
    run_reboot ?memdyn ~strategy ~vm_count ~vm_mem_bytes ()
  in
  task_times_of_runs ~x ~warm:(run Strategy.Warm) ~saved:(run Strategy.Saved)
    ~cold:(run Strategy.Cold)

(* --- Section 5.2 -------------------------------------------------------- *)

type reload_times = { quick_reload_s : float; hardware_reset_s : float }

(* Time from "shutdown script completed" (dom0 down) to "reboot of the
   VMM completed" (ready to boot dom0), with no domain Us. *)
let measure_vmm_reboot ~quick =
  let scenario =
    Scenario.create { Scenario.Config.default with vm_count = 0 }
  in
  let vmm = Scenario.vmm scenario in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let reboot_done = ref nan in
  let start = ref nan in
  Xenvmm.Vmm.shutdown_dom0 vmm (fun () ->
      start := Simkit.Engine.now engine;
      if quick then
        Xenvmm.Vmm.quick_reload vmm (function
          | Ok () -> reboot_done := Simkit.Engine.now engine
          | Error e -> Simkit.Fault.fail e)
      else
        Xenvmm.Vmm.shutdown_vmm vmm (fun () ->
            Xenvmm.Vmm.hardware_reset vmm (fun () ->
                reboot_done := Simkit.Engine.now engine)));
  Simkit.Engine.run engine;
  if Float.is_nan !reboot_done then
    Simkit.Fault.fail (Simkit.Fault.Stalled "VMM reboot");
  !reboot_done -. !start

let quick_reload_effect () =
  {
    quick_reload_s = measure_vmm_reboot ~quick:true;
    hardware_reset_s = measure_vmm_reboot ~quick:false;
  }

(* --- Figure 6 ----------------------------------------------------------- *)

type fig6_row = {
  n : int;
  warm_downtime_s : float;
  saved_downtime_s : float;
  cold_downtime_s : float;
}

let fig6 ?(vm_counts = [ 1; 3; 5; 7; 9; 11 ]) ?memdyn ~workload () =
  List.map
    (fun n ->
      let run strategy =
        (run_reboot ~workload ?memdyn ~strategy ~vm_count:n
           ~vm_mem_bytes:(Simkit.Units.gib 1) ())
          .downtime_mean_s
      in
      {
        n;
        warm_downtime_s = run Strategy.Warm;
        saved_downtime_s = run Strategy.Saved;
        cold_downtime_s = run Strategy.Cold;
      })
    vm_counts

(* --- Section 5.3 -------------------------------------------------------- *)

let run_os_rejuvenation ?(workload = Scenario.Jboss) () =
  let scenario =
    Scenario.create { Scenario.Config.default with vm_count = 1; workload }
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let probers = Scenario.attach_probers scenario () in
  let finished = ref false in
  ignore
    (Simkit.Engine.schedule engine ~delay:10.0 (fun () ->
         match Scenario.vms scenario with
         | [ vm ] ->
           Guest.Kernel.reboot_os (Scenario.vm_kernel vm) (fun () ->
               finished := true)
         | _ -> assert false));
  run_until_done engine ~flag:finished
    ~deadline:(Simkit.Engine.now engine +. 300.0);
  Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 2.0) engine;
  List.iter Netsim.Prober.stop probers;
  match probers with
  | [ p ] -> Option.value (Netsim.Prober.longest_outage p) ~default:0.0
  | _ -> assert false

let availability_table ?(os_downtime_s = 33.6) ~vmm_downtimes () =
  List.map
    (fun (strategy, vmm_downtime_s) ->
      let params =
        {
          (Availability.paper_example strategy ~vmm_downtime_s) with
          Availability.os_rejuv_downtime_s = os_downtime_s;
        }
      in
      (strategy, Availability.availability params))
    vmm_downtimes

(* --- Figure 7 ----------------------------------------------------------- *)

type fig7_result = {
  f7_strategy : Strategy.t;
  reboot_command_at : float;
  throughput : (float * float) list;
  f7_spans : (string * float * float) list;
  web_down_at : float option;
  web_up_at : float option;
  chrome_trace_json : string;
}

let fig7 ~strategy () =
  let workload =
    Scenario.Web { file_count = 1000; file_bytes = Simkit.Units.kib 512;
                   warm_cache = true }
  in
  let scenario =
    Scenario.create { Scenario.Config.default with vm_count = 11; workload }
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let epoch = Simkit.Engine.now engine in
  let target_vm = List.hd (Scenario.vms scenario) in
  let rng = Scenario.rng scenario in
  let request k =
    match Scenario.vm_httpd target_vm with
    | Some httpd -> Guest.Httpd.handle_request httpd ~rng k
    | None -> k false
  in
  let load = Netsim.Httperf.create engine ~connections:4 ~request () in
  Netsim.Httperf.observe (Obs.ambient ()) load;
  let prober =
    Netsim.Prober.create engine ~name:"web"
      ~is_up:(fun () -> Scenario.vm_is_up target_vm)
      ()
  in
  Netsim.Prober.start prober;
  Netsim.Httperf.start load;
  let reboot_delay = 20.0 in
  let finished = ref false in
  ignore
    (Simkit.Engine.schedule engine ~delay:reboot_delay (fun () ->
         strategy_task strategy scenario (fun () -> finished := true)));
  run_until_done engine ~flag:finished ~deadline:(epoch +. 600.0);
  (* Observe the post-reboot recovery (and the warm artifact window). *)
  Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 90.0) engine;
  Netsim.Httperf.stop load;
  Netsim.Prober.stop prober;
  Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 5.0) engine;
  let outage = List.rev (Netsim.Prober.outages prober) in
  let web_down_at, web_up_at =
    match outage with
    | (d, u) :: _ -> (Some (d -. epoch), Some (u -. epoch))
    | [] -> (None, None)
  in
  {
    f7_strategy = strategy;
    reboot_command_at = reboot_delay;
    throughput =
      List.map
        (fun (t, v) -> (t -. epoch, v))
        (Netsim.Httperf.mean_window_throughput load ~every:50);
    f7_spans =
      List.filter_map
        (fun (l, a, b) ->
          if b >= epoch then Some (l, a -. epoch, b -. epoch) else None)
        (Simkit.Trace.spans (Scenario.trace scenario));
    web_down_at;
    web_up_at;
    chrome_trace_json =
      Simkit.Trace.to_chrome_json (Scenario.trace scenario);
  }

(* --- Figure 8 ----------------------------------------------------------- *)

type before_after = {
  first_before : float;
  second_before : float;
  first_after : float;
  second_after : float;
  degradation : float;
}

let degradation_of ~before ~after =
  if before <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (after /. before))

(* Read a 512 MB file twice, returning MiB/s for each pass. *)
let timed_file_reads scenario vm k =
  let engine = Scenario.engine scenario in
  let kernel = Scenario.vm_kernel vm in
  let fs = Guest.Kernel.filesystem kernel in
  let file =
    Guest.Filesystem.create_file fs ~name:"bigfile" ~bytes:(Simkit.Units.mib 512)
      ()
  in
  (* The paper's setup has the file cached before the first pass. *)
  Guest.Filesystem.warm_file fs file;
  let mib = Simkit.Units.bytes_to_mib (Guest.Filesystem.file_bytes file) in
  let t0 = Simkit.Engine.now engine in
  Guest.Filesystem.read fs file ~access:Guest.Filesystem.Sequential (fun () ->
      let t1 = Simkit.Engine.now engine in
      Guest.Filesystem.read fs file ~access:Guest.Filesystem.Sequential
        (fun () ->
          let t2 = Simkit.Engine.now engine in
          k (mib /. Float.max (t1 -. t0) 1e-9, mib /. Float.max (t2 -. t1) 1e-9)))

let fig8_file ~strategy () =
  let scenario =
    Scenario.create
      { Scenario.Config.default with vm_mem_bytes = Simkit.Units.gib 11 }
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let vm = List.hd (Scenario.vms scenario) in
  let result = ref None in
  timed_file_reads scenario vm (fun (b1, b2) ->
      strategy_task strategy scenario (fun () ->
          (* After a cold reboot the kernel (and its cache) is new; the
             file must be re-created on the fresh filesystem, not
             re-warmed — that is the degradation being measured. *)
          let fs = Guest.Kernel.filesystem (Scenario.vm_kernel vm) in
          let file =
            match
              List.find_opt
                (fun f -> Guest.Filesystem.file_name f = "bigfile")
                (Guest.Filesystem.files fs)
            with
            | Some f -> f
            | None ->
              Guest.Filesystem.create_file fs ~name:"bigfile"
                ~bytes:(Simkit.Units.mib 512) ()
          in
          let mib =
            Simkit.Units.bytes_to_mib (Guest.Filesystem.file_bytes file)
          in
          let t0 = Simkit.Engine.now engine in
          Guest.Filesystem.read fs file ~access:Guest.Filesystem.Sequential
            (fun () ->
              let t1 = Simkit.Engine.now engine in
              Guest.Filesystem.read fs file
                ~access:Guest.Filesystem.Sequential (fun () ->
                  let t2 = Simkit.Engine.now engine in
                  result :=
                    Some
                      ( b1,
                        b2,
                        mib /. Float.max (t1 -. t0) 1e-9,
                        mib /. Float.max (t2 -. t1) 1e-9 )))));
  Simkit.Engine.run engine;
  match !result with
  | None -> Simkit.Fault.fail (Simkit.Fault.Stalled "fig8_file")
  | Some (first_before, second_before, first_after, second_after) ->
    {
      first_before;
      second_before;
      first_after;
      second_after;
      degradation = degradation_of ~before:first_before ~after:first_after;
    }

let fig8_web ~strategy () =
  let workload =
    Scenario.Web
      { file_count = 10_000; file_bytes = Simkit.Units.kib 512;
        warm_cache = true }
  in
  let scenario =
    Scenario.create
      {
        Scenario.Config.default with
        vm_mem_bytes = Simkit.Units.gib 11;
        workload;
      }
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let vm = List.hd (Scenario.vms scenario) in
  let rng = Scenario.rng scenario in
  let request k =
    match Scenario.vm_httpd vm with
    | Some httpd -> Guest.Httpd.handle_request httpd ~rng k
    | None -> k false
  in
  let load = Netsim.Httperf.create engine ~connections:10 ~request () in
  Netsim.Httperf.observe (Obs.ambient ()) load;
  Netsim.Httperf.start load;
  let window = 20.0 in
  let epoch = Simkit.Engine.now engine in
  let marks = ref [] in
  (* Two measurement windows before the reboot, then the reboot, then
     two windows after it. *)
  ignore
    (Simkit.Engine.schedule engine ~delay:(2.0 *. window) (fun () ->
         let now = Simkit.Engine.now engine in
         marks := [ ("b1", epoch, epoch +. window); ("b2", epoch +. window, now) ];
         strategy_task strategy scenario (fun () ->
             let up = Simkit.Engine.now engine in
             marks :=
               !marks
               @ [ ("a1", up, up +. window); ("a2", up +. window, up +. (2.0 *. window)) ];
             ignore
               (Simkit.Engine.schedule engine ~delay:(2.0 *. window)
                  (fun () -> Netsim.Httperf.stop load)))));
  Simkit.Engine.run ~until:(epoch +. 1200.0) engine;
  let rate tag =
    match List.find_opt (fun (l, _, _) -> l = tag) !marks with
    | Some (_, lo, hi) -> Netsim.Httperf.throughput_between load ~lo ~hi
    | None ->
      Simkit.Fault.fail
        (Simkit.Fault.Invariant ("fig8_web window " ^ tag ^ " missing"))
  in
  let first_before = rate "b1"
  and second_before = rate "b2"
  and first_after = rate "a1"
  and second_after = rate "a2" in
  {
    first_before;
    second_before;
    first_after;
    second_after;
    degradation = degradation_of ~before:second_before ~after:first_after;
  }

(* --- Section 5.6 -------------------------------------------------------- *)

let section_5_6_fits ?(vm_counts = [ 0; 2; 4; 6; 8; 11 ]) () =
  let warm_points =
    List.map
      (fun n ->
        let r =
          run_reboot ~strategy:Strategy.Warm ~vm_count:n
            ~vm_mem_bytes:(Simkit.Units.gib 1) ()
        in
        (n, r))
      vm_counts
  in
  let cold_points =
    List.filter_map
      (fun n ->
        if n = 0 then None
        else
          Some
            ( n,
              run_reboot ~strategy:Strategy.Cold ~vm_count:n
                ~vm_mem_bytes:(Simkit.Units.gib 1) () ))
      vm_counts
  in
  let reboot_vmm =
    List.map (fun (n, r) -> (float_of_int n, r.vmm_reboot_s)) warm_points
  in
  let resume =
    List.map
      (fun (n, r) ->
        ( float_of_int n,
          r.post_task_s +. span_duration r.spans "on-memory suspend" ))
      warm_points
  in
  let reboot_os =
    List.map
      (fun (n, r) -> (float_of_int n, r.pre_task_s +. r.post_task_s))
      cold_points
  in
  let boot =
    List.map (fun (n, r) -> (float_of_int n, r.post_task_s)) cold_points
  in
  let reset_hw =
    let times = quick_reload_effect () in
    times.hardware_reset_s -. times.quick_reload_s
  in
  Downtime_model.fit ~reboot_vmm ~resume ~reboot_os ~boot ~reset_hw

(* --- Fleet-scale rolling rejuvenation (Section 6, at scale) -------------- *)

(* One grid cell: a fresh fleet on its own (possibly partitioned)
   engine, booted and rolled once. 50 req/s keeps the load stream
   light enough for the largest cells while still measuring lost
   requests. Migrate cells pin to one shard — the spare host and the
   migration link are shared, and the fleet run rejects anything
   else. The report is partition-invariant by construction, so a
   cell's JSON (and its sweep-cache entry) is byte-identical for any
   [partitions]. *)
let fleet_cell ?(partitions = 1) ?(load_rate_per_s = 50.0)
    ?(memdyn = Mem.Memdyn.off) ?(traffic = Netsim.Fluid.default_config) ~seed
    ~hosts ~width ~slo ~strategy () =
  let partitions =
    match (strategy : Wave.strategy) with
    | Wave.Migrate -> 1
    | Wave.Reboot _ -> partitions
  in
  let fleet =
    Fleet.create
      {
        Fleet.Config.default with
        hosts;
        wave_width = width;
        slo;
        host = { Scenario.Config.default with seed; memdyn; traffic };
        load_rate_per_s;
        partitions;
      }
  in
  Fleet.start fleet;
  Fleet.run fleet ~strategy

(* --- Elastic restore: strategy x working set x disk ---------------------- *)

type elastic_row = {
  er_mode : Mem.Memdyn.mode;
  er_working_set : float;
  er_disk : string;
  er_downtime_s : float;
  er_image_mib : float;
  er_restore_lag_s : float;
}

(* The memory-dynamics grid: restore strategy (off / streamed /
   balloon+streamed) x working-set size x disk generation. One VM with
   1 GiB under the saved-reboot strategy isolates the image-size and
   restore-path effects; the 2007 HDD vs modern NVMe axis shows where
   streaming stops mattering. *)
let elastic_grid ~smoke =
  let disks = [ ("hdd2007", Calibration.default); ("nvme", Calibration.modern) ] in
  if smoke then [ (Mem.Memdyn.Stream, 0.35, ("hdd2007", Calibration.default)) ]
  else
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun ws -> List.map (fun d -> (mode, ws, d)) disks)
          [ 0.2; 0.35; 0.6 ])
      [ Mem.Memdyn.Off; Mem.Memdyn.Stream; Mem.Memdyn.Balloon_stream ]

let run_elastic_cell ?seed ~workload (mode, ws, (disk_name, calibration)) =
  let memdyn =
    match (mode : Mem.Memdyn.mode) with
    | Mem.Memdyn.Off -> None
    | m ->
      Some { (Mem.Memdyn.default m) with Mem.Memdyn.working_set_fraction = ws }
  in
  let r =
    run_reboot ~calibration ~workload ?seed ?memdyn ~strategy:Strategy.Saved
      ~vm_count:1
      ~vm_mem_bytes:(Simkit.Units.gib 1)
      ()
  in
  {
    er_mode = mode;
    er_working_set = ws;
    er_disk = disk_name;
    er_downtime_s = r.downtime_max_s;
    er_image_mib = r.saved_image_mib;
    er_restore_lag_s = r.restore_lag_s;
  }

(* --- Elastic traffic: mode x client count x strategy ---------------------- *)

type traffic_row = {
  tw_mode : Netsim.Fluid.mode;
  tw_clients : int;
  tw_strategy : Strategy.t;
  tw_steady_rps : float;
  tw_outage_s : float;
  tw_completed : int;
  tw_failed : int;
  tw_tracer_requests : int;
}

(* The traffic grid: model mode x client population x reboot strategy
   on a Figure 7-shaped cell (Web workload, reboot at t=20s under
   closed-loop load, observe the outage and the recovery). Per-request
   cells stop at 1000 clients — past that, per-request simulation is
   exactly the cost this subsystem exists to avoid; fluid and hybrid
   cells run the same populations and beyond at O(epochs). *)
let traffic_grid ~smoke ~mode ~clients =
  let modes =
    match mode with
    | Some m -> [ m ]
    | None -> [ Netsim.Fluid.Per_request; Netsim.Fluid.Fluid; Netsim.Fluid.Hybrid ]
  in
  let counts = Option.value clients ~default:[ 10; 1000; 100_000 ] in
  let strategies = [ Strategy.Warm; Strategy.Cold ] in
  if smoke then [ (Netsim.Fluid.Hybrid, 1000, Strategy.Warm) ]
  else
    List.concat_map
      (fun m ->
        List.concat_map
          (fun c ->
            List.filter_map
              (fun s ->
                if m = Netsim.Fluid.Per_request && c > 1000 then None
                else Some (m, c, s))
              strategies)
          counts)
      modes

let run_traffic_cell ?seed (mode, clients, strategy) =
  let workload =
    Scenario.Web
      { file_count = 500; file_bytes = Simkit.Units.kib 512; warm_cache = true }
  in
  let traffic =
    {
      Netsim.Fluid.default_config with
      Netsim.Fluid.mode;
      clients;
      tracers = Int.min clients 4;
    }
  in
  let scenario =
    Scenario.create
      {
        Scenario.Config.default with
        vm_count = 2;
        workload;
        traffic;
        seed =
          Option.value seed
            ~default:Scenario.Config.default.Scenario.Config.seed;
      }
  in
  let engine = Scenario.engine scenario in
  boot_testbed scenario;
  let epoch = Simkit.Engine.now engine in
  let target_vm = List.hd (Scenario.vms scenario) in
  let rng = Scenario.rng scenario in
  let request k =
    match Scenario.vm_httpd target_vm with
    | Some httpd -> Guest.Httpd.handle_request httpd ~rng k
    | None -> k false
  in
  (* Server closures re-resolve the httpd through the scenario, so the
     fluid queue follows the fresh instance a cold reboot builds. *)
  let with_httpd f default =
    match Scenario.vm_httpd target_vm with Some h -> f h | None -> default
  in
  let server =
    {
      Netsim.Fluid.srv_is_up = (fun () -> Scenario.vm_is_up target_vm);
      srv_capacity_rps = (fun () -> with_httpd Guest.Httpd.capacity_rps 0.0);
      srv_service_time_s =
        (fun () -> with_httpd Guest.Httpd.service_time_s 0.0);
    }
  in
  let load =
    Netsim.Fluid.create engine ~name:"elastic" ~config:traffic ~request
      ~server ()
  in
  Netsim.Fluid.observe (Obs.ambient ()) load;
  Netsim.Fluid.start load;
  let reboot_delay = 20.0 in
  let finished = ref false in
  ignore
    (Simkit.Engine.schedule engine ~delay:reboot_delay (fun () ->
         strategy_task strategy scenario (fun () -> finished := true)));
  run_until_done engine ~flag:finished ~deadline:(epoch +. 600.0);
  (* Observe the post-reboot recovery, then settle. *)
  Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 60.0) engine;
  Netsim.Fluid.stop load;
  Simkit.Engine.run ~until:(Simkit.Engine.now engine +. 5.0) engine;
  {
    tw_mode = mode;
    tw_clients = clients;
    tw_strategy = strategy;
    tw_steady_rps =
      Netsim.Fluid.throughput_between load ~lo:(epoch +. 5.0)
        ~hi:(epoch +. reboot_delay);
    tw_outage_s = Netsim.Fluid.longest_stall_s load;
    tw_completed = Netsim.Fluid.completed load;
    tw_failed = Netsim.Fluid.failed load;
    tw_tracer_requests = Netsim.Fluid.tracer_requests load;
  }

(* --- Uniform results ----------------------------------------------------- *)

module Result = struct
  type t =
    | Task_times of task_times list
    | Reload of reload_times
    | Fig6 of fig6_row list
    | Fig7 of fig7_result
    | Before_after of before_after
    | Availability of (Strategy.t * float) list
    | Fits of Downtime_model.fits
    | Timeline of (string * (float * float) list) list
    | Scalar of { label : string; value : float }
    | Fault_matrix of Fault_matrix.cell list
    | Fleet of Fleet.report list
    | Elastic of elastic_row list
    | Traffic of traffic_row list

  let kind = function
    | Task_times _ -> "task_times"
    | Reload _ -> "reload"
    | Fig6 _ -> "fig6"
    | Fig7 _ -> "fig7"
    | Before_after _ -> "before_after"
    | Availability _ -> "availability"
    | Fits _ -> "fits"
    | Timeline _ -> "timeline"
    | Scalar _ -> "scalar"
    | Fault_matrix _ -> "fault_matrix"
    | Fleet _ -> "fleet"
    | Elastic _ -> "elastic"
    | Traffic _ -> "traffic"

  let jf f = Jsonx.Float f

  let json_task_times (r : task_times) =
    Jsonx.Obj
      [
        ("x", Jsonx.Int r.x);
        ("onmem_suspend_s", jf r.onmem_suspend_s);
        ("onmem_resume_s", jf r.onmem_resume_s);
        ("xen_save_s", jf r.xen_save_s);
        ("xen_restore_s", jf r.xen_restore_s);
        ("shutdown_s", jf r.shutdown_s);
        ("boot_s", jf r.boot_s);
      ]

  let json_linear (l : Simkit.Stat.linear) =
    Jsonx.Obj
      [ ("slope", jf l.slope); ("intercept", jf l.intercept); ("r2", jf l.r2) ]

  let json_pairs ps =
    Jsonx.Arr (List.map (fun (a, b) -> Jsonx.Arr [ jf a; jf b ]) ps)

  let json_span (l, a, b) =
    Jsonx.Obj [ ("label", Jsonx.Str l); ("start_s", jf a); ("stop_s", jf b) ]

  let json_fault_cell (c : Fault_matrix.cell) =
    Jsonx.Obj
      [
        ("strategy", Jsonx.Str (Strategy.id c.Fault_matrix.fm_strategy));
        ("site", Jsonx.Str c.Fault_matrix.fm_site);
        ("injected", Jsonx.Int c.Fault_matrix.injected);
        ("recovered", Jsonx.Bool c.Fault_matrix.recovered);
        ("completed", Jsonx.Str (Strategy.id c.Fault_matrix.completed));
        ("retries", Jsonx.Int c.Fault_matrix.retries);
        ("domains_lost", Jsonx.Int c.Fault_matrix.domains_lost);
        ("baseline_downtime_s", jf c.Fault_matrix.baseline_downtime_s);
        ("downtime_s", jf c.Fault_matrix.downtime_s);
        ("extra_downtime_s", jf c.Fault_matrix.extra_downtime_s);
      ]

  let json_wave (w : Fleet.wave_report) =
    Jsonx.Obj
      [
        ("index", Jsonx.Int w.Fleet.wave_index);
        ("hosts", Jsonx.Arr (List.map (fun i -> Jsonx.Int i) w.Fleet.wave_hosts));
        ("started_at_s", jf w.Fleet.started_at_s);
        ("makespan_s", jf w.Fleet.wave_makespan_s);
        ("deferred", Jsonx.Int w.Fleet.deferred);
      ]

  let json_fleet (r : Fleet.report) =
    Jsonx.Obj
      [
        ("strategy", Jsonx.Str (Wave.strategy_id r.Fleet.fr_strategy));
        ("hosts", Jsonx.Int r.Fleet.hosts);
        ("wave_width", Jsonx.Int r.Fleet.wave_width);
        ("slo", jf r.Fleet.slo);
        ("slo_floor", Jsonx.Int r.Fleet.slo_floor);
        ("waves", Jsonx.Arr (List.map json_wave r.Fleet.waves));
        ("makespan_s", jf r.Fleet.makespan_s);
        ("offered", Jsonx.Int r.Fleet.offered);
        ("lost", Jsonx.Int r.Fleet.lost);
        ("loss_ratio", jf r.Fleet.loss_ratio);
        ("min_healthy", Jsonx.Int r.Fleet.min_healthy);
        ("mean_healthy", jf r.Fleet.mean_healthy);
        ("slo_met", Jsonx.Bool r.Fleet.slo_met);
        ( "skipped",
          Jsonx.Arr (List.map (fun i -> Jsonx.Int i) r.Fleet.skipped) );
      ]

  let json_elastic (r : elastic_row) =
    Jsonx.Obj
      [
        ("memdyn", Jsonx.Str (Mem.Memdyn.mode_name r.er_mode));
        ("working_set", jf r.er_working_set);
        ("disk", Jsonx.Str r.er_disk);
        ("downtime_s", jf r.er_downtime_s);
        ("image_mib", jf r.er_image_mib);
        ("restore_lag_s", jf r.er_restore_lag_s);
      ]

  let json_traffic (r : traffic_row) =
    Jsonx.Obj
      [
        ("traffic", Jsonx.Str (Netsim.Fluid.mode_name r.tw_mode));
        ("clients", Jsonx.Int r.tw_clients);
        ("strategy", Jsonx.Str (Strategy.id r.tw_strategy));
        ("steady_rps", jf r.tw_steady_rps);
        ("outage_s", jf r.tw_outage_s);
        ("completed", Jsonx.Int r.tw_completed);
        ("failed", Jsonx.Int r.tw_failed);
        ("tracer_requests", Jsonx.Int r.tw_tracer_requests);
      ]

  let to_json_tree t =
    let payload =
      match t with
      | Task_times rows -> Jsonx.Arr (List.map json_task_times rows)
      | Reload r ->
        Jsonx.Obj
          [
            ("quick_reload_s", jf r.quick_reload_s);
            ("hardware_reset_s", jf r.hardware_reset_s);
          ]
      | Fig6 rows ->
        Jsonx.Arr
          (List.map
             (fun (r : fig6_row) ->
               Jsonx.Obj
                 [
                   ("vm_count", Jsonx.Int r.n);
                   ("warm_s", jf r.warm_downtime_s);
                   ("saved_s", jf r.saved_downtime_s);
                   ("cold_s", jf r.cold_downtime_s);
                 ])
             rows)
      | Fig7 r ->
        Jsonx.Obj
          [
            ("strategy", Jsonx.Str (Strategy.id r.f7_strategy));
            ("reboot_command_at", jf r.reboot_command_at);
            ( "web_down_at",
              Option.fold ~none:Jsonx.Null ~some:jf r.web_down_at );
            ("web_up_at", Option.fold ~none:Jsonx.Null ~some:jf r.web_up_at);
            ("throughput", json_pairs r.throughput);
            ("spans", Jsonx.Arr (List.map json_span r.f7_spans));
            ("chrome_trace", Jsonx.Raw r.chrome_trace_json);
          ]
      | Before_after r ->
        Jsonx.Obj
          [
            ("first_before", jf r.first_before);
            ("second_before", jf r.second_before);
            ("first_after", jf r.first_after);
            ("second_after", jf r.second_after);
            ("degradation", jf r.degradation);
          ]
      | Availability rows ->
        Jsonx.Arr
          (List.map
             (fun (s, a) ->
               Jsonx.Obj
                 [
                   ("strategy", Jsonx.Str (Strategy.id s));
                   ("availability", jf a);
                 ])
             rows)
      | Fits f ->
        Jsonx.Obj
          [
            ("reboot_vmm", json_linear f.Downtime_model.reboot_vmm);
            ("resume", json_linear f.Downtime_model.resume);
            ("reboot_os", json_linear f.Downtime_model.reboot_os);
            ("boot", json_linear f.Downtime_model.boot);
            ("reset_hw", jf f.Downtime_model.reset_hw);
          ]
      | Timeline series ->
        Jsonx.Obj
          (List.map (fun (name, tl) -> (name, json_pairs tl)) series)
      | Scalar { label; value } ->
        Jsonx.Obj [ ("label", Jsonx.Str label); ("value", jf value) ]
      | Fault_matrix cells -> Jsonx.Arr (List.map json_fault_cell cells)
      | Fleet reports -> Jsonx.Arr (List.map json_fleet reports)
      | Elastic rows -> Jsonx.Arr (List.map json_elastic rows)
      | Traffic rows -> Jsonx.Arr (List.map json_traffic rows)
    in
    Jsonx.Obj [ ("kind", Jsonx.Str (kind t)); ("data", payload) ]

  let to_json t = Jsonx.to_string (to_json_tree t)

  let fl v = Printf.sprintf "%.6g" v

  let csv = function
    | Task_times rows ->
      ( [
          "x"; "onmem_suspend_s"; "onmem_resume_s"; "xen_save_s";
          "xen_restore_s"; "shutdown_s"; "boot_s";
        ],
        List.map
          (fun (r : task_times) ->
            [
              string_of_int r.x; fl r.onmem_suspend_s; fl r.onmem_resume_s;
              fl r.xen_save_s; fl r.xen_restore_s; fl r.shutdown_s;
              fl r.boot_s;
            ])
          rows )
    | Reload r ->
      ( [ "quick_reload_s"; "hardware_reset_s" ],
        [ [ fl r.quick_reload_s; fl r.hardware_reset_s ] ] )
    | Fig6 rows ->
      ( [ "vm_count"; "warm_s"; "saved_s"; "cold_s" ],
        List.map
          (fun (r : fig6_row) ->
            [
              string_of_int r.n; fl r.warm_downtime_s; fl r.saved_downtime_s;
              fl r.cold_downtime_s;
            ])
          rows )
    | Fig7 r ->
      ( [ "time_s"; "req_per_s" ],
        List.map (fun (t, v) -> [ fl t; fl v ]) r.throughput )
    | Before_after r ->
      ( [
          "first_before"; "second_before"; "first_after"; "second_after";
          "degradation";
        ],
        [
          [
            fl r.first_before; fl r.second_before; fl r.first_after;
            fl r.second_after; fl r.degradation;
          ];
        ] )
    | Availability rows ->
      ( [ "strategy"; "availability" ],
        List.map (fun (s, a) -> [ Strategy.id s; Printf.sprintf "%.8f" a ]) rows
      )
    | Fits f ->
      let line name (l : Simkit.Stat.linear) =
        [ name; fl l.slope; fl l.intercept; fl l.r2 ]
      in
      ( [ "component"; "slope"; "intercept"; "r2" ],
        [
          line "reboot_vmm" f.Downtime_model.reboot_vmm;
          line "resume" f.Downtime_model.resume;
          line "reboot_os" f.Downtime_model.reboot_os;
          line "boot" f.Downtime_model.boot;
          [ "reset_hw"; ""; fl f.Downtime_model.reset_hw; "" ];
        ] )
    | Timeline series ->
      ( [ "series"; "time_s"; "value" ],
        List.concat_map
          (fun (name, tl) ->
            List.map (fun (t, v) -> [ name; fl t; fl v ]) tl)
          series )
    | Scalar { label; value } ->
      ([ "label"; "value" ], [ [ label; fl value ] ])
    | Fault_matrix cells ->
      ( [
          "strategy"; "site"; "injected"; "recovered"; "completed"; "retries";
          "domains_lost"; "baseline_downtime_s"; "downtime_s";
          "extra_downtime_s";
        ],
        List.map
          (fun (c : Fault_matrix.cell) ->
            [
              Strategy.id c.Fault_matrix.fm_strategy;
              c.Fault_matrix.fm_site;
              string_of_int c.Fault_matrix.injected;
              string_of_bool c.Fault_matrix.recovered;
              Strategy.id c.Fault_matrix.completed;
              string_of_int c.Fault_matrix.retries;
              string_of_int c.Fault_matrix.domains_lost;
              fl c.Fault_matrix.baseline_downtime_s;
              fl c.Fault_matrix.downtime_s;
              fl c.Fault_matrix.extra_downtime_s;
            ])
          cells )
    | Fleet reports ->
      ( [
          "strategy"; "hosts"; "wave_width"; "slo"; "slo_floor"; "waves";
          "makespan_s"; "offered"; "lost"; "loss_ratio"; "min_healthy";
          "mean_healthy"; "slo_met"; "skipped";
        ],
        List.map
          (fun (r : Fleet.report) ->
            [
              Wave.strategy_id r.Fleet.fr_strategy;
              string_of_int r.Fleet.hosts;
              string_of_int r.Fleet.wave_width;
              fl r.Fleet.slo;
              string_of_int r.Fleet.slo_floor;
              string_of_int (List.length r.Fleet.waves);
              fl r.Fleet.makespan_s;
              string_of_int r.Fleet.offered;
              string_of_int r.Fleet.lost;
              fl r.Fleet.loss_ratio;
              string_of_int r.Fleet.min_healthy;
              fl r.Fleet.mean_healthy;
              string_of_bool r.Fleet.slo_met;
              string_of_int (List.length r.Fleet.skipped);
            ])
          reports )
    | Elastic rows ->
      ( [
          "memdyn"; "working_set"; "disk"; "downtime_s"; "image_mib";
          "restore_lag_s";
        ],
        List.map
          (fun (r : elastic_row) ->
            [
              Mem.Memdyn.mode_name r.er_mode;
              fl r.er_working_set;
              r.er_disk;
              fl r.er_downtime_s;
              fl r.er_image_mib;
              fl r.er_restore_lag_s;
            ])
          rows )
    | Traffic rows ->
      ( [
          "traffic"; "clients"; "strategy"; "steady_rps"; "outage_s";
          "completed"; "failed"; "tracer_requests";
        ],
        List.map
          (fun (r : traffic_row) ->
            [
              Netsim.Fluid.mode_name r.tw_mode;
              string_of_int r.tw_clients;
              Strategy.id r.tw_strategy;
              fl r.tw_steady_rps;
              fl r.tw_outage_s;
              string_of_int r.tw_completed;
              string_of_int r.tw_failed;
              string_of_int r.tw_tracer_requests;
            ])
          rows )

  let pp ppf t =
    let pf fmt = Format.fprintf ppf fmt in
    match t with
    | Task_times rows ->
      pf "%-6s %12s %12s %12s %12s %12s %12s@." "x" "onmem-susp" "onmem-res"
        "xen-save" "xen-restore" "shutdown" "boot";
      List.iter
        (fun (r : task_times) ->
          pf "%-6d %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f@." r.x
            r.onmem_suspend_s r.onmem_resume_s r.xen_save_s r.xen_restore_s
            r.shutdown_s r.boot_s)
        rows
    | Reload r ->
      pf "quick reload %.1f s, hardware reset %.1f s@." r.quick_reload_s
        r.hardware_reset_s
    | Fig6 rows ->
      pf "%-6s %10s %10s %10s@." "VMs" "warm" "saved" "cold";
      List.iter
        (fun (r : fig6_row) ->
          pf "%-6d %10.1f %10.1f %10.1f@." r.n r.warm_downtime_s
            r.saved_downtime_s r.cold_downtime_s)
        rows
    | Fig7 r ->
      pf "%a: reboot command at t=%.0f s, %d throughput windows@." Strategy.pp
        r.f7_strategy r.reboot_command_at
        (List.length r.throughput);
      (match (r.web_down_at, r.web_up_at) with
      | Some d, Some u ->
        pf "web server down %.1f .. %.1f s (outage %.1f s)@." d u (u -. d)
      | _ -> pf "web server never observed down@.");
      List.iter
        (fun (l, a, b) -> pf "span %-28s %8.1f .. %8.1f s@." l a b)
        r.f7_spans
    | Before_after r ->
      pf "before %.1f/%.1f after %.1f/%.1f  degradation %.0f%%@."
        r.first_before r.second_before r.first_after r.second_after
        (100.0 *. r.degradation)
    | Availability rows ->
      List.iter
        (fun (s, a) ->
          pf "%-16s %a (%d nines)@." (Strategy.name s) Availability.pp_percent
            a (Availability.nines a))
        rows
    | Fits f -> Downtime_model.pp ppf f
    | Timeline series ->
      List.iter
        (fun (name, tl) ->
          pf "%s:@." name;
          List.iter (fun (t, v) -> pf "%8.0f %8.2f@." t v) tl)
        series
    | Scalar { label; value } -> pf "%s = %.2f@." label value
    | Fault_matrix cells ->
      pf "%-8s %-20s %5s %9s %-9s %7s %5s %8s@." "strategy" "site" "fired"
        "recovered" "completed" "retries" "lost" "extra-s";
      List.iter
        (fun (c : Fault_matrix.cell) ->
          pf "%-8s %-20s %5d %9b %-9s %7d %5d %8.1f@."
            (Strategy.id c.fm_strategy) c.fm_site c.injected c.recovered
            (Strategy.id c.completed) c.retries c.domains_lost
            c.extra_downtime_s)
        cells
    | Fleet reports ->
      pf "%-8s %6s %6s %5s %6s %10s %8s %8s %7s %7s %5s@." "strategy" "hosts"
        "width" "waves" "floor" "makespan-s" "offered" "lost" "loss-%"
        "min-up" "slo";
      List.iter
        (fun (r : Fleet.report) ->
          pf "%-8s %6d %6d %5d %6d %10.1f %8d %8d %7.2f %7d %5s%s@."
            (Wave.strategy_id r.fr_strategy)
            r.hosts r.wave_width (List.length r.waves) r.slo_floor r.makespan_s
            r.offered r.lost
            (100.0 *. r.loss_ratio)
            r.min_healthy
            (if r.slo_met then "met" else "MISS")
            (match r.skipped with
            | [] -> ""
            | s -> Printf.sprintf "  (%d skipped)" (List.length s)))
        reports
    | Elastic rows ->
      pf "%-16s %6s %-8s %10s %10s %10s@." "memdyn" "ws" "disk" "downtime-s"
        "image-MiB" "lag-s";
      List.iter
        (fun (r : elastic_row) ->
          pf "%-16s %6.2f %-8s %10.2f %10.1f %10.2f@."
            (Mem.Memdyn.mode_name r.er_mode)
            r.er_working_set r.er_disk r.er_downtime_s r.er_image_mib
            r.er_restore_lag_s)
        rows
    | Traffic rows ->
      pf "%-12s %9s %-8s %10s %8s %10s %10s %8s@." "traffic" "clients"
        "strategy" "steady-rps" "outage-s" "completed" "failed" "tracer";
      List.iter
        (fun (r : traffic_row) ->
          pf "%-12s %9d %-8s %10.1f %8.1f %10d %10d %8d@."
            (Netsim.Fluid.mode_name r.tw_mode)
            r.tw_clients (Strategy.id r.tw_strategy) r.tw_steady_rps
            r.tw_outage_s r.tw_completed r.tw_failed r.tw_tracer_requests)
        rows

  (* Cell results of one experiment concatenate; scalar-like results
     only "merge" when the batch produced exactly one of them. *)
  let merge = function
    | [] -> invalid_arg "Experiment.Result.merge: empty"
    | first :: rest ->
      List.fold_left
        (fun acc r ->
          match (acc, r) with
          | Task_times a, Task_times b -> Task_times (a @ b)
          | Fig6 a, Fig6 b -> Fig6 (a @ b)
          | Timeline a, Timeline b -> Timeline (a @ b)
          | Availability a, Availability b -> Availability (a @ b)
          | Fault_matrix a, Fault_matrix b -> Fault_matrix (a @ b)
          | Fleet a, Fleet b -> Fleet (a @ b)
          | Elastic a, Elastic b -> Elastic (a @ b)
          | Traffic a, Traffic b -> Traffic (a @ b)
          | _ ->
            invalid_arg
              (Printf.sprintf "Experiment.Result.merge: cannot merge %s + %s"
                 (kind acc) (kind r)))
        first rest
end

(* --- The experiment registry --------------------------------------------- *)

module Spec = struct
  type params = {
    seed : int;
    workload : Scenario.workload;
    strategy : Strategy.t;
    vm_counts : int list option;
    mem_gib : int list option;
    smoke : bool;
    partitions : int;
        (* shards a fleet cell runs on. Deliberately absent from
           [params_key]: a fleet run is byte-identical for every
           partition count (that invariant is test-gated), so the
           sweep cache may serve a cell computed at any partitioning. *)
    memdyn : Mem.Memdyn.mode;
        (* memory-dynamics mode for fig4 / fig5 / fig6 / fleet_rolling;
           the other knobs stay at [Mem.Memdyn.default]. *)
    traffic : Netsim.Fluid.mode option;
        (* traffic model for [elastic_traffic] / [fleet_rolling];
           [None] = the experiment's own default axis. *)
    clients : int list option;
        (* client-population axis for [elastic_traffic]. *)
  }

  let default_params =
    {
      seed = 42;
      workload = Scenario.Ssh;
      strategy = Strategy.Warm;
      vm_counts = None;
      mem_gib = None;
      smoke = false;
      partitions = 1;
      memdyn = Mem.Memdyn.Off;
      traffic = None;
      clients = None;
    }

  let ints_key = function
    | None -> "default"
    | Some xs -> String.concat "," (List.map string_of_int xs)

  let params_key p =
    Printf.sprintf
      "seed=%d;workload=%s;strategy=%s;vm_counts=%s;mem_gib=%s;smoke=%b;memdyn=%s;traffic=%s;clients=%s"
      p.seed
      (Scenario.workload_name p.workload)
      (Strategy.id p.strategy) (ints_key p.vm_counts) (ints_key p.mem_gib)
      p.smoke
      (Mem.Memdyn.mode_name p.memdyn)
      (Option.fold ~none:"default" ~some:Netsim.Fluid.mode_name p.traffic)
      (ints_key p.clients)

  type nonrec t = {
    id : string;
    doc : string;
    cells : params -> (string * (unit -> Result.t)) list;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16 (* simlint: allow D011 populated once at module init; read-only during runs *)

  let register spec =
    if Hashtbl.mem registry spec.id then
      invalid_arg ("Experiment.Spec.register: duplicate id " ^ spec.id);
    Hashtbl.replace registry spec.id spec

  let find id = Hashtbl.find_opt registry id

  let all () =
    Hashtbl.fold (fun _ s acc -> s :: acc) registry []
    |> List.sort (fun a b -> String.compare a.id b.id)

  let ids () = List.map (fun s -> s.id) (all ())

  let find_exn id =
    match find id with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" id
           (String.concat ", " (ids ())))
end

let default_sweep_counts = [ 1; 3; 5; 7; 9; 11 ]

(* The fleet grid: fleet size x wave width x wave strategy. [smoke]
   shrinks it to one small warm cell for CI. *)
let fleet_grid ~smoke =
  if smoke then [ (12, 3, Wave.Reboot Strategy.Warm) ]
  else
    List.concat_map
      (fun h ->
        List.concat_map
          (fun w -> List.map (fun s -> (h, w, s)) Wave.all_strategies)
          [ 4; 16 ])
      [ 50; 200 ]

(* Spec params carry only the memdyn [mode]; the remaining knobs are
   the defaults. [Off] maps to [None] so an off-mode run is the exact
   pre-memdyn code path. *)
let memdyn_of_params (p : Spec.params) =
  match p.Spec.memdyn with
  | Mem.Memdyn.Off -> None
  | mode -> Some (Mem.Memdyn.default mode)

let () =
  (* A one-cell experiment's cell is keyed by its id; a grid keys each
     cell by the id and its grid point. A cell captures only the params
     and its grid point, both immutable, so any domain may run it. *)
  let single id doc run =
    { Spec.id; doc; cells = (fun p -> [ (id, fun () -> run p) ]) }
  in
  let grid id doc ~key ~points run =
    {
      Spec.id;
      doc;
      cells =
        (fun p ->
          List.map (fun x -> (id ^ "/" ^ key x, fun () -> run p x)) (points p));
    }
  in
  List.iter Spec.register
    [
      grid "fig4" "Task times vs memory size of one VM (Figure 4)"
        ~key:(Printf.sprintf "mem=%02d")
        ~points:(fun p ->
          Option.value p.Spec.mem_gib ~default:default_sweep_counts)
        (fun p gib ->
          Result.Task_times
            [
              task_times_at ?memdyn:(memdyn_of_params p) ~x:gib ~vm_count:1
                ~vm_mem_bytes:(Simkit.Units.gib gib) ();
            ]);
      grid "fig5" "Task times vs number of VMs (Figure 5)"
        ~key:(Printf.sprintf "vms=%02d")
        ~points:(fun p ->
          Option.value p.Spec.vm_counts ~default:default_sweep_counts)
        (fun p n ->
          Result.Task_times
            [
              task_times_at ?memdyn:(memdyn_of_params p) ~x:n ~vm_count:n
                ~vm_mem_bytes:(Simkit.Units.gib 1) ();
            ]);
      grid "fig6" "Downtime of networked services (Figure 6)"
        ~key:(Printf.sprintf "vms=%02d")
        ~points:(fun p ->
          Option.value p.Spec.vm_counts ~default:default_sweep_counts)
        (fun p n ->
          Result.Fig6
            (fig6 ~vm_counts:[ n ] ?memdyn:(memdyn_of_params p)
               ~workload:p.Spec.workload ()));
      single "quick_reload" "Effect of quick reload (Section 5.2)" (fun _ ->
          Result.Reload (quick_reload_effect ()));
      single "os_rejuvenation"
        "Downtime of one guest-OS rejuvenation (Section 5.3)" (fun _ ->
          Result.Scalar
            {
              label = "os_rejuvenation_downtime_s";
              value = run_os_rejuvenation ();
            });
      single "availability" "Availability table (Section 5.3)" (fun _ ->
          let os_downtime_s = run_os_rejuvenation () in
          match fig6 ~vm_counts:[ 11 ] ~workload:Scenario.Jboss () with
          | [ row ] ->
            Result.Availability
              (availability_table ~os_downtime_s
                 ~vmm_downtimes:
                   [
                     (Strategy.Warm, row.warm_downtime_s);
                     (Strategy.Cold, row.cold_downtime_s);
                     (Strategy.Saved, row.saved_downtime_s);
                   ]
                 ())
          | _ -> assert false);
      single "fig7" "Web throughput timeline during the reboot (Figure 7)"
        (fun p -> Result.Fig7 (fig7 ~strategy:p.Spec.strategy ()));
      single "fig8_file"
        "File-read throughput before/after the reboot (Figure 8a)" (fun p ->
          Result.Before_after (fig8_file ~strategy:p.Spec.strategy ()));
      single "fig8_web" "Web throughput before/after the reboot (Figure 8b)"
        (fun p -> Result.Before_after (fig8_web ~strategy:p.Spec.strategy ()));
      single "section_5_6_fits" "Fitted downtime model (Section 5.6)"
        (fun p -> Result.Fits (section_5_6_fits ?vm_counts:p.Spec.vm_counts ()));
      single "fig9" "Cluster throughput model (Figure 9 / Section 6)" (fun _ ->
          let p = Cluster.paper_params () in
          Result.Timeline
            [
              ("warm", Cluster.warm_timeline p ~reboot_at:600.0);
              ("cold", Cluster.cold_timeline p ~reboot_at:600.0);
              ("migration", Cluster.migration_timeline p ~migrate_at:600.0);
            ]);
      grid "fault_matrix"
        "Recovery success per strategy x injection site (fault campaign)"
        ~key:(fun (s, site) ->
          Printf.sprintf "s=%s/site=%s" (Strategy.id s) site)
        ~points:(fun p ->
          if p.Spec.smoke then Fault_matrix.smoke_grid else Fault_matrix.grid)
        (fun p (strategy, site) ->
          Result.Fault_matrix
            [ Fault_matrix.run_cell ~seed:p.Spec.seed ~strategy ~site () ]);
      grid "fleet_rolling"
        "Fleet-scale rolling rejuvenation: fleet size x wave width x \
         strategy"
        ~key:(fun (h, w, s) ->
          Printf.sprintf "h=%04d/w=%03d/s=%s" h w (Wave.strategy_id s))
        ~points:(fun p -> fleet_grid ~smoke:p.Spec.smoke)
        (fun p (hosts, width, strategy) ->
          Result.Fleet
            [
              fleet_cell ~partitions:p.Spec.partitions
                ?memdyn:(memdyn_of_params p)
                ?traffic:
                  (Option.map
                     (fun mode ->
                       { Netsim.Fluid.default_config with Netsim.Fluid.mode })
                     p.Spec.traffic)
                ~seed:p.Spec.seed ~hosts ~width ~slo:0.75 ~strategy ();
            ]);
      grid "elastic_restore"
        "Saved-reboot restore: memdyn mode x working-set size x disk \
         generation"
        ~key:(fun (mode, ws, (disk_name, _)) ->
          Printf.sprintf "m=%s/ws=%03d/d=%s"
            (Mem.Memdyn.mode_name mode)
            (int_of_float ((ws *. 100.0) +. 0.5))
            disk_name)
        ~points:(fun p -> elastic_grid ~smoke:p.Spec.smoke)
        (fun p c ->
          Result.Elastic
            [ run_elastic_cell ~seed:p.Spec.seed ~workload:p.Spec.workload c ]);
      grid "elastic_traffic"
        "Traffic-model grid: per-request / fluid / hybrid x client \
         population x reboot strategy on a fig7-shaped cell"
        ~key:(fun (mode, clients, strategy) ->
          Printf.sprintf "m=%s/c=%07d/s=%s"
            (Netsim.Fluid.mode_name mode)
            clients (Strategy.id strategy))
        ~points:(fun p ->
          traffic_grid ~smoke:p.Spec.smoke ~mode:p.Spec.traffic
            ~clients:p.Spec.clients)
        (fun p c -> Result.Traffic [ run_traffic_cell ~seed:p.Spec.seed c ]);
    ]

(* --- Running experiments ------------------------------------------------- *)

let run ?(params = Spec.default_params) id =
  Result.merge
    (List.map (fun (_, cell) -> cell ()) ((Spec.find_exn id).Spec.cells params))

(* Each requested experiment's cells as runner tasks, in cell order. *)
let tasks_by_id ~params ids =
  List.iter
    (fun id ->
      if List.length (List.filter (String.equal id) ids) > 1 then
        invalid_arg (Printf.sprintf "Experiment.sweep: %S requested twice" id))
    ids;
  let params_key = Spec.params_key params in
  List.map
    (fun id ->
      ( id,
        List.map
          (fun (key, run) ->
            {
              Runner.Sweep.key;
              cache_key =
                Some
                  (Runner.Cache.key ~id:key ~params:params_key
                     ~seed:params.Spec.seed);
              run;
            })
          ((Spec.find_exn id).Spec.cells params) ))
    ids

let sweep_tasks ?(params = Spec.default_params) ids =
  List.concat_map snd (tasks_by_id ~params ids)

let sweep ?jobs ?cache ?verify_isolation ?(params = Spec.default_params) ids =
  let by_id = tasks_by_id ~params ids in
  let outcomes =
    Runner.Sweep.run ?jobs ?cache ?verify_isolation (List.concat_map snd by_id)
  in
  let value (t : Result.t Runner.Sweep.task) =
    (List.find
       (fun (o : Result.t Runner.Sweep.outcome) -> String.equal o.key t.key)
       outcomes)
      .value
  in
  let merged =
    List.map
      (fun (id, tasks) ->
        let values = List.map value tasks in
        (* A faulted cell poisons its experiment (the first fault in
           cell order wins); the other experiments still merge. *)
        match
          List.find_map (function Error f -> Some f | Ok _ -> None) values
        with
        | Some f -> (id, Error f)
        | None ->
          (id, Ok (Result.merge (List.filter_map Stdlib.Result.to_option values))))
      by_id
  in
  (merged, outcomes)
