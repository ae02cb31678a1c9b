(* web_reboot: Figure 7's consolidated host, run as one long-lived
   scenario. 11 VMs of 1 GiB serve 1000 x 512 KiB documents from a warm
   page cache; a closed loop of 4 Httperf connections drives VM 1. One op
   is a 40-s simulated steady window, one VMM rejuvenation and a 40-s
   recovery window; ops alternate warm and cold, so the cache is seen
   both all-hit and refilling from disk. A round is one warm op and one
   cold op. Runs on one domain.

   The testbed is Figure 7's own, built from the scenario's default seed;
   --seed picks the request stream, i.e. which document each request
   asks for. *)

open Rejuv

let setups = 5
let window_s = 40.0

let workload =
  Scenario.Web
    { file_count = 1000; file_bytes = Simkit.Units.kib 512; warm_cache = true }

let build () =
  let sc =
    Harness.call "rejuv.scenario_create" (fun () ->
        Scenario.create { Scenario.Config.default with vm_count = 11; workload })
  in
  Harness.call "guest.boot" (fun () -> Roothammer.start_and_run sc);
  sc

let vm1 sc = List.hd (Scenario.vms sc)
let cache_of sc = Guest.Kernel.page_cache (Scenario.vm_kernel (vm1 sc))

(* The request closure Httperf calls. Untraced it is exactly Figure 7's;
   traced it also spans the synchronous [handle_request] walk and the
   continuation Httperf handed over, and counts page-cache lookups
   around the walk (they all happen inside it). *)
let next_req = ref 0

let request sc ~rng ~traced =
  let vm = vm1 sc in
  if not traced then fun k ->
    match Scenario.vm_httpd vm with
    | Some httpd -> Guest.Httpd.handle_request httpd ~rng k
    | None -> k false
  else fun k ->
    let req = !next_req in
    incr next_req;
    let k ok =
      Tracer.span ~req "netsim.httperf.continue" (fun () ->
          if ok then Harness.addi "guest.requests_served" 1;
          k ok)
    in
    match Scenario.vm_httpd vm with
    | None -> k false
    | Some httpd ->
      let cache = cache_of sc in
      let h0 = Guest.Page_cache.hits cache in
      let m0 = Guest.Page_cache.misses cache in
      Tracer.span ~req "guest.handle_request" (fun () ->
          Guest.Httpd.handle_request httpd ~rng k);
      Harness.addi "guest.page_cache.hits" (Guest.Page_cache.hits cache - h0);
      Harness.addi "guest.page_cache.misses"
        (Guest.Page_cache.misses cache - m0)

let engine_run sc ~for_s =
  let e = Scenario.engine sc in
  Harness.queue_around (fun () -> [ e ]) (fun () ->
      Harness.call "simkit.engine_run" (fun () ->
          Simkit.Engine.run ~until:(Simkit.Engine.now e +. for_s) e))

type op_out = {
  op : Harness.op;
  stop_after_cmd_s : float;  (** web down, seconds after the reboot command *)
  outage_s : float;
  regions : (string * float) list;  (** host seconds of each phase *)
}

let fmt_f = Printf.sprintf "%h"

let run_op sc ~rng ~i ~traced =
  Tracer.op := i;
  let strategy = if i mod 2 = 0 then Strategy.Warm else Strategy.Cold in
  let kind = Strategy.id strategy in
  let engine = Scenario.engine sc in
  let vm = vm1 sc in
  let disk = (Scenario.host sc).Hw.Host.disk in
  let read0 = Hw.Disk.bytes_read disk in
  let written0 = Hw.Disk.bytes_written disk in
  let load =
    Netsim.Httperf.create engine ~connections:4
      ~request:(request sc ~rng ~traced) ()
  in
  let prober =
    Netsim.Prober.create engine ~name:"web"
      ~is_up:(fun () -> Scenario.vm_is_up vm)
      ()
  in
  let t0 = Simkit.Engine.now engine in
  Netsim.Prober.start prober;
  Netsim.Httperf.start load;
  let (), steady =
    Harness.timed ~phase:"run" (fun () -> engine_run sc ~for_s:window_s)
  in
  let cmd_at = Simkit.Engine.now engine in
  let (_, outcome), reboot =
    Harness.timed ~phase:"run" (fun () ->
        Harness.queue_around (fun () -> [ engine ]) (fun () ->
            Harness.call ("xenvmm.reboot." ^ kind) (fun () ->
                Roothammer.rejuvenate_measured sc ~strategy)))
  in
  let (), recovery =
    Harness.timed ~phase:"run" (fun () -> engine_run sc ~for_s:window_s)
  in
  Harness.addi "hw.disk.bytes_read" (Hw.Disk.bytes_read disk - read0);
  Harness.addi "hw.disk.bytes_written" (Hw.Disk.bytes_written disk - written0);
  Netsim.Httperf.stop load;
  Netsim.Prober.stop prober;
  let completed = Netsim.Httperf.completed load in
  let failed = Netsim.Httperf.failed load in
  Harness.addi "netsim.httperf.completed" completed;
  Harness.addi "netsim.httperf.failed" failed;
  let outage =
    List.find_opt (fun (d, _) -> d >= cmd_at) (Netsim.Prober.outages prober)
  in
  let rel x = fmt_f (x -. t0) in
  let spans =
    List.filter_map
      (fun (l, a, b) ->
        if a >= t0 then Some (Printf.sprintf "%s:%s:%s" l (rel a) (rel b))
        else None)
      (Simkit.Trace.spans (Scenario.trace sc))
  in
  let summary =
    Printf.sprintf
      "strategy=%s completed=%d failed=%d via=%s retries=%d outage=%s spans=%s"
      kind completed failed
      (Strategy.id outcome.Recovery.completed)
      outcome.Recovery.retries
      (match outage with
      | Some (d, u) -> rel d ^ ".." ^ rel u
      | None -> "none")
      (String.concat ";" spans)
  in
  let error =
    match (outcome.Recovery.fatal, outage) with
    | Some f, _ -> Some ("reboot not recovered: " ^ Simkit.Fault.to_string f)
    | None, None -> Some "no completed web outage around the reboot"
    | None, Some _ ->
      if not (List.for_all Scenario.vm_is_up (Scenario.vms sc)) then
        Some "a VM is down after the recovery window"
      else (
        match Guest.Page_cache.check_invariants (cache_of sc) with
        | Error e -> Some ("VM 1 page cache: " ^ e)
        | Ok () -> None)
  in
  let stop_after_cmd_s, outage_s =
    match outage with Some (d, u) -> (d -. cmd_at, u -. d) | None -> (nan, nan)
  in
  {
    op = { Harness.digest = Harness.digest_of summary; error };
    stop_after_cmd_s;
    outage_s;
    regions =
      [
        (kind ^ ".steady", steady);
        (kind ^ ".reboot", reboot);
        (kind ^ ".recovery", recovery);
      ];
  }

let failed_op i why =
  {
    op = Harness.bad (Printf.sprintf "op %d faulted" i) why;
    stop_after_cmd_s = nan;
    outage_s = nan;
    regions = [];
  }

(* Layers web_reboot has no call boundary into, reported as 0: it runs
   one plain engine with per-request traffic, reboots only warm and
   cold, and uses neither the runner, the fleet nor the elastic-restore
   experiment. *)
let not_applicable =
  [
    "simkit.par.rounds";
    "simkit.par.barrier_waits";
    "simkit.par.messages";
    "simkit.par.quantum_ticks";
    "netsim.traffic.completed";
    "netsim.traffic.offered";
    "xenvmm.reboot_s.saved";
    "xenvmm.reboot_events.saved";
    "mem.task_s";
    "rejuv.fleet.create_s";
    "rejuv.fleet.start_s";
    "rejuv.fleet.run_s";
    "rejuv.fleet.waves";
    "rejuv.fleet.deferred";
    "runner.tasks";
    "runner.faulted";
    "runner.busy_s";
    "runner.utilization";
    "runner.overhead_s";
    "runner.task_p50_s";
    "runner.task_p90_s";
  ]
  @ List.map (fun id -> "rejuv.task_p50_s." ^ id) Vmm_sweep.experiment_ids

let run ~seed ~seconds ~trace =
  let scenario = ref None in
  let setups =
    Harness.repeat setups (fun () ->
        (* Drop the previous testbed first, with the ambient registry
           whose gauges would keep it alive, so every set-up starts from
           the same heap and the peak RSS counts one testbed. *)
        scenario := None;
        ignore (Obs.reset_ambient ());
        Gc.compact ();
        Tracer.on := trace;
        let sc, region = Harness.timed ~phase:"setup" build in
        Tracer.on := false;
        scenario := Some sc;
        region)
  in
  let sc = Option.get !scenario in
  let rng = Simkit.Rng.create seed in
  let obs_metrics = Obs.Registry.cardinality (Obs.ambient ()) in
  let first = ref [] in
  let rounds =
    Harness.run_rounds ~trace ~seconds ~min_rounds:3 (fun ~round ~traced ->
        let pair =
          List.map
            (fun i ->
              try run_op sc ~rng ~i ~traced
              with Simkit.Fault.Error f -> failed_op i (Simkit.Fault.to_string f))
            [ 2 * round; (2 * round) + 1 ]
        in
        let regions = List.concat_map (fun o -> o.regions) pair in
        let pair =
          match pair with
          | [ w; c ] when Float.is_nan w.outage_s || Float.is_nan c.outage_s ->
            pair
          | [ w; c ] when not (w.outage_s < c.outage_s) ->
            [
              w;
              {
                c with
                op =
                  {
                    c.op with
                    Harness.error =
                      Some
                        (Printf.sprintf
                           "warm outage %.1f s not below cold outage %.1f s"
                           w.outage_s c.outage_s);
                  };
              };
            ]
          | _ -> pair
        in
        List.iter (fun o -> Harness.record o.op) pair;
        if round = 0 then first := pair;
        regions)
  in
  let paper =
    match !first with
    | w :: c :: _ ->
      Paper.web_reboot ~warm_stop_s:w.stop_after_cmd_s
        ~cold_stop_s:c.stop_after_cmd_s ~warm_outage_s:w.outage_s
    | _ -> []
  in
  let layers =
    if not trace then []
    else begin
      let tr = Tracer.summary () in
      let engine = Tracer.find tr "simkit.engine_run" in
      let reqs = Tracer.find tr "guest.handle_request" in
      let cont = Tracer.find tr "netsim.httperf.continue" in
      let reboot field =
        List.fold_left
          (fun a k -> a +. Harness.total ("xenvmm.reboot." ^ k ^ field))
          0.0 [ "warm"; "cold" ]
      in
      let events = Harness.total "simkit.engine_run.events" +. reboot ".events" in
      let events_host_s =
        Harness.total "simkit.engine_run.host_s" +. reboot ".host_s"
      in
      let per_reboot kind =
        [
          Harness.secs ("xenvmm.reboot_s." ^ kind)
            (Harness.per_round (Harness.total ("xenvmm.reboot." ^ kind ^ ".host_s")));
          Harness.metric "count" ("xenvmm.reboot_events." ^ kind)
            (Harness.per_round (Harness.total ("xenvmm.reboot." ^ kind ^ ".events")));
        ]
      in
      let us p = 1e6 *. Harness.quantile (Array.to_list reqs.Tracer.durations) p in
      let hits = Harness.total "guest.page_cache.hits" in
      let misses = Harness.total "guest.page_cache.misses" in
      let completed = Harness.total "netsim.httperf.completed" in
      let failed = Harness.total "netsim.httperf.failed" in
      let boot = Tracer.find tr "guest.boot" in
      let create = Tracer.find tr "rejuv.scenario_create" in
      [
        Harness.metric "count" "simkit.events" (Harness.per_round events);
        Harness.metric "1/s" "simkit.events_per_s" (events /. events_host_s);
        Harness.secs "simkit.run_self_s" (Harness.per_round engine.Tracer.self_s);
        Harness.metric "count" "simkit.queue.tombstones"
          (Harness.per_round (Harness.total "simkit.queue.tombstones"));
        Harness.metric "count" "simkit.queue.compactions"
          (Harness.per_round (Harness.total "simkit.queue.compactions"));
        Harness.metric "count" "simkit.queue.resizes"
          (Harness.per_round (Harness.total "simkit.queue.resizes"));
        Harness.secs "guest.boot_s"
          (Harness.median (Array.to_list boot.Tracer.durations));
        Harness.secs "rejuv.scenario_create_s"
          (Harness.median (Array.to_list create.Tracer.durations));
        Harness.secs "guest.request_s" (Harness.per_round reqs.Tracer.self_s);
        Harness.metric "us" "guest.request_p50_us" (us 0.5);
        Harness.metric "us" "guest.request_p99_us" (us 0.99);
        Harness.metric "count" "guest.requests_served"
          (Harness.per_round (Harness.total "guest.requests_served"));
        Harness.metric "count" "guest.page_cache.hits" (Harness.per_round hits);
        Harness.metric "count" "guest.page_cache.misses" (Harness.per_round misses);
        Harness.metric "ratio" "guest.page_cache.hit_ratio"
          (hits /. (hits +. misses));
        Harness.metric "count" "netsim.httperf.completed" (Harness.per_round completed);
        Harness.metric "count" "netsim.httperf.failed" (Harness.per_round failed);
        Harness.metric "ratio" "netsim.httperf.ok_ratio"
          (completed /. (completed +. failed));
        Harness.secs "netsim.httperf.continue_s" (Harness.per_round cont.Tracer.self_s);
        Harness.metric "B" "hw.disk.bytes_read"
          (Harness.per_round (Harness.total "hw.disk.bytes_read"));
        Harness.metric "B" "hw.disk.bytes_written"
          (Harness.per_round (Harness.total "hw.disk.bytes_written"));
        Harness.count "obs.metrics" obs_metrics;
      ]
      @ per_reboot "warm" @ per_reboot "cold"
    end
  in
  { Harness.setups; rounds; layers; not_applicable; info = paper }
