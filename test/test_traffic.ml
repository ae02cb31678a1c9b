(* The hybrid fluid-flow traffic model (Netsim.Fluid): closed-form
   steady state, outage/ramp dynamics, capacity sharing between the
   tracer cohort and the fluid bulk, the Hybrid = Per_request
   equivalence law, pinned experiment JSON that is byte-identical
   across fleet partitions, and the O(log n) httperf window queries it
   leans on. *)
open Helpers
module Engine = Simkit.Engine
module Fluid = Netsim.Fluid
module Httperf = Netsim.Httperf
module Experiment = Rejuv.Experiment
module Strategy = Rejuv.Strategy

let contains ~needle haystack =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* --- mode enum ----------------------------------------------------------- *)

let test_mode_enum () =
  check_true "hybrid parses"
    (Simkit.Enum.of_string Fluid.mode_enum "hybrid" = Ok Fluid.Hybrid);
  check_true "per-request parses"
    (Simkit.Enum.of_string Fluid.mode_enum "per-request" = Ok Fluid.Per_request);
  check_true "per_request alias"
    (Simkit.Enum.of_string Fluid.mode_enum "per_request" = Ok Fluid.Per_request);
  Alcotest.(check string) "round-trip" "fluid" (Fluid.mode_name Fluid.Fluid);
  (match Simkit.Enum.of_string Fluid.mode_enum "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus mode accepted");
  check_true "config label"
    (contains ~needle:"clients=7" (Fluid.config_label { Fluid.default_config with Fluid.clients = 7 }))

(* --- httperf window queries (binary search satellites) ------------------- *)

let test_throughput_between_closed_interval () =
  let e = Engine.create () in
  (* One connection, exactly 0.5 s per request: completions at
     0.5, 1.0, ..., 10.0. *)
  let request k = ignore (Engine.schedule e ~delay:0.5 (fun () -> k true)) in
  let load = Httperf.create e ~connections:1 ~request () in
  Httperf.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Httperf.stop load));
  Engine.run e;
  (* Closed interval: both endpoint completions (1.0 and 3.0) count. *)
  check_float "closed-interval count" 2.5
    (Httperf.throughput_between load ~lo:1.0 ~hi:3.0);
  (* The binary-searched result must equal the Counter's linear scan
     for arbitrary windows. *)
  List.iter
    (fun (lo, hi) ->
      check_float
        (Printf.sprintf "matches Counter.rate_between [%g, %g]" lo hi)
        (Simkit.Series.Counter.rate_between (Httperf.counter load) ~lo ~hi)
        (Httperf.throughput_between load ~lo ~hi))
    [ (0.0, 10.0); (0.4, 0.6); (2.25, 7.75); (9.9, 12.0); (10.5, 11.0) ];
  match Httperf.throughput_between load ~lo:3.0 ~hi:3.0 with
  | _ -> Alcotest.fail "empty interval accepted"
  | exception Invalid_argument _ -> ()

let test_mean_window_edge_behavior () =
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:1.0 (fun () -> k true)) in
  let load = Httperf.create e ~connections:1 ~request () in
  (* Contract: an empty generator yields [], never a nan sample. *)
  check_true "empty generator -> []"
    (Httperf.mean_window_throughput load ~every:5 = []);
  Httperf.start load;
  ignore (Engine.schedule e ~delay:12.5 (fun () -> Httperf.stop load));
  Engine.run e;
  (* Completions at 1, 2, ..., 12. Blocks of 5 close at t=5 and t=10;
     the trailing partial block (two completions) is dropped. *)
  (match Httperf.mean_window_throughput load ~every:5 with
  | [ (t1, r1); (t2, r2) ] ->
    check_float "first block closes at its 5th completion" 5.0 t1;
    check_float "first block rate" 1.25 r1;
    check_float "second block closes at t=10" 10.0 t2;
    check_float "second block rate" 1.0 r2
  | l -> Alcotest.failf "expected 2 blocks, got %d" (List.length l));
  match Httperf.mean_window_throughput load ~every:0 with
  | _ -> Alcotest.fail "every=0 accepted"
  | exception Invalid_argument _ -> ()

(* --- fluid core ---------------------------------------------------------- *)

let test_fluid_steady_closed_form () =
  (* 10 flows, 0.15 s think + 0.05 s service: X = 10 / 0.2 = 50 req/s,
     well under the 100 req/s capacity — the closed-loop asymptote,
     exact in the fluid model. *)
  let e = Engine.create () in
  let server =
    Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.05 ()
  in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Fluid;
      clients = 10;
      think_time_s = 0.15;
    }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  Engine.run ~until:20.0 e;
  Fluid.stop load;
  check_float ~eps:1e-6 "X = N / (Z + S)" 50.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:15.0);
  check_in_band "completed ~ X * t" ~lo:950.0 ~hi:1050.0
    (float_of_int (Fluid.completed load));
  check_true "no tracer events in pure fluid" (Fluid.tracer_requests load = 0);
  check_true "no tracer handle" (Fluid.tracer load = None)

let test_fluid_capacity_clamp () =
  let e = Engine.create () in
  let server =
    Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.05 ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode = Fluid.Fluid; clients = 1_000_000 }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  Engine.run ~until:20.0 e;
  Fluid.stop load;
  check_float ~eps:1e-6 "capacity bounds a million clients" 100.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:15.0)

let test_fluid_outage_and_ramp () =
  let e = Engine.create () in
  let up = ref true in
  let server =
    Fluid.static_server ~up:(fun () -> !up) ~capacity_rps:1000.0
      ~service_time_s:0.1 ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode = Fluid.Fluid; clients = 50 }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:30.0 (fun () -> up := true));
  ignore
    (Engine.schedule e ~delay:15.0 (fun () ->
         check_float ~eps:1e-6 "whole population backlogged while down" 50.0
           (Fluid.backlog load)));
  Engine.run ~until:60.0 e;
  Fluid.stop load;
  check_in_band "stall spans the outage" ~lo:19.5 ~hi:20.5
    (Fluid.longest_stall_s load);
  (* 50 flows x one attempt per 0.5 s backoff x 20 s down. *)
  check_in_band "failed retries through the outage" ~lo:1900.0 ~hi:2100.0
    (float_of_int (Fluid.failed load));
  check_float ~eps:1e-9 "nothing served while down" 0.0
    (Fluid.throughput_between load ~lo:11.0 ~hi:29.0);
  check_float ~eps:1e-9 "backlog cleared after the ramp" 0.0
    (Fluid.backlog load);
  (* M/G/1-PS latency view is live once traffic flows again. *)
  (match (Fluid.latency_mean_s load, Fluid.latency_quantile_s load ~p:0.99) with
  | Some m, Some q99 -> check_true "p99 above mean" (q99 > m)
  | _ -> Alcotest.fail "expected fluid latency estimates");
  match Fluid.latency_quantile_s load ~p:1.5 with
  | _ -> Alcotest.fail "quantile p outside (0,1) accepted"
  | exception Invalid_argument _ -> ()

let test_hybrid_capacity_shared () =
  (* 2 tracer connections at 0.02 s/request consume ~100 req/s of a
     200 req/s server; the 998 bulk flows must only get the remainder —
     the combined throughput saturates at capacity instead of
     double-counting the shared server. *)
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:0.02 (fun () -> k true)) in
  let server =
    Fluid.static_server ~capacity_rps:200.0 ~service_time_s:0.02 ()
  in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Hybrid;
      clients = 1000;
      tracers = 2;
    }
  in
  let load = Fluid.create e ~config:cfg ~request ~server () in
  Fluid.start load;
  Engine.run ~until:30.0 e;
  Fluid.stop load;
  check_in_band "tracer + bulk saturate at capacity" ~lo:190.0 ~hi:206.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:25.0);
  check_true "tracer cohort really runs per-request"
    (Fluid.tracer_requests load > 1000);
  check_float ~eps:1e-9 "flows gauge counts the population" 1000.0
    (Fluid.flows load)

(* --- the equivalence law ------------------------------------------------- *)

(* Hybrid with [tracers = clients] leaves the fluid bulk empty, so every
   observable must equal Per_request bit-for-bit — same completions,
   same failures, same windows, same stall — under an outage and
   recovery. *)
let run_mode_for_law mode ~clients ~service_s =
  let e = Engine.create () in
  let up = ref true in
  let request k =
    if !up then ignore (Engine.schedule e ~delay:service_s (fun () -> k true))
    else k false
  in
  let server =
    Fluid.static_server ~up:(fun () -> !up)
      ~capacity_rps:(2.0 *. float_of_int clients /. service_s)
      ~service_time_s:service_s ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode; clients; tracers = clients }
  in
  let load = Fluid.create e ~config:cfg ~request ~server () in
  Fluid.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:17.0 (fun () -> up := true));
  ignore (Engine.schedule e ~delay:40.0 (fun () -> Fluid.stop load));
  Engine.run e;
  ( Fluid.completed load,
    Fluid.failed load,
    Fluid.throughput_between load ~lo:1.0 ~hi:39.0,
    Fluid.mean_window_throughput load ~every:10,
    Fluid.longest_stall_s load )

let qcheck_hybrid_equals_per_request =
  qtest ~count:40 "hybrid = per-request when every flow is a tracer"
    QCheck.(pair (int_range 1 6) (float_range 0.02 0.3))
    (fun (clients, service_s) ->
      run_mode_for_law Fluid.Per_request ~clients ~service_s
      = run_mode_for_law Fluid.Hybrid ~clients ~service_s)

(* --- small-n cross-mode agreement ---------------------------------------- *)

let test_modes_agree_small_n () =
  (* The fig7 shape on a static server: 4 zero-think clients, outage at
     t=30..50. All three modes must agree on steady throughput and
     outage width within 5%. *)
  let run mode =
    let e = Engine.create () in
    let up = ref true in
    let request k =
      if !up then ignore (Engine.schedule e ~delay:0.02 (fun () -> k true))
      else k false
    in
    let server =
      Fluid.static_server ~up:(fun () -> !up) ~capacity_rps:250.0
        ~service_time_s:0.02 ()
    in
    let cfg = { Fluid.default_config with Fluid.mode; clients = 4 } in
    let load = Fluid.create e ~config:cfg ~request ~server () in
    Fluid.start load;
    ignore (Engine.schedule e ~delay:30.0 (fun () -> up := false));
    ignore (Engine.schedule e ~delay:50.0 (fun () -> up := true));
    ignore (Engine.schedule e ~delay:80.0 (fun () -> Fluid.stop load));
    Engine.run e;
    (Fluid.throughput_between load ~lo:5.0 ~hi:25.0, Fluid.longest_stall_s load)
  in
  let x_pr, o_pr = run Fluid.Per_request in
  let x_fl, o_fl = run Fluid.Fluid in
  let x_hy, o_hy = run Fluid.Hybrid in
  check_close ~tolerance:0.05 "fluid steady = per-request" x_pr x_fl;
  check_close ~tolerance:0.05 "hybrid steady = per-request" x_pr x_hy;
  check_close ~tolerance:0.05 "fluid outage = per-request" o_pr o_fl;
  check_close ~tolerance:0.05 "hybrid outage = per-request" o_pr o_hy

(* --- open-loop dispatcher stream ----------------------------------------- *)

let test_open_stream_loss_accounting () =
  let e = Engine.create () in
  let served = ref 1.0 in
  let s =
    Fluid.Open.create e ~rates_per_s:[| 100.0 |]
      ~served_fraction:(fun _ -> !served) ()
  in
  Fluid.Open.start s;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> served := 0.0));
  ignore (Engine.schedule e ~delay:20.05 (fun () -> Fluid.Open.stop s));
  Engine.run e;
  check_int "offered = rate x horizon" 2000 (Fluid.Open.offered s);
  check_int "lost only while unserved" 1000 (Fluid.Open.lost s);
  check_float ~eps:1e-9 "loss ratio" 0.5 (Fluid.Open.loss_ratio s);
  List.iter
    (fun rate ->
      match
        Fluid.Open.create e ~rates_per_s:[| 1.0; rate |]
          ~served_fraction:(fun _ -> 1.0)
          ()
      with
      | _ -> Alcotest.failf "rate %g accepted" rate
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan ]

(* One n-stream value must report what n one-stream values report, on
   one engine event per epoch. The served fractions change between
   ticks and at a tick's own timestamp, once ordered before that tick
   and once after it, so a batch that read any stream at another point
   in the event order would drift. *)
let test_open_streams_batch_per_epoch () =
  let rates = [| 100.0; 40.0; 0.0 |] and epochs = 100 in
  (* Tick k fires k accumulated epochs after the start, as the engine
     adds them. *)
  let tick_time k =
    let t = ref 0.0 in
    for _ = 1 to k do t := !t +. 0.1 done;
    !t
  in
  let run make =
    let e = Engine.create () in
    let served = [| 1.0; 1.0; 1.0 |] and reads = Array.make 3 0 in
    let read i =
      reads.(i) <- reads.(i) + 1;
      served.(i)
    in
    let streams = make e read in
    (* Scheduled before the tick it shares a timestamp with: runs first. *)
    ignore
      (Engine.schedule_at e ~time:(tick_time 30) (fun () -> served.(1) <- 0.0));
    List.iter Fluid.Open.start streams;
    ignore (Engine.schedule e ~delay:1.05 (fun () -> served.(0) <- 0.5));
    ignore
      (Engine.schedule e ~delay:5.95 (fun () ->
           (* Scheduled after tick 60 was: runs after it. *)
           ignore
             (Engine.schedule_at e ~time:(tick_time 60) (fun () ->
                  served.(0) <- 0.0;
                  served.(1) <- 0.25;
                  served.(2) <- 0.0))));
    ignore
      (Engine.schedule_at e
         ~time:(tick_time epochs +. 0.05)
         (fun () -> List.iter Fluid.Open.stop streams));
    Engine.run e;
    (streams, Engine.events_processed e, reads)
  in
  let batched, events, reads =
    run (fun e read ->
        [ Fluid.Open.create e ~rates_per_s:rates ~served_fraction:read () ])
  in
  let separate, _, separate_reads =
    run (fun e read ->
        List.init 3 (fun i ->
            Fluid.Open.create e ~rates_per_s:[| rates.(i) |]
              ~served_fraction:(fun _ -> read i)
              ()))
  in
  let sum f streams = List.fold_left (fun n s -> n + f s) 0 streams in
  let offered = sum Fluid.Open.offered batched
  and lost = sum Fluid.Open.lost batched in
  check_int "offered: one value = three" (sum Fluid.Open.offered separate)
    offered;
  check_int "lost: one value = three" (sum Fluid.Open.lost separate) lost;
  Alcotest.(check (float 0.0))
    "loss ratio: one value = three"
    (float_of_int (sum Fluid.Open.lost separate)
    /. float_of_int (sum Fluid.Open.offered separate))
    (Fluid.Open.loss_ratio (List.hd batched));
  check_int "offered = rates x horizon" 1400 offered;
  (* Stream 0 loses half of ticks 11..60 and all of 61..100; stream 1
     all of ticks 30..60 and three quarters of 61..100. *)
  check_int "lost follows the event order" (250 + 400 + 124 + 120) lost;
  (* Five control events: three served changes, the one that schedules
     the tick-60 change, and the stop. *)
  check_int "one tick event per epoch" (epochs + 5) events;
  Alcotest.(check (array int))
    "each positive-rate stream read once per epoch, the idle one never"
    [| epochs; epochs; 0 |] reads;
  Alcotest.(check (array int)) "same reads either way" reads separate_reads

(* --- validation ----------------------------------------------------------- *)

let test_create_validation () =
  let e = Engine.create () in
  let server = Fluid.static_server ~capacity_rps:10.0 ~service_time_s:0.1 () in
  let mk cfg = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  let rejects name cfg =
    match mk cfg with
    | _ -> Alcotest.fail (name ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  rejects "clients = 0" { Fluid.default_config with Fluid.clients = 0 };
  rejects "epoch <= 0" { Fluid.default_config with Fluid.epoch_s = 0.0 };
  rejects "backoff <= 0" { Fluid.default_config with Fluid.retry_backoff_s = 0.0 };
  rejects "negative think" { Fluid.default_config with Fluid.think_time_s = -1.0 };
  rejects "hybrid tracers > clients"
    { Fluid.default_config with Fluid.mode = Fluid.Hybrid; clients = 2; tracers = 3 }

(* --- obs gauges ----------------------------------------------------------- *)

let test_traffic_gauges () =
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:0.1 (fun () -> k true)) in
  let server = Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.1 () in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Hybrid;
      clients = 100;
      tracers = 2;
    }
  in
  let load = Fluid.create e ~name:"web" ~config:cfg ~request ~server () in
  let reg = Obs.Registry.create () in
  Fluid.observe reg load;
  Fluid.start load;
  Engine.run ~until:10.0 e;
  Fluid.stop load;
  let json = Obs.Export.to_json ~now:10.0 reg in
  List.iter
    (fun g ->
      check_true ("gauge " ^ g)
        (contains ~needle:("netsim.traffic.web." ^ g) json))
    [ "flows"; "offered_rps"; "backlog"; "tracer_requests" ];
  match Obs.Registry.find reg "netsim.traffic.web.flows" with
  | Some (Obs.Registry.Gauge g) ->
    check_float "flows gauge reads the population" 100.0
      (Obs.Metric.gauge_value g)
  | _ -> Alcotest.fail "flows gauge missing from registry"

(* --- golden experiment JSON ----------------------------------------------- *)

(* Each traffic mode's elastic_traffic JSON for seed 7, pinned. *)
let test_traffic_cell_golden_modes () =
  List.iter
    (fun (mode, golden) ->
      Alcotest.(check string)
        (Fluid.mode_name mode ^ " bytes")
        golden
        (Experiment.Result.to_json
           (Experiment.Result.Traffic
              [ Experiment.run_traffic_cell ~seed:7 (mode, 200, Strategy.Warm) ])))
    [
      ( Fluid.Per_request,
        {|{"kind":"traffic","data":[{"traffic":"per-request","clients":200,"strategy":"warm","steady_rps":240,"outage_s":45.8623206034,"completed":17600,"failed":17000,"tracer_requests":34600}]}|}
      );
      ( Fluid.Fluid,
        {|{"kind":"traffic","data":[{"traffic":"fluid","clients":200,"strategy":"warm","steady_rps":238.418579102,"outage_s":42.7,"completed":17488,"failed":17080,"tracer_requests":0}]}|}
      );
      ( Fluid.Hybrid,
        {|{"kind":"traffic","data":[{"traffic":"hybrid","clients":200,"strategy":"warm","steady_rps":239.399060059,"outage_s":42.7,"completed":17681,"failed":17082,"tracer_requests":16808}]}|}
      );
    ]

(* A fleet cell carrying fluid/hybrid host traffic stays byte-identical
   across partition counts — the partitioned-time invariant extends to
   the flow streams (which draw no RNG) — and matches its pinned
   digest. *)
let test_fleet_traffic_golden_partitions () =
  let cell ~mode ~partitions () =
    Experiment.Result.to_json
      (Experiment.Result.Fleet
         [
           Experiment.fleet_cell
             ~traffic:{ Fluid.default_config with Fluid.mode }
             ~partitions ~load_rate_per_s:20.0 ~seed:11 ~hosts:6 ~width:2
             ~slo:0.5
             ~strategy:(Rejuv.Wave.Reboot Strategy.Warm)
             ();
         ])
  in
  List.iter
    (fun (mode, md5) ->
      let tag = Fluid.mode_name mode in
      let one = cell ~mode ~partitions:1 () in
      Alcotest.(check string)
        (tag ^ ": pinned digest") md5
        (Digest.to_hex (Digest.string one));
      Alcotest.(check string)
        (tag ^ ": partitions 1 = 2")
        one
        (cell ~mode ~partitions:2 ());
      Alcotest.(check string)
        (tag ^ ": partitions 1 = 4")
        one
        (cell ~mode ~partitions:4 ()))
    [
      (Fluid.Fluid, "fadde4b428c1fffc839df1a28d2f8611");
      (Fluid.Hybrid, "84af894fd6a0c3fc32945137cef67939");
    ]

(* With blind dispatch a rejuvenating host loses its whole share, so
   here the served fraction decides [lost]. The goldens pin the full
   report, not just partition agreement: a change that moved every
   partition count alike would still fail. *)
let blind_fleet_golden ~offered ~lost ~loss_ratio =
  let wave i start =
    Printf.sprintf
      {|{"index":%d,"hosts":[%s],"started_at_s":%d,"makespan_s":57.4479061529,"deferred":0}|}
      i
      (String.concat "," (List.init 8 (fun k -> string_of_int ((8 * i) + k))))
      start
  in
  Printf.sprintf
    {|{"kind":"fleet","data":[{"strategy":"warm","hosts":40,"wave_width":8,"slo":0.7,"slo_floor":28,"waves":[%s],|}
    (String.concat "," (List.mapi wave [ 100; 168; 236; 304; 372 ]))
  ^ Printf.sprintf
      {|"makespan_s":337,"offered":%d,"lost":%d,"loss_ratio":%s,|}
      offered lost loss_ratio
  ^ {|"min_healthy":32,"mean_healthy":34.9850746269,"slo_met":true,"skipped":[]}]}|}

let test_fleet_blind_dispatch_golden () =
  let cell ~mode ~partitions =
    let f =
      Rejuv.Fleet.create
        {
          Rejuv.Fleet.Config.default with
          hosts = 40;
          wave_width = 8;
          slo = 0.7;
          load_rate_per_s = 200.0;
          blind_dispatch = true;
          partitions;
          host =
            {
              Rejuv.Scenario.Config.default with
              seed = 42;
              traffic = { Fluid.default_config with Fluid.mode };
            };
        }
    in
    Rejuv.Fleet.start f;
    Experiment.Result.to_json
      (Experiment.Result.Fleet
         [ Rejuv.Fleet.run f ~strategy:(Rejuv.Wave.Reboot Strategy.Warm) ])
  in
  List.iter
    (fun (mode, golden) ->
      List.iter
        (fun partitions ->
          Alcotest.(check string)
            (Printf.sprintf "%s: partitions %d" (Fluid.mode_name mode)
               partitions)
            golden
            (cell ~mode ~partitions))
        [ 1; 2; 4 ])
    [
      ( Fluid.Hybrid,
        blind_fleet_golden ~offered:67502 ~lost:8588
          ~loss_ratio:"0.127225859975" );
      ( Fluid.Fluid,
        blind_fleet_golden ~offered:67600 ~lost:8640
          ~loss_ratio:"0.127810650888" );
    ]

let suite =
  ( "traffic",
    [
      Alcotest.test_case "mode enum round-trips" `Quick test_mode_enum;
      Alcotest.test_case "httperf throughput_between is closed-interval"
        `Quick test_throughput_between_closed_interval;
      Alcotest.test_case "httperf mean_window edge behavior" `Quick
        test_mean_window_edge_behavior;
      Alcotest.test_case "fluid steady state matches closed form" `Quick
        test_fluid_steady_closed_form;
      Alcotest.test_case "capacity clamps a million clients" `Quick
        test_fluid_capacity_clamp;
      Alcotest.test_case "fluid outage, retries and recovery ramp" `Quick
        test_fluid_outage_and_ramp;
      Alcotest.test_case "hybrid shares capacity with the tracer" `Quick
        test_hybrid_capacity_shared;
      qcheck_hybrid_equals_per_request;
      Alcotest.test_case "all modes agree at small n" `Slow
        test_modes_agree_small_n;
      Alcotest.test_case "open stream loss accounting" `Quick
        test_open_stream_loss_accounting;
      Alcotest.test_case "open streams share one tick per epoch" `Quick
        test_open_streams_batch_per_epoch;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "traffic gauges registered" `Quick
        test_traffic_gauges;
      Alcotest.test_case "elastic_traffic golden across modes" `Slow
        test_traffic_cell_golden_modes;
      Alcotest.test_case "fleet traffic golden across partitions" `Slow
        test_fleet_traffic_golden_partitions;
      Alcotest.test_case "fleet blind-dispatch golden" `Slow
        test_fleet_blind_dispatch_golden;
    ] )
