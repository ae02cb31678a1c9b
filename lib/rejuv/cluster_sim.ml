module Config = struct
  type t = {
    hosts : int;
    host : Scenario.Config.t;
    blind_dispatch : bool;
  }

  let default = (* simlint: allow D011 immutable template; the host config's engine/plan slots are None *)
    {
      hosts = 3;
      host = Scenario.Config.(default |> with_vms 2);
      blind_dispatch = false;
    }
end

type t = {
  eng : Simkit.Engine.t;
  members : Scenario.t array;
  rng : Simkit.Rng.t;
  blind_dispatch : bool;
  traffic : Netsim.Fluid.config;
  mutable next_host : int;
}

let create ?engine (cfg : Config.t) =
  if cfg.Config.hosts <= 0 then invalid_arg "Cluster_sim.create: hosts <= 0";
  let template = cfg.Config.host in
  let eng =
    match engine with
    | Some e -> e
    | None -> Simkit.Engine.create ~seed:template.Scenario.Config.seed ()
  in
  let members =
    Array.init cfg.Config.hosts (fun i ->
        Scenario.create
          {
            template with
            Scenario.Config.engine = Some eng;
            name_prefix =
              Printf.sprintf "%sh%d-" template.Scenario.Config.name_prefix
                (i + 1);
          })
  in
  {
    eng;
    members;
    rng = Simkit.Rng.split (Simkit.Engine.rng eng);
    blind_dispatch = cfg.Config.blind_dispatch;
    traffic = template.Scenario.Config.traffic;
    next_host = 0;
  }

let engine t = t.eng
let nodes t = Array.to_list t.members
let host_count t = Array.length t.members

let host_healthy t i =
  let node = t.members.(i) in
  Scenario.vms node <> []
  && List.for_all Scenario.vm_is_up (Scenario.vms node)

let healthy_hosts t =
  let n = ref 0 in
  for i = 0 to host_count t - 1 do
    if host_healthy t i then incr n
  done;
  !n

let start t =
  let up = ref 0 in
  Array.iter
    (fun node -> Scenario.start node (fun () -> incr up))
    t.members;
  while !up < host_count t && Simkit.Engine.step t.eng do () done;
  if !up < host_count t then
    Simkit.Fault.fail (Simkit.Fault.Stalled "Cluster_sim.start")

(* Round-robin over the healthy hosts: starting from the cursor, take
   the first healthy one. Only when every host is down does the request
   land on the (dead) cursor host and fail. [blind_dispatch] restores
   the original health-oblivious balancer, which sprays requests at
   rejuvenating hosts — the paper's lost-request model (Figure 9). *)
let dispatch t =
  let n = host_count t in
  let blind = t.next_host in
  t.next_host <- (blind + 1) mod n;
  if t.blind_dispatch then blind
  else
    let rec find k =
      if k >= n then blind
      else
        let i = (blind + k) mod n in
        if host_healthy t i then begin
          t.next_host <- (i + 1) mod n;
          i
        end
        else find (k + 1)
    in
    find 0

let offer_load t ~rate_per_s =
  let request k = k (host_healthy t (dispatch t)) in
  let gen =
    Netsim.Poisson.create t.eng ~name:"cluster-load" ~rate_per_s ~rng:t.rng
      ~request ()
  in
  Netsim.Poisson.start gen;
  gen

(* Flow split instead of per-request routing: the blind balancer sprays
   1/hosts of the stream at every host, so a rejuvenating host loses
   exactly its share — served fraction healthy/total. The health-aware
   dispatcher steers whole flow shares away from the down host and only
   loses load when no host is healthy at all. *)
let offer_flows t ~rate_per_s =
  let served_fraction _ =
    let h = healthy_hosts t in
    if t.blind_dispatch then float_of_int h /. float_of_int (host_count t)
    else if h > 0 then 1.0
    else 0.0
  in
  let gen =
    Netsim.Fluid.Open.create t.eng ~rates_per_s:[| rate_per_s |]
      ~epoch_s:t.traffic.Netsim.Fluid.epoch_s ~served_fraction ()
  in
  Netsim.Fluid.Open.start gen;
  gen

let watch_capacity t ~interval_s =
  Simkit.Sampler.start t.eng ~name:"healthy-hosts" ~interval_s
    ~gauge:(fun () -> float_of_int (healthy_hosts t))
    ()

type rolling_result = {
  strategy : Strategy.t;
  total_elapsed_s : float;
  per_host_outage_s : float list;
  offered : int;
  lost : int;
  loss_ratio : float;
}

let rolling_rejuvenation t ~strategy ?(gap_s = 20.0) ?(load_rate_per_s = 100.0)
    () =
  (* Traffic-mode split of the offered stream: Per_request keeps the
     historical pure-Poisson path event-for-event ([1.0 *. rate] is
     exact); Fluid is all aggregate; Hybrid keeps a tracer-sized
     Poisson cohort per-request and aggregates the rest. *)
  let per_request_fraction =
    match t.traffic.Netsim.Fluid.mode with
    | Netsim.Fluid.Per_request -> 1.0
    | Netsim.Fluid.Fluid -> 0.0
    | Netsim.Fluid.Hybrid ->
      float_of_int t.traffic.Netsim.Fluid.tracers
      /. float_of_int t.traffic.Netsim.Fluid.clients
  in
  let load =
    if per_request_fraction > 0.0 then
      Some (offer_load t ~rate_per_s:(load_rate_per_s *. per_request_fraction))
    else None
  in
  let flows =
    if per_request_fraction < 1.0 then
      Some
        (offer_flows t
           ~rate_per_s:(load_rate_per_s *. (1.0 -. per_request_fraction)))
    else None
  in
  let outages = Array.make (host_count t) 0.0 in
  let t0 = Simkit.Engine.now t.eng in
  let finished = ref false in
  let rec go i =
    if i >= host_count t then finished := true
    else begin
      let node = t.members.(i) in
      let down_at = Simkit.Engine.now t.eng in
      Roothammer.rejuvenate node ~strategy (fun outcome ->
          (* A fatal per-host outcome must not wedge the rolling wave:
             record the host as lost (its probers keep reporting it
             down) and move on to the next one. *)
          (match outcome.Recovery.fatal with
          | Some f ->
            Simkit.Trace.instant (Scenario.trace node)
              (Printf.sprintf "host %d not recovered: %s" (i + 1)
                 (Simkit.Fault.to_string f))
          | None -> ());
          outages.(i) <- Simkit.Engine.now t.eng -. down_at;
          Simkit.Process.delay t.eng gap_s (fun () -> go (i + 1)))
    end
  in
  go 0;
  while (not !finished) && Simkit.Engine.step t.eng do () done;
  if not !finished then
    Simkit.Fault.fail (Simkit.Fault.Stalled "Cluster_sim.rolling_rejuvenation");
  (* Let stragglers (probes, in-flight requests) settle briefly. *)
  Simkit.Engine.run ~until:(Simkit.Engine.now t.eng +. 5.0) t.eng;
  Option.iter Netsim.Poisson.stop load;
  Option.iter Netsim.Fluid.Open.stop flows;
  let offered =
    Option.fold ~none:0 ~some:Netsim.Poisson.offered load
    + Option.fold ~none:0 ~some:Netsim.Fluid.Open.offered flows
  in
  let lost =
    Option.fold ~none:0 ~some:Netsim.Poisson.lost load
    + Option.fold ~none:0 ~some:Netsim.Fluid.Open.lost flows
  in
  {
    strategy;
    total_elapsed_s = Simkit.Engine.now t.eng -. t0;
    per_host_outage_s = Array.to_list outages;
    offered;
    lost;
    loss_ratio =
      (if offered = 0 then 0.0
       else float_of_int lost /. float_of_int offered);
  }
