type mode = Per_request | Fluid | Hybrid

let mode_enum =
  Simkit.Enum.make ~what:"traffic"
    ~aliases:[ ("per_request", Per_request); ("request", Per_request) ]
    [ ("per-request", Per_request); ("fluid", Fluid); ("hybrid", Hybrid) ]

let mode_name m = Simkit.Enum.name mode_enum m

type server = {
  srv_is_up : unit -> bool;
  srv_capacity_rps : unit -> float;
  srv_service_time_s : unit -> float;
}

let static_server ?(up = fun () -> true) ~capacity_rps ~service_time_s () =
  {
    srv_is_up = up;
    srv_capacity_rps = (fun () -> if up () then capacity_rps else 0.0);
    srv_service_time_s = (fun () -> service_time_s);
  }

type config = {
  mode : mode;
  clients : int;
  tracers : int;
  think_time_s : float;
  retry_backoff_s : float;
  epoch_s : float;
}

let default_config =
  {
    mode = Per_request;
    clients = 10;
    tracers = 4;
    think_time_s = 0.0;
    retry_backoff_s = 0.5;
    epoch_s = 0.1;
  }

(* --- fluid integrator ----------------------------------------------------

   One self-rescheduling epoch tick (Prober-style). Over each epoch the
   closed-loop fluid throughput is the classical asymptotic bound

     X = min (active_flows / (Z + S), capacity)

   (Z think time, S service time) — exact in the fluid limit away from
   the queueing knee, where the [min] takes over. During an outage each
   flow retries once per backoff; after recovery flows re-enter
   uniformly over one backoff window, giving the linear ramp the
   per-request model shows. Everything here is pure float arithmetic in
   a fixed order: no RNG, so seeded runs are byte-identical across
   fleet partitions. *)
type core = {
  c_engine : Simkit.Engine.t;
  c_cfg : config;
  c_server : server;
  c_flows : float;  (* bulk flows handled by the integrator *)
  c_external : lo:float -> hi:float -> float;
      (* throughput (req/s) the per-request tracer cohort already took
         out of the server over an epoch: the bulk only gets the
         {e remaining} capacity, so tracer + bulk never exceed what one
         shared server can do. Constantly 0 in pure fluid mode. *)
  mutable c_running : bool;
  mutable c_tick : Simkit.Engine.handle option;
  mutable c_started_at : float;
  mutable c_up_prev : bool;
  mutable c_came_up_at : float;  (* start of the current up-period ramp *)
  mutable c_completed : float;
  mutable c_failed : float;
  mutable c_rate : float;  (* throughput over the last epoch *)
  mutable c_stall_from : float option;
  mutable c_max_stall : float;
  c_epoch_end : Simkit.Fvec.t;  (* epoch end times, nondecreasing *)
  c_cum : Simkit.Fvec.t;  (* cumulative completions at those times *)
}

let core_create engine cfg server ~flows ~external_rps =
  {
    c_engine = engine;
    c_cfg = cfg;
    c_server = server;
    c_flows = flows;
    c_external = external_rps;
    c_running = false;
    c_tick = None;
    c_started_at = 0.0;
    c_up_prev = true;
    c_came_up_at = 0.0;
    c_completed = 0.0;
    c_failed = 0.0;
    c_rate = 0.0;
    c_stall_from = None;
    c_max_stall = 0.0;
    c_epoch_end = Simkit.Fvec.create ();
    c_cum = Simkit.Fvec.create ();
  }

let core_epoch_rate c ~interval_start ~interval_mid ~external_rps =
  if not (c.c_server.srv_is_up ()) then 0.0
  else begin
    let backoff = c.c_cfg.retry_backoff_s in
    (* Fraction of flows already back from their retry backoff,
       evaluated at the interval midpoint (midpoint rule). *)
    let ramp =
      let since_up = interval_mid -. c.c_came_up_at in
      if since_up >= backoff then 1.0
      else Float.max 0.0 (since_up /. backoff)
    in
    ignore interval_start;
    let active = ramp *. c.c_flows in
    let cycle = c.c_cfg.think_time_s +. c.c_server.srv_service_time_s () in
    let cap =
      Float.max 0.0 (c.c_server.srv_capacity_rps () -. external_rps)
    in
    if cycle <= 0.0 then cap else Float.min (active /. cycle) cap
  end

let rec core_tick c =
  if c.c_running then begin
    let dt = c.c_cfg.epoch_s in
    let t1 = Simkit.Engine.now c.c_engine in
    let t0 = t1 -. dt in
    let up = c.c_server.srv_is_up () in
    if up && not c.c_up_prev then c.c_came_up_at <- t0;
    c.c_up_prev <- up;
    let rate =
      core_epoch_rate c ~interval_start:t0
        ~interval_mid:(t1 -. (dt /. 2.0))
        ~external_rps:(c.c_external ~lo:t0 ~hi:t1)
    in
    c.c_rate <- rate;
    c.c_completed <- c.c_completed +. (rate *. dt);
    if not up then
      (* Each blocked flow burns one attempt per backoff interval. *)
      c.c_failed <- c.c_failed +. (c.c_flows /. c.c_cfg.retry_backoff_s *. dt);
    (* Stall = outage: track server-down spans, not zero-rate ones — a
       healthy server fully consumed by the tracer cohort is not an
       outage. *)
    (if not up then begin
       match c.c_stall_from with
       | None -> c.c_stall_from <- Some t0
       | Some _ -> ()
     end
     else
       match c.c_stall_from with
       | Some from ->
         c.c_max_stall <- Float.max c.c_max_stall (t0 -. from);
         c.c_stall_from <- None
       | None -> ());
    Simkit.Fvec.push c.c_epoch_end t1;
    Simkit.Fvec.push c.c_cum c.c_completed;
    c.c_tick <-
      Some (Simkit.Engine.schedule c.c_engine ~delay:dt (fun () -> core_tick c))
  end

let core_start c =
  if (not c.c_running) && c.c_flows > 0.0 then begin
    c.c_running <- true;
    let now = Simkit.Engine.now c.c_engine in
    c.c_started_at <- now;
    c.c_up_prev <- c.c_server.srv_is_up ();
    (* A server that is already up owes no ramp at t = 0. *)
    c.c_came_up_at <- now -. c.c_cfg.retry_backoff_s;
    c.c_tick <-
      Some
        (Simkit.Engine.schedule c.c_engine ~delay:c.c_cfg.epoch_s (fun () ->
             core_tick c))
  end

let core_stop c =
  if c.c_running then begin
    c.c_running <- false;
    (match c.c_tick with
    | Some h -> Simkit.Engine.cancel c.c_engine h
    | None -> ());
    c.c_tick <- None
  end

(* Backlog: flows whose next request is pinned behind the outage or
   still inside their post-recovery backoff. Piecewise from the same
   state the tick maintains, so reading it costs nothing. *)
let core_backlog c =
  if not c.c_running then 0.0
  else if not (c.c_server.srv_is_up ()) then c.c_flows
  else begin
    let since_up =
      Simkit.Engine.now c.c_engine -. c.c_came_up_at
    in
    if since_up >= c.c_cfg.retry_backoff_s then 0.0
    else c.c_flows *. (1.0 -. (since_up /. c.c_cfg.retry_backoff_s))
  end

let core_longest_stall c ~now =
  match c.c_stall_from with
  | Some from -> Float.max c.c_max_stall (now -. from)
  | None -> c.c_max_stall

(* Cumulative completions at [time], linear between epoch samples. *)
let core_cum_at c time =
  let n = Simkit.Fvec.length c.c_epoch_end in
  if n = 0 || time <= c.c_started_at then 0.0
  else begin
    let t_of i =
      if i < 0 then c.c_started_at else Simkit.Fvec.get c.c_epoch_end i
    in
    let cum_of i = if i < 0 then 0.0 else Simkit.Fvec.get c.c_cum i in
    if time >= t_of (n - 1) then cum_of (n - 1)
    else begin
      (* Largest i with epoch_end.(i) <= time; -1 if before the first. *)
      let lo = ref (-1) and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t_of mid <= time then lo := mid else hi := mid
      done;
      let i = !lo in
      let t0 = t_of i and t1 = t_of (i + 1) in
      let c0 = cum_of i and c1 = cum_of (i + 1) in
      if t1 <= t0 then c1
      else c0 +. ((c1 -. c0) *. ((time -. t0) /. (t1 -. t0)))
    end
  end

let core_throughput_between c ~lo ~hi =
  if hi <= lo then invalid_arg "Fluid.throughput_between: empty interval";
  (core_cum_at c hi -. core_cum_at c lo) /. (hi -. lo)

(* --- the three-mode front ------------------------------------------------ *)

(* Hybrid semantics are {e additive}: the tracer cohort is simulated
   per-request against the live server, the remaining
   [clients - tracers] flows run through the fluid core with the
   capacity the tracers did not consume, and every observable is the
   sum of the two halves. With [tracers = clients] the core has zero
   flows, never ticks, contributes exact zeros — and every observable
   is bit-equal to [Per_request]. *)
type t = {
  f_name : string;
  f_cfg : config;
  f_tracer : Httperf.t option;
  f_core : core option;
  f_engine : Simkit.Engine.t;
}

(* The negated comparisons reject NaN too. *)
let validate_config cfg =
  let bad msg = invalid_arg ("Fluid.validate_config: " ^ msg) in
  if cfg.clients <= 0 then bad "clients <= 0";
  if not (cfg.epoch_s > 0.0) then bad "epoch_s <= 0";
  if not (cfg.retry_backoff_s > 0.0) then bad "retry_backoff_s <= 0";
  if not (cfg.think_time_s >= 0.0) then bad "think_time_s < 0";
  if cfg.mode = Hybrid && (cfg.tracers <= 0 || cfg.tracers > cfg.clients) then
    bad "hybrid tracers outside 1..clients"

let create engine ?(name = "traffic") ~config:cfg ~request ~server () =
  validate_config cfg;
  let tracer ~connections =
    Httperf.create engine ~name ~connections
      ~retry_backoff_s:cfg.retry_backoff_s ~request ()
  in
  match cfg.mode with
  | Per_request ->
    {
      f_name = name;
      f_cfg = cfg;
      f_tracer = Some (tracer ~connections:cfg.clients);
      f_core = None;
      f_engine = engine;
    }
  | Fluid ->
    {
      f_name = name;
      f_cfg = cfg;
      f_tracer = None;
      f_core =
        Some
          (core_create engine cfg server ~flows:(float_of_int cfg.clients)
             ~external_rps:(fun ~lo:_ ~hi:_ -> 0.0));
      f_engine = engine;
    }
  | Hybrid ->
    let h = tracer ~connections:cfg.tracers in
    {
      f_name = name;
      f_cfg = cfg;
      f_tracer = Some h;
      f_core =
        Some
          (core_create engine cfg server
             ~flows:(float_of_int (cfg.clients - cfg.tracers))
             ~external_rps:(fun ~lo ~hi ->
               Httperf.throughput_between h ~lo ~hi));
      f_engine = engine;
    }

let start t =
  Option.iter Httperf.start t.f_tracer;
  Option.iter core_start t.f_core

let stop t =
  Option.iter Httperf.stop t.f_tracer;
  Option.iter core_stop t.f_core

let flows t = float_of_int t.f_cfg.clients

let completed t =
  match (t.f_cfg.mode, t.f_tracer, t.f_core) with
  | Per_request, Some h, _ -> Httperf.completed h
  | Fluid, _, Some c -> int_of_float (Float.round c.c_completed)
  | Hybrid, Some h, Some c ->
    Httperf.completed h + int_of_float (Float.round c.c_completed)
  | _ -> 0

let failed t =
  match (t.f_cfg.mode, t.f_tracer, t.f_core) with
  | Per_request, Some h, _ -> Httperf.failed h
  | Fluid, _, Some c -> int_of_float (Float.round c.c_failed)
  | Hybrid, Some h, Some c ->
    Httperf.failed h + int_of_float (Float.round c.c_failed)
  | _ -> 0

let offered_rps t =
  let bulk = match t.f_core with Some c -> c.c_rate | None -> 0.0 in
  let traced =
    match t.f_tracer with
    | Some h ->
      Obs.Metric.Counter.last_window_rate (Httperf.counter h)
        ~now:(Simkit.Engine.now t.f_engine)
    | None -> 0.0
  in
  bulk +. traced

let backlog t = match t.f_core with Some c -> core_backlog c | None -> 0.0

let tracer_requests t =
  match t.f_tracer with
  | Some h -> Httperf.completed h + Httperf.failed h
  | None -> 0

let throughput_between t ~lo ~hi =
  match (t.f_cfg.mode, t.f_tracer, t.f_core) with
  | Per_request, Some h, _ -> Httperf.throughput_between h ~lo ~hi
  | Fluid, _, Some c -> core_throughput_between c ~lo ~hi
  | Hybrid, Some h, Some c ->
    (* Additive: tracer completions + fluid bulk over the same window.
       An empty core contributes literal 0.0, keeping the
       [tracers = clients] case bit-equal to per-request. *)
    Httperf.throughput_between h ~lo ~hi +. core_throughput_between c ~lo ~hi
  | _ -> 0.0

let tracer_longest_gap h =
  let times = Httperf.completion_times h in
  let n = Simkit.Fvec.length times in
  if n < 2 then 0.0
  else begin
    let worst = ref 0.0 in
    for i = 1 to n - 1 do
      let gap = Simkit.Fvec.get times i -. Simkit.Fvec.get times (i - 1) in
      if gap > !worst then worst := gap
    done;
    !worst
  end

let longest_stall_s t =
  match (t.f_cfg.mode, t.f_tracer, t.f_core) with
  | Per_request, Some h, _ -> tracer_longest_gap h
  | Fluid, _, Some c ->
    core_longest_stall c ~now:(Simkit.Engine.now t.f_engine)
  | Hybrid, Some h, Some c ->
    (* Prefer the core's exact outage window when the bulk is live; an
       empty bulk (tracers = clients) falls back to the per-request
       completion-gap measure. *)
    if c.c_flows > 0.0 then
      core_longest_stall c ~now:(Simkit.Engine.now t.f_engine)
    else tracer_longest_gap h
  | _ -> 0.0

let observe ?(prefix = "netsim.traffic") reg t =
  let p = prefix ^ "." ^ t.f_name in
  Obs.Registry.gauge reg (p ^ ".flows") (fun () -> flows t);
  Obs.Registry.gauge reg (p ^ ".offered_rps") (fun () -> offered_rps t);
  Obs.Registry.gauge reg (p ^ ".backlog") (fun () -> backlog t);
  Obs.Registry.gauge reg (p ^ ".tracer_requests") (fun () ->
      float_of_int (tracer_requests t))

(* --- open-loop dispatcher streams ---------------------------------------- *)

(* Every stream shares one engine and one epoch grid, so a single
   self-rescheduling tick advances them all, in index order. Each
   stream keeps its own float integrals, and the totals sum their
   rounded values, so n one-stream values and one n-stream value
   report the same counts. *)
module Open = struct
  type t = {
    o_engine : Simkit.Engine.t;
    o_rates : float array;
    o_epoch : float;
    o_served : int -> float;
    o_offered : float array;
    o_lost : float array;
    mutable o_running : bool;
    mutable o_tick : Simkit.Engine.handle option;
  }

  let create engine ~rates_per_s ?(epoch_s = 0.1) ~served_fraction () =
    if Array.exists (fun r -> not (r >= 0.0)) rates_per_s then
      invalid_arg "Fluid.Open.create: negative or NaN rate";
    if not (epoch_s > 0.0) then invalid_arg "Fluid.Open.create: epoch_s <= 0";
    let n = Array.length rates_per_s in
    {
      o_engine = engine;
      o_rates = Array.copy rates_per_s;
      o_epoch = epoch_s;
      o_served = served_fraction;
      o_offered = Array.make n 0.0;
      o_lost = Array.make n 0.0;
      o_running = false;
      o_tick = None;
    }

  let rec tick t =
    if t.o_running then begin
      for i = 0 to Array.length t.o_rates - 1 do
        let rate = t.o_rates.(i) in
        if rate > 0.0 then begin
          let served = Float.min 1.0 (Float.max 0.0 (t.o_served i)) in
          let slice = rate *. t.o_epoch in
          t.o_offered.(i) <- t.o_offered.(i) +. slice;
          t.o_lost.(i) <- t.o_lost.(i) +. (slice *. (1.0 -. served))
        end
      done;
      t.o_tick <-
        Some
          (Simkit.Engine.schedule t.o_engine ~delay:t.o_epoch (fun () ->
               tick t))
    end

  let start t =
    if (not t.o_running) && Array.exists (fun r -> r > 0.0) t.o_rates then begin
      t.o_running <- true;
      t.o_tick <-
        Some
          (Simkit.Engine.schedule t.o_engine ~delay:t.o_epoch (fun () ->
               tick t))
    end

  let stop t =
    if t.o_running then begin
      t.o_running <- false;
      (match t.o_tick with
      | Some h -> Simkit.Engine.cancel t.o_engine h
      | None -> ());
      t.o_tick <- None
    end

  let sum_rounded xs =
    Array.fold_left (fun n x -> n + int_of_float (Float.round x)) 0 xs

  let offered t = sum_rounded t.o_offered
  let lost t = sum_rounded t.o_lost
end
