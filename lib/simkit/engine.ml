type handle = {
  mutable cancelled : bool;
  mutable fired : bool;
  action : unit -> unit;
}

type compaction = [ `Auto | `Threshold of float | `Off ]

type t = {
  mutable clock : float;
  queue : handle Eventq.t;
  mutable processed : int;
  mutable scheduled : int;
  mutable tombstones : int;
  mutable compactions : int;
  compact_above : float option;  (* tombstone/pending ratio; None = off *)
  root_rng : Rng.t;
}

(* Per-domain default backend, so whole-program runs (experiments build
   their own engines deep inside Scenario) can be steered onto one
   backend without threading a parameter through every layer. *)
let default_queue_key = Domain.DLS.new_key (fun () -> ref Eventq.Calendar)

let default_queue () = !(Domain.DLS.get default_queue_key)
let set_default_queue b = Domain.DLS.get default_queue_key := b

let with_default_queue b f =
  let cell = Domain.DLS.get default_queue_key in
  let saved = !cell in
  cell := b;
  Fun.protect ~finally:(fun () -> cell := saved) f

let auto_compact_ratio = 0.5

(* Below this many pending entries compaction cannot pay for itself. *)
let compact_min_pending = 64

let create ?(seed = 42) ?queue ?(compaction = `Auto) () =
  let backend = match queue with Some b -> b | None -> default_queue () in
  let compact_above =
    match compaction with
    | `Auto -> Some auto_compact_ratio
    | `Threshold r ->
      if r <= 0.0 then invalid_arg "Engine.create: compaction threshold <= 0";
      Some r
    | `Off -> None
  in
  {
    clock = 0.0;
    queue = Eventq.create ~backend ();
    processed = 0;
    scheduled = 0;
    tombstones = 0;
    compactions = 0;
    compact_above;
    root_rng = Rng.create seed;
  }

let now t = t.clock

let rng t = t.root_rng

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let h = { cancelled = false; fired = false; action } in
  Eventq.add t.queue ~key:time h;
  t.scheduled <- t.scheduled + 1;
  h

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

(* Lazy deletion with bounded garbage: cancellation only marks the
   handle, but once tombstones dominate the queue we filter them out in
   one O(n) pass. Timeout-heavy workloads (TCP, probers, recovery
   retries) cancel nearly everything they schedule, and without this
   the queue holds every dead timeout until its original expiry. *)
let maybe_compact t =
  match t.compact_above with
  | None -> ()
  | Some ratio ->
    let pending = Eventq.length t.queue in
    if
      pending >= compact_min_pending
      && float_of_int t.tombstones > ratio *. float_of_int pending
    then begin
      let removed =
        Eventq.compact t.queue ~live:(fun h -> not h.cancelled)
      in
      t.tombstones <- t.tombstones - removed;
      t.compactions <- t.compactions + 1
    end

let cancel t h =
  if not (h.cancelled || h.fired) then begin
    h.cancelled <- true;
    t.tombstones <- t.tombstones + 1;
    maybe_compact t
  end

let pending t = Eventq.length t.queue

let events_processed t = t.processed

let events_scheduled t = t.scheduled

type queue_stats = {
  qs_backend : Eventq.backend;
  qs_pending : int;
  qs_tombstones : int;
  qs_compactions : int;
  qs_buckets : int;
  qs_bucket_width : float;
  qs_resizes : int;
}

let queue_stats t =
  let s = Eventq.stats t.queue in
  {
    qs_backend = Eventq.backend t.queue;
    qs_pending = Eventq.length t.queue;
    qs_tombstones = t.tombstones;
    qs_compactions = t.compactions;
    qs_buckets = s.Eventq.q_buckets;
    qs_bucket_width = s.Eventq.q_bucket_width;
    qs_resizes = s.Eventq.q_resizes;
  }

(* Cumulative event count of every engine stepped on the current domain.
   Each domain owns its counter, so parallel sweep runners can attribute
   simulated work to a task by reading the delta around it without any
   cross-domain synchronization. *)
let domain_events = Domain.DLS.new_key (fun () -> ref 0)

let domain_events_processed () = !(Domain.DLS.get domain_events)

let add_domain_events n =
  if n < 0 then invalid_arg "Engine.add_domain_events: negative count";
  let c = Domain.DLS.get domain_events in
  c := !c + n

let rec step t =
  match Eventq.pop t.queue with
  | None -> false
  | Some (time, h) ->
    if h.cancelled then begin
      t.tombstones <- t.tombstones - 1;
      step t
    end
    else begin
      h.fired <- true;
      t.clock <- time;
      t.processed <- t.processed + 1;
      incr (Domain.DLS.get domain_events);
      h.action ();
      true
    end

(* Discard cancelled entries sitting at the head so that [Eventq.min]
   reflects the next event that will actually fire. *)
let rec next_live t =
  match Eventq.min t.queue with
  | Some (_, h) when h.cancelled ->
    ignore (Eventq.pop t.queue);
    t.tombstones <- t.tombstones - 1;
    next_live t
  | other -> other

let next_event_time t = Option.map fst (next_live t)

(* One Par_engine round: execute everything strictly below [bound]
   and leave the clock at the last executed event, so the coordinator
   may still schedule work at [bound] (its quantum barrier) without
   time running backwards. *)
let rec run_before t ~bound =
  match next_live t with
  | Some (time, _) when time < bound ->
    ignore (step t);
    run_before t ~bound
  | Some _ | None -> ()

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let continue = ref true in
    while !continue do
      match next_live t with
      | Some (time, _) when time <= limit ->
        if not (step t) then continue := false
      | Some _ | None -> continue := false
    done;
    if limit > t.clock then t.clock <- limit
