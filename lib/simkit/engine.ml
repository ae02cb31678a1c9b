type handle = {
  mutable cancelled : bool;
  mutable fired : bool;
  action : unit -> unit;
}

type compaction = [ `Auto | `Off ]

type t = {
  mutable clock : float;
  queue : handle Heap.t;
  mutable processed : int;
  mutable scheduled : int;
  mutable tombstones : int;
  mutable compactions : int;
  compact : bool;
  root_rng : Rng.t;
}

(* Compact once tombstones exceed this fraction of the pending queue. *)
let compact_ratio = 0.5

(* Below this many pending entries compaction cannot pay for itself. *)
let compact_min_pending = 64

let create ?(seed = 42) ?(compaction = `Auto) () =
  (* The heap's filler for vacated slots: a handle that can neither
     fire nor be cancelled. *)
  let dummy = { cancelled = true; fired = true; action = ignore } in
  {
    clock = 0.0;
    queue = Heap.create ~dummy;
    processed = 0;
    scheduled = 0;
    tombstones = 0;
    compactions = 0;
    compact = compaction = `Auto;
    root_rng = Rng.create seed;
  }

let now t = t.clock

let rng t = t.root_rng

let schedule_at t ~time action =
  if not (Float.is_finite time) then
    invalid_arg (Printf.sprintf "Engine.schedule_at: non-finite time %g" time);
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let h = { cancelled = false; fired = false; action } in
  Heap.add t.queue ~key:time h;
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
  let pending = Heap.length t.queue in
  if
    t.compact
    && pending >= compact_min_pending
    && float_of_int t.tombstones > compact_ratio *. float_of_int pending
  then begin
    let removed =
      Heap.filter_inplace t.queue ~keep:(fun h -> not h.cancelled)
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

let pending t = Heap.length t.queue

let events_processed t = t.processed

let events_scheduled t = t.scheduled

type queue_stats = {
  qs_pending : int;
  qs_tombstones : int;
  qs_compactions : int;
  qs_resizes : int;
}

let queue_stats t =
  {
    qs_pending = Heap.length t.queue;
    qs_tombstones = t.tombstones;
    qs_compactions = t.compactions;
    qs_resizes = 0;
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
  match Heap.pop t.queue with
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

(* Discard cancelled entries sitting at the head so that [Heap.min]
   reflects the next event that will actually fire. *)
let rec next_live t =
  match Heap.min t.queue with
  | Some (_, h) when h.cancelled ->
    ignore (Heap.pop t.queue);
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
