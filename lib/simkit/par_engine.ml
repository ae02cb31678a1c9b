(* Quantum-synchronous executor over an array of Engine shards.

   Time advances in rounds. At a round boundary every shard is parked;
   the coordinator releases all of them to execute events strictly
   below one bound, min(next quantum barrier, until). Shards exchange
   no events, so nothing can arrive below that bound from elsewhere:
   the only coupling is the [on_quantum] callback, which runs between
   rounds once every shard has drained up to the barrier.

   Determinism: the 1-shard case runs fully inline through the *same*
   round loop, which is what lets callers (Rejuv.Fleet) promise
   byte-identical output for partitions=1 vs partitions=N.

   Threading: shard i is touched only by its worker during a round and
   only by the coordinator between rounds; the barrier mutex provides
   the happens-before edges, so no other synchronization is needed on
   the engines themselves. The [on_quantum] callback always runs on
   the coordinator's domain with every worker parked — it may freely
   read and schedule on any shard. *)

type stats = {
  par_shards : int;
  par_rounds : int;  (** barrier rounds driven so far *)
  par_quantum_ticks : int;  (** [on_quantum] barrier times reached *)
  par_messages : int;  (** cross-shard events delivered: always 0 *)
  par_barrier_waits : int;  (** worker parks on the round barrier *)
  par_max_skew_s : float;  (** max inter-shard clock spread observed *)
}

type t = {
  shards : Engine.t array;
  quantum : float;
  lock : Mutex.t;
  work : Condition.t;  (* coordinator -> workers: new round *)
  donec : Condition.t;  (* workers -> coordinator: round finished *)
  mutable bound : float;  (* exclusive bound for this round *)
  seen : int array;  (* worker i's last completed epoch *)
  mutable epoch : int;
  mutable live : bool;  (* false parks workers permanently *)
  mutable done_count : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable next_q : float;  (* next quantum barrier (absolute grid) *)
  mutable rounds : int;
  mutable ticks : int;
  mutable barrier_waits : int;
  mutable max_skew : float;
}

let create ?(seed = 42) ~quantum ~shards () =
  if shards < 1 then invalid_arg "Par_engine.create: shards < 1";
  if quantum <= 0.0 then invalid_arg "Par_engine.create: quantum <= 0";
  {
    shards = Array.init shards (fun _ -> Engine.create ~seed ());
    quantum;
    lock = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    bound = infinity;
    seen = Array.make shards 0;
    epoch = 0;
    live = false;
    done_count = 0;
    failure = None;
    next_q = quantum;
    rounds = 0;
    ticks = 0;
    barrier_waits = 0;
    max_skew = 0.0;
  }

let shards t = Array.length t.shards

let shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Par_engine.shard: shard %d out of range" i);
  t.shards.(i)

(* Time of the last quantum barrier crossed — the coordinator's notion
   of "now", stable across [run] calls because the grid is absolute. *)
let last_quantum t = t.next_q -. t.quantum

let idle t = Array.for_all (fun e -> Engine.next_event_time e = None) t.shards

let record_failure t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.lock;
  if t.failure = None then t.failure <- Some (e, bt);
  Mutex.unlock t.lock

(* Worker loop for shard [i]: park on the barrier, run the assigned
   window, report back; returns the domain's event counter so the
   coordinator can credit the events to the calling domain. *)
let worker t i =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while t.live && t.epoch = t.seen.(i) do
      t.barrier_waits <- t.barrier_waits + 1;
      Condition.wait t.work t.lock
    done;
    if not t.live then begin
      continue := false;
      Mutex.unlock t.lock
    end
    else begin
      let ep = t.epoch and b = t.bound in
      Mutex.unlock t.lock;
      (try Engine.run_before t.shards.(i) ~bound:b
       with e -> record_failure t e);
      Mutex.lock t.lock;
      t.seen.(i) <- ep;
      t.done_count <- t.done_count + 1;
      Condition.signal t.donec;
      Mutex.unlock t.lock
    end
  done;
  Engine.domain_events_processed ()

let observe_skew t =
  if Array.length t.shards > 1 then begin
    let mn = ref infinity and mx = ref neg_infinity in
    Array.iter
      (fun e ->
        let c = Engine.now e in
        if c < !mn then mn := c;
        if c > !mx then mx := c)
      t.shards;
    t.max_skew <- Float.max t.max_skew (!mx -. !mn)
  end

(* One synchronized round: publish the bound, run shard 0 inline on
   the coordinator, wait for the workers, observe. *)
let drive_round t bound =
  let s = Array.length t.shards in
  t.rounds <- t.rounds + 1;
  if s = 1 then Engine.run_before t.shards.(0) ~bound
  else begin
    Mutex.lock t.lock;
    t.bound <- bound;
    t.epoch <- t.epoch + 1;
    t.done_count <- 0;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (try Engine.run_before t.shards.(0) ~bound
     with e -> record_failure t e);
    Mutex.lock t.lock;
    while t.done_count < s - 1 do
      Condition.wait t.donec t.lock
    done;
    Mutex.unlock t.lock
  end;
  observe_skew t

let run ?until ?on_quantum t =
  let s = Array.length t.shards in
  (* Inclusive [until]: the next float above it is the exclusive bound. *)
  let until_bound =
    match until with None -> infinity | Some u -> Float.succ u
  in
  t.live <- true;
  t.epoch <- 0;
  Array.fill t.seen 0 s 0;
  t.done_count <- 0;
  t.failure <- None;
  let doms =
    Array.init (s - 1) (fun k ->
        Domain.spawn (fun () -> worker t (k + 1)))
  in
  let finish () =
    Mutex.lock t.lock;
    t.live <- false;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter (fun d -> Engine.add_domain_events (Domain.join d)) doms;
    match t.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  in
  Fun.protect ~finally:finish @@ fun () ->
  let stop = ref false in
  while not !stop do
    let global_min =
      Array.fold_left
        (fun acc e ->
          Float.min acc
            (Option.value (Engine.next_event_time e) ~default:infinity))
        infinity t.shards
    in
    let tickable = Option.is_some on_quantum && t.next_q < until_bound in
    if global_min >= until_bound && not tickable then stop := true
    else if global_min >= t.next_q then begin
      (* Every shard has drained up to the barrier: cross it. *)
      let q = t.next_q in
      t.next_q <- t.next_q +. t.quantum;
      if q < until_bound then begin
        t.ticks <- t.ticks + 1;
        match on_quantum with
        | Some f when f q = `Stop -> stop := true
        | Some _ | None -> ()
      end
    end
    else begin
      drive_round t (Float.min t.next_q until_bound);
      if t.failure <> None then stop := true
    end
  done

let stats t =
  {
    par_shards = Array.length t.shards;
    par_rounds = t.rounds;
    par_quantum_ticks = t.ticks;
    par_messages = 0;
    par_barrier_waits = t.barrier_waits;
    par_max_skew_s = t.max_skew;
  }
