module Metric = Metric
module Registry = Registry
module Export = Export

(* The ambient registry is domain-local so parallel sweep workers never
   share (or race on) metric state; each Runner domain observes into
   its own registry. (D004-allowlisted: this is the sanctioned
   Domain.DLS user outside the engine.) *)
let ambient_key : Registry.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Registry.create ()))

let ambient () = !(Domain.DLS.get ambient_key)
let set_ambient r = Domain.DLS.get ambient_key := r

let reset_ambient () =
  let r = Registry.create () in
  set_ambient r;
  r

(* --- scoped instrumentation over the ambient registry --- *)

let incr ?window ~time name =
  Metric.Counter.record (Registry.counter (ambient ()) ?window name) ~time

let gauge name read = Registry.gauge (ambient ()) name read
let set_gauge name v = Registry.set_gauge (ambient ()) name v

(* --- engine self-observability --- *)

let instrument_engine ?(prefix = "sim.engine") registry engine =
  Registry.gauge registry (prefix ^ ".events_processed") (fun () ->
      float_of_int (Simkit.Engine.events_processed engine));
  Registry.gauge registry (prefix ^ ".events_scheduled") (fun () ->
      float_of_int (Simkit.Engine.events_scheduled engine));
  Registry.gauge registry (prefix ^ ".queue_depth") (fun () ->
      float_of_int (Simkit.Engine.pending engine));
  Registry.gauge registry (prefix ^ ".now_s") (fun () ->
      Simkit.Engine.now engine);
  (* Event-queue internals: tombstone pressure and compaction passes. *)
  let stat read =
    fun () -> read (Simkit.Engine.queue_stats engine)
  in
  Registry.gauge registry (prefix ^ ".queue.tombstones")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_tombstones));
  Registry.gauge registry (prefix ^ ".queue.compactions")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_compactions))

let instrument_par_engine ?(prefix = "par") registry par =
  (* Protocol health of a partitioned run: how far shard clocks spread
     within a quantum window, how often workers park, and how many
     rounds and barriers it took. Gauges read through [stats], so they
     stay live across successive [Par_engine.run] calls. *)
  let stat read = fun () -> read (Simkit.Par_engine.stats par) in
  Registry.gauge registry (prefix ^ ".shards")
    (stat (fun s -> float_of_int s.Simkit.Par_engine.par_shards));
  Registry.gauge registry (prefix ^ ".shard_clock_skew_s")
    (stat (fun s -> s.Simkit.Par_engine.par_max_skew_s));
  Registry.gauge registry (prefix ^ ".barrier_waits")
    (stat (fun s -> float_of_int s.Simkit.Par_engine.par_barrier_waits));
  Registry.gauge registry (prefix ^ ".rounds")
    (stat (fun s -> float_of_int s.Simkit.Par_engine.par_rounds));
  Registry.gauge registry (prefix ^ ".quantum_ticks")
    (stat (fun s -> float_of_int s.Simkit.Par_engine.par_quantum_ticks))
