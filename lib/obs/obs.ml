module Metric = Metric
module Registry = Registry
module Timeline = Timeline
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

let with_registry r f =
  let cell = Domain.DLS.get ambient_key in
  let saved = !cell in
  cell := r;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* --- scoped instrumentation over the ambient registry --- *)

let incr ?window ~time name =
  Metric.Counter.record (Registry.counter (ambient ()) ?window name) ~time

let observe ?buckets_per_decade name v =
  Metric.Histogram.observe
    (Registry.histogram (ambient ()) ?buckets_per_decade name)
    v

let gauge name read = Registry.gauge (ambient ()) name read
let set_gauge name v = Registry.set_gauge (ambient ()) name v

let with_counter ~time name f =
  incr ~time name;
  f ()

let with_span trace name f =
  let span = Simkit.Trace.begin_span trace name in
  let engine = Simkit.Trace.engine trace in
  let t0 = Simkit.Engine.now engine in
  Fun.protect
    ~finally:(fun () ->
      Simkit.Trace.end_span trace span;
      observe (name ^ ".span_s") (Simkit.Engine.now engine -. t0))
    f

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
  (* Event-queue internals: tombstone pressure, compaction passes, and
     the calendar backend's bucket structure (zeros on the heap). *)
  let stat read =
    fun () -> read (Simkit.Engine.queue_stats engine)
  in
  Registry.gauge registry (prefix ^ ".queue.tombstones")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_tombstones));
  Registry.gauge registry (prefix ^ ".queue.compactions")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_compactions));
  Registry.gauge registry (prefix ^ ".queue.buckets")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_buckets));
  Registry.gauge registry (prefix ^ ".queue.bucket_width_s")
    (stat (fun s -> s.Simkit.Engine.qs_bucket_width));
  Registry.gauge registry (prefix ^ ".queue.resizes")
    (stat (fun s -> float_of_int s.Simkit.Engine.qs_resizes))

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
