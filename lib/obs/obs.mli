(** Observability plane: metric registry, snapshot timeline, exporters
    and a scoped instrumentation API.

    Layers above simkit register gauges/counters/histograms into a
    {!Registry.t}; exporters render it as JSON, CSV or Prometheus text.
    All sampling happens on the simulation clock, and all iteration is
    name-sorted, so a seeded run exports byte-identical metrics.

    An {e ambient} registry (one per domain, so parallel sweep workers
    never share metric state) backs the scoped helpers below; scenario
    construction instruments into it by default. *)

module Metric = Metric
module Registry = Registry
module Timeline = Timeline
module Export = Export

val ambient : unit -> Registry.t
(** This domain's current ambient registry. *)

val set_ambient : Registry.t -> unit

val reset_ambient : unit -> Registry.t
(** Install and return a fresh ambient registry — e.g. before a run
    whose metrics should not include earlier runs. *)

val with_registry : Registry.t -> (unit -> 'a) -> 'a
(** Run [f] with [r] as the ambient registry, restoring the previous
    one afterwards (also on exceptions). *)

(** {1 Scoped helpers (ambient registry)} *)

val incr : ?window:float -> time:float -> string -> unit
(** Bump the named ambient counter at simulation time [time]. *)

val observe : ?buckets_per_decade:int -> string -> float -> unit
(** Record a value into the named ambient histogram. *)

val gauge : string -> (unit -> float) -> unit
val set_gauge : string -> float -> unit

val with_counter : time:float -> string -> (unit -> 'a) -> 'a
(** Count an invocation, then run it. *)

val with_span : Simkit.Trace.t -> string -> (unit -> 'a) -> 'a
(** Compose tracing with metrics: opens a trace span, runs [f], closes
    the span and records its simulated duration into the ambient
    histogram [name ^ ".span_s"]. The span closes even if [f] raises.
    Note the duration is simulated time elapsed {e during} [f] — for
    direct-style work (exports, analysis steps), not for intervals that
    end inside a later engine callback. *)

(** {1 Engine self-observability} *)

val instrument_engine : ?prefix:string -> Registry.t -> Simkit.Engine.t -> unit
(** Register pull gauges over the engine's own counters and event-queue
    internals — [queue.tombstones], [queue.compactions], and the
    calendar backend's [queue.buckets] / [queue.bucket_width_s] /
    [queue.resizes] — as well as the long-standing counters (events
    processed / scheduled, queue depth, clock) under [prefix] (default
    ["sim.engine"]). *)

val instrument_par_engine :
  ?prefix:string -> Registry.t -> Simkit.Par_engine.t -> unit
(** Register pull gauges over a partitioned run's round counters
    under [prefix] (default ["par"]): [shards], [shard_clock_skew_s]
    (max inter-shard clock spread observed at round ends),
    [barrier_waits] (worker parks), [rounds] and [quantum_ticks]. *)
