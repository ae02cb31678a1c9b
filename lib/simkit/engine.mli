(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Every timed
    behaviour in the simulator — disk transfers, OS boots, rejuvenation
    steps, workload probes — is expressed as callbacks scheduled on an
    engine. Execution is fully deterministic: events fire in
    (time, insertion order), the order of the engine's stable binary
    {!Heap}, so a seeded run is byte-identical from run to run.

    An engine is also the unit of {e partitioned} time: {!Par_engine}
    steps several of them (one per OCaml domain) in quantum-synchronous
    rounds, using {!next_event_time} and {!run_before} as its window
    primitives. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

type compaction = [ `Auto | `Off ]
(** Tombstone hygiene for cancelled events (see {!create}). *)

val create : ?seed:int -> ?compaction:compaction -> unit -> t
(** Fresh engine with the clock at 0. [seed] (default 42) seeds the
    engine's root random stream.

    [compaction] controls tombstone compaction: cancelled events are
    removed lazily, and once they exceed half of the pending queue
    (and the queue holds at least 64 entries) the queue is filtered in
    one O(n) pass. [`Auto] (default) compacts; [`Off] never does —
    cancelled entries then linger until their original expiry, as
    timeout-heavy workloads painfully demonstrate. Compaction never
    changes execution order or results. *)

val now : t -> float
(** Current simulated time in seconds. *)

val rng : t -> Rng.t
(** The engine's root random stream. Subsystems should [Rng.split] it. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Run a callback at an absolute time. Raises [Invalid_argument] when
    [time] is NaN, infinite or in the simulated past. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** Run a callback [delay] seconds from now. Negative, NaN and infinite
    delays are rejected; a zero delay runs after already-pending events
    at the current time. *)

val cancel : t -> handle -> unit
(** Cancel a pending event. Cancelling an already-fired or cancelled
    event is a no-op. *)

val pending : t -> int
(** Number of events still queued, including cancelled placeholders
    that have not yet been compacted away. *)

val events_processed : t -> int
(** Number of callbacks executed so far. *)

val events_scheduled : t -> int
(** Number of events ever enqueued (including cancelled ones). Together
    with {!events_processed} and {!pending} this is the engine's
    self-observability surface, sampled by the [Obs] metrics plane. *)

type queue_stats = {
  qs_pending : int;  (** entries in the queue, tombstones included *)
  qs_tombstones : int;  (** cancelled entries awaiting compaction/expiry *)
  qs_compactions : int;  (** compaction passes run so far *)
  qs_resizes : int;
      (** always 0: the heap never resizes. Kept so existing readers of
          the field still build. *)
}

val queue_stats : t -> queue_stats
(** Live internals of the event queue, exported as gauges by
    [Obs.instrument_engine]. *)

val domain_events_processed : unit -> int
(** Cumulative number of callbacks executed by {e every} engine stepped
    on the calling domain. Monotonic and domain-local: a parallel runner
    executing one simulation per domain can read the delta around a run
    to charge simulated-event counts to it. *)

val add_domain_events : int -> unit
(** Credit [n] already-executed events to the calling domain's counter.
    A run that is internally parallel ({!Par_engine}) executes part of
    its events on short-lived worker domains; summing those workers'
    counters back into the caller keeps per-run accounting (the sweep
    runner's [sim_events] charge) correct. Raises [Invalid_argument] on
    a negative count. *)

val step : t -> bool
(** Execute the next event. [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue empties, or (with [until]) until the
    next event would fire strictly after [until]; the clock is then
    advanced to [until]. *)

val next_event_time : t -> float option
(** Time of the next event that will actually fire (cancelled entries
    at the head are discarded on the way), or [None] on an empty queue.
    {!Par_engine} reads it to decide when every shard has drained up to
    a quantum barrier. *)

val run_before : t -> bound:float -> unit
(** Execute every event with time {e strictly below} [bound] and stop,
    leaving the clock at the last executed event (not at [bound] — a
    coordinator may still inject events at or after [bound]). The
    one-window primitive {!Par_engine} hands each shard per round. *)
