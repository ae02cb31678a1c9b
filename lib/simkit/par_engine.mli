(** Quantum-synchronous executor: N {!Engine} shards on N domains.

    A partitioned simulation places mutually-independent component
    stacks on separate shards (each a full {!Engine} with its own clock
    and queue). Shards never exchange events: every coupling between
    them happens at {e quantum} barriers — a fixed absolute time grid
    on which the caller's [on_quantum] callback runs with every worker
    parked, the hook for a global control plane ([Rejuv.Fleet]'s
    admission guard).

    Time advances in barrier-synchronized rounds. Each round releases
    every shard to execute its events strictly below
    [min (next grid point, until)]; once all shards have drained up to
    the grid point, the coordinator crosses it.

    {b Determinism.} The 1-shard case runs the very same round loop
    inline — a seeded simulation whose shards share no mutable state
    and whose cross-shard coupling flows through [on_quantum] produces
    byte-identical results for any shard count and any worker
    interleaving.

    {b Threading.} [create], [run] and everything else here belong to
    one owning domain (the coordinator). All shard engines are plain
    single-domain {!Engine} values; the round barrier provides the
    happens-before edges between their worker and the coordinator. *)

type t

val create : ?seed:int -> quantum:float -> shards:int -> unit -> t
(** [shards] engines (each seeded with the same [seed] — derive
    per-component streams from stable component identities, not from
    shard-local split order, to keep runs partition-invariant).
    [quantum] fixes the absolute barrier grid [quantum, 2*quantum, ...]
    for the engine's whole life. Raises [Invalid_argument] on
    [shards < 1] or a non-positive quantum. *)

val shards : t -> int

val shard : t -> int -> Engine.t
(** The shard engines. Between [run] calls (and inside [on_quantum])
    the coordinator may freely schedule on and read any of them.
    Raises [Invalid_argument] on an index outside [0, shards). *)

val last_quantum : t -> float
(** Time of the most recent quantum barrier crossed (0 before the
    first); the coordinator's "now", stable across {!run} calls. *)

val run :
  ?until:float -> ?on_quantum:(float -> [ `Continue | `Stop ]) -> t -> unit
(** Drive the shards, spawning one worker domain per shard beyond the
    first (the first runs inline on the caller). Stops when every queue
    is drained — or, with [until], when nothing at or below [until]
    remains (shard clocks are {e not} advanced to [until]); or when
    [on_quantum] returns [`Stop].

    [on_quantum q] fires on the caller's domain at every grid point [q]
    once all shards have drained up to it, with all workers parked.
    With [on_quantum] present the loop keeps crossing barriers even
    when all queues are empty — pair it with {!idle} (or [`Stop]) so a
    wedged simulation terminates. An exception raised by any shard's
    event stops the run at the next barrier and is re-raised on the
    caller after the workers are joined.

    Worker domains' executed-event counts are credited back to the
    caller via {!Engine.add_domain_events}, so per-run accounting (the
    sweep runner) sees the whole partitioned run. May be called
    repeatedly; the quantum grid does not restart. *)

val idle : t -> bool
(** No live event pending on any shard. Coordinator-only (call it
    between runs or inside [on_quantum]). *)

type stats = {
  par_shards : int;
  par_rounds : int;  (** barrier rounds driven so far *)
  par_quantum_ticks : int;  (** [on_quantum] barrier times reached *)
  par_messages : int;  (** cross-shard events delivered: always 0 *)
  par_barrier_waits : int;  (** worker parks on the round barrier *)
  par_max_skew_s : float;  (** max inter-shard clock spread observed *)
}

val stats : t -> stats
(** Protocol counters, exported as gauges by
    [Obs.instrument_par_engine]. *)
