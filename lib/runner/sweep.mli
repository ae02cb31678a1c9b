(** Parallel sweep runner: execute a batch of independent, deterministic
    simulation runs across domains, with per-run metrics and a result
    order fixed by task key — never by completion order.

    Tasks must be self-contained: each [run] thunk builds its own
    engine and RNG from its seed and shares no mutable state with any
    other task (the experiment registry's runs are constructed this
    way). [run ~verify_isolation:true] re-executes one task after the
    parallel pass and asserts the bytes match — a cheap leak detector
    for accidentally shared state. *)

type 'a task = {
  key : string;
      (** Unique sort/merge key, e.g. ["fig4/mem=07"]. Results are
          returned in ascending key order. *)
  cache_key : string option;
      (** Ignored; nothing reads it. It stays only because
          perfbench/vmm_sweep.ml builds tasks itself and sets it, and it
          goes once that file stops. *)
  run : unit -> 'a;
}

type metrics = {
  wall_s : float;  (** real time spent producing this result *)
  sim_events : int;  (** simulator callbacks executed for this run *)
}

type 'a outcome = {
  key : string;
  value : ('a, Simkit.Fault.t) result;
      (** [Error f] when the run died on a typed fault ({!Simkit.Fault.Error});
          the rest of the sweep still completes. Any other exception
          aborts the whole sweep. *)
  metrics : metrics;
}

val run : ?jobs:int -> ?verify_isolation:bool -> 'a task list -> 'a outcome list
(** Execute every task, [jobs] at a time ({!Pool.parallel_map}
    semantics; [jobs] defaults to {!Pool.default_jobs}). Tasks are
    sorted by [key] before they reach the pool, and outcomes come back
    in that order. [verify_isolation] (default [false]) re-runs the
    first task sequentially afterwards and raises
    [Simkit.Fault.Error (Invariant _)] if its [Marshal] bytes differ
    from the parallel result. Results must therefore be plain data (no
    closures, no custom blocks) when it is set. *)

val total_wall_s : 'a outcome list -> float
(** Sum of per-run wall clocks — the sequential-equivalent cost, to
    compare against the batch's elapsed time. *)

val observe :
  ?prefix:string -> ?elapsed_s:float -> Obs.Registry.t -> 'a outcome list -> unit
(** Record a finished batch into [reg] under [prefix] (default
    ["runner.sweep"]): a per-run wall-time histogram plus gauges for
    the run and fault counts, simulated events and total wall time.
    With [elapsed_s] (the batch's real elapsed time) also records
    [shard_utilization] — average busy cores, i.e. {!total_wall_s} /
    elapsed. *)
