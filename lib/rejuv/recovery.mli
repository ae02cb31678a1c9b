(** Recovery policies and outcomes for the rejuvenation strategies.

    A strategy run no longer aborts the process on the first fault: it
    consults a {!policy} and either retries the failing step, falls
    back to a heavier strategy (warm → saved → cold), or abandons the
    affected domain and continues. The {!outcome} records what
    actually happened so experiments can tabulate recovery success,
    extra downtime, and domains lost (à la ReHype). *)

type policy = {
  max_retries : int;
      (** Retries per failing step (resume, restore, reprovision). *)
  fallback : bool;
      (** Allow falling back to a heavier strategy when the current one
          cannot complete (e.g. warm reboot's quick reload fails →
          finish with a cold reboot). *)
  abandon_failed_domains : bool;
      (** After retries are exhausted, give the domain up (rebuild it
          fresh, losing its memory state) and continue, instead of
          declaring the whole run fatal. *)
}

val default : policy
(** [{ max_retries = 1; fallback = true; abandon_failed_domains = true }] —
    keep the consolidation server up at all costs. *)

type outcome = {
  requested : Strategy.t;  (** The strategy the caller asked for. *)
  completed : Strategy.t;
      (** The strategy that actually finished the reboot (differs from
          [requested] after a fallback). *)
  faults : (string * Simkit.Fault.t) list;
      (** Every fault observed, oldest first, tagged with the step that
          reported it (e.g. ["resume"], ["quick_reload"]). *)
  retries : int;  (** Total retry attempts across all steps. *)
  abandoned : string list;
      (** Domains whose memory state was lost and which were rebuilt
          fresh (or lost outright when rebuild also failed). *)
  fatal : Simkit.Fault.t option;
      (** [Some f] when the policy could not recover and the scenario
          was left without a completed reboot. *)
}

val recovered : outcome -> bool
(** [fatal = None]: the reboot completed, possibly degraded. *)

val pp : Format.formatter -> outcome -> unit

(** {1 Run context}

    Mutable accumulator threaded through a strategy's CPS flow; the
    strategies share it so faults, retries and abandonments are
    recorded uniformly. *)

type run = {
  run_policy : policy;
  requested_strategy : Strategy.t;
  mutable run_completed : Strategy.t;
  mutable run_faults : (string * Simkit.Fault.t) list;  (** newest first *)
  mutable run_retries : int;
  mutable run_abandoned : string list;
  mutable run_fatal : Simkit.Fault.t option;
}

val start : policy:policy -> Strategy.t -> run

val note : run -> step:string -> Simkit.Fault.t -> unit
(** Record an observed fault under a step tag. *)

val abandon : run -> string -> unit
(** Record a domain as abandoned (idempotent per name). *)

val set_fatal : run -> Simkit.Fault.t -> unit
(** Record an unrecoverable fault; the first one wins. *)

val fell_back : run -> Strategy.t -> unit
(** Record that a fallback strategy finished the reboot. *)

val finish : run -> outcome

val with_retries :
  run ->
  step:string ->
  (((unit, Simkit.Fault.t) result -> unit) -> unit) ->
  ([ `Ok | `Gave_up of Simkit.Fault.t ] -> unit) ->
  unit
(** [with_retries run ~step attempt k] runs [attempt], re-running it up
    to [run.run_policy.max_retries] more times on [Error]. Every fault
    is {!note}d; each re-run counts one retry. [k `Ok] on success,
    [k (`Gave_up f)] with the last fault when retries are exhausted. *)
