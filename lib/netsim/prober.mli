(** Service-downtime prober.

    Replicates the paper's measurement methodology: a client repeatedly
    probes each VM's service and records "the time from when a networked
    service was down until it was up again". *)

type t

val create :
  Simkit.Engine.t ->
  ?name:string ->
  ?interval_s:float ->
  is_up:(unit -> bool) ->
  unit ->
  t
(** Probe [is_up] every [interval_s] (default 0.1 s) once started. *)

val name : t -> string

val start : t -> unit
val stop : t -> unit

val outages : t -> (float * float) list
(** Completed outage intervals as (down since, up again), oldest
    first. An outage still in progress is not included. *)

val downtimes : t -> float list
(** Durations of completed outages. *)

val longest_outage : t -> float option
