(** Open-loop Poisson workload generator.

    Unlike the closed-loop {!Httperf} (which waits for each response
    before sending the next request), an open-loop generator fires
    requests at exponentially distributed intervals regardless of how
    the server is doing — the arrival pattern of independent Internet
    clients. During an outage, requests fail and are counted as lost
    rather than deferred, which is the right model for measuring lost
    work during a rejuvenation. *)

type t

val create :
  Simkit.Engine.t ->
  rate_per_s:float ->
  rng:Simkit.Rng.t ->
  request:((bool -> unit) -> unit) ->
  unit ->
  t
(** [request k] must call [k success] when the attempt resolves.
    Raises [Invalid_argument] unless [rate_per_s > 0] (a NaN rate
    included). *)

val start : t -> unit
val stop : t -> unit

val offered : t -> int
(** Requests issued so far. *)

val lost : t -> int
(** Requests whose attempt failed. *)
