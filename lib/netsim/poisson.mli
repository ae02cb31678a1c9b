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
  ?name:string ->
  rate_per_s:float ->
  rng:Simkit.Rng.t ->
  request:((bool -> unit) -> unit) ->
  unit ->
  t
(** [request k] must call [k success] when the attempt resolves.
    Raises [Invalid_argument] unless [rate_per_s > 0] (a NaN rate
    included). *)

val name : t -> string
val start : t -> unit
val stop : t -> unit

val offered : t -> int
(** Requests issued so far. *)

val succeeded : t -> int
val lost : t -> int

val loss_ratio : t -> float
(** lost / offered; 0 when nothing was offered. *)

val lost_between : t -> lo:float -> hi:float -> int
(** Failures whose *issue* time fell in the window. *)
