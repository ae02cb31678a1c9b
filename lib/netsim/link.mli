(** Client-server network link.

    A latency + shared-bandwidth pipe between the client host and a
    server NIC, used by workload generators that want wire realism
    beyond the server NIC itself. *)

type t

val create :
  Simkit.Engine.t ->
  ?name:string ->
  latency_ms:float ->
  gbit_per_s:float ->
  unit ->
  t

val name : t -> string
val latency_s : t -> float

val send : t -> bytes:int -> (unit -> unit) -> unit
(** Deliver [bytes]: one propagation latency plus contended wire time. *)

val round_trip : t -> request_bytes:int -> response_bytes:int -> (unit -> unit) -> unit
(** Request out, response back: two latencies plus both transfers. *)

val uncontended_time : t -> bytes:int -> float
