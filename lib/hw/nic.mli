(** Network interface model.

    A gigabit NIC as a shared-bandwidth resource. Exposes a degradation
    multiplier used to reproduce the transient network slowdown Xen
    shows after creating many domains at once (the 25-second artifact
    the paper reports after a warm reboot in Figure 7). *)

type t

val create : Simkit.Engine.t -> gbit_per_s:float -> unit -> t

val transfer : t -> bytes:int -> (unit -> unit) -> unit
(** Send [bytes]; continuation fires when the wire time has elapsed.
    Concurrent transfers share the bandwidth. *)

val transfer_time : t -> bytes:int -> float
(** Uncontended wire time. *)

val set_degradation : t -> factor:float -> unit
(** Scale effective bandwidth by [factor] (0 < factor <= 1). *)

val clear_degradation : t -> unit

val effective_bytes_per_s : t -> float
