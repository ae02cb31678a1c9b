(** Byte-size and time helpers shared across the simulator.

    Sizes are plain [int] byte counts (63-bit ints comfortably hold the
    12 GiB testbed). Times are [float] seconds of simulated time. *)

val page_bytes : int
(** Size of one memory page / disk block: 4 KiB, as in x86 Xen. *)

val kib : int -> int
val mib : int -> int
val gib : int -> int

val bytes_to_gib : int -> float
val bytes_to_mib : int -> float

val pages_of_bytes : int -> int
(** Number of 4 KiB pages covering [bytes] (rounds up). *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable size, e.g. ["1.5 GiB"]. *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-readable duration, e.g. ["42.0 s"] or ["83 ms"]. *)

val hours : float -> float
val days : float -> float
val weeks : float -> float
