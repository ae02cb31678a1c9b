(** The VMM's internal heap.

    Xen's hypervisor heap is only 16 MiB by default regardless of
    installed memory, which is why heap leaks are the canonical VMM
    aging symptom: the paper cites real Xen bugs where heap was lost on
    every VM reboot (changeset 9392) and on error paths (changeset
    11752). This module models tagged allocations, permanent leaks, and
    exhaustion callbacks. A VMM reboot (rejuvenation) recreates the
    heap, clearing all leaks. *)

type t

type allocation

val default_capacity_bytes : int
(** 16 MiB, as in Xen 3.0. *)

val create : ?capacity_bytes:int -> unit -> t

val capacity_bytes : t -> int
val used_bytes : t -> int
val free_bytes : t -> int
val leaked_bytes : t -> int

val alloc : t -> tag:string -> bytes:int -> (allocation, [ `Out_of_memory ]) result
(** Allocate tagged heap memory; fails without side effects when the
    request exceeds free space. *)

val free : t -> allocation -> unit
(** Release an allocation. Raises [Invalid_argument] on double free. *)

val allocation_bytes : allocation -> int

val leak : t -> bytes:int -> unit
(** Permanently lose heap space (an aging event). Leaking more than the
    remaining free space clamps to it and triggers exhaustion. *)

val usage_by_tag : t -> (string * int) list
(** Live bytes per tag, sorted by tag. *)

val on_exhaustion : t -> (unit -> unit) -> unit
(** Called once each time free space first reaches zero. *)

val observe : ?prefix:string -> Obs.Registry.t -> (unit -> t) -> unit
(** Register pull gauges (capacity/used/free/leaked bytes, leak event
    count) under [prefix] (default ["vmm.heap"]). The heap is fetched
    through the getter on every read, so gauges follow a heap rebuilt
    by a reboot or quick reload. *)

val exhausted : t -> bool
