(** Hypercall vocabulary, for tracing and aging hooks.

    The VMM emits one [Vmm.Hypercall] event for each hypercall the
    real RootHammer kernel would issue; the debug log traces them, and
    tests count them through [Vmm.on_event]. *)

type t =
  | Suspend of Domain.id  (** guest-issued on-memory suspend *)
  | Resume of Domain.id
  | Xexec  (** load a new VMM image for quick reload *)
  | Domctl_create of Domain.id
  | Domctl_destroy of Domain.id
  | Memory_op of Domain.id  (** balloon / populate physmap *)
  | Event_channel_op of Domain.id

val name : t -> string
val pp : Format.formatter -> t -> unit
