(** Model of xenstored, the store daemon in the privileged domain.

    A hierarchical key-value store used by the toolstack for domain
    bookkeeping. The real daemon leaked memory per transaction (Xen
    changeset 8640) and is not restartable — recovering from its aging
    requires rebooting domain 0 (and hence, without warm-VM reboot, the
    whole VMM). The model tracks per-transaction memory growth. *)

type t

val create : ?leak_per_transaction_bytes:int -> unit -> t
(** Default: no leak. *)

val write : t -> path:string -> string -> unit
val read : t -> path:string -> string option
val rm : t -> path:string -> unit
(** Remove a path and everything below it. *)

val directory : t -> path:string -> string list
(** Immediate child names under [path], sorted. *)

val transactions : t -> int
val entries : t -> int

val memory_bytes : t -> int
(** Store contents + accumulated leaks. *)
