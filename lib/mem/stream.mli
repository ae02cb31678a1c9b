(** Bookkeeping for one in-flight streamed (demand-paged) restore.

    A streamed restore reads only the hot prefix of the saved image
    before resuming the domain; the remaining {e cold} pages fault in
    from disk in fixed-size batches while the guest already serves
    requests. Until the last batch lands, every guest request pays a
    latency tax that decays linearly with the cold fraction still on
    disk — the probability a request touches an unfaulted page.

    A value of this type hangs off the domain for the duration of the
    fault-in and is dropped when {!complete} turns true. It is pure
    bookkeeping: the actual disk reads are issued by the VMM's restore
    path against [Hw.Disk]. *)

type t

val create : memdyn:Memdyn.t -> cold_bytes:int -> t
(** [create ~memdyn ~cold_bytes] starts tracking a fault-in of
    [cold_bytes] (may be [0], in which case it is born complete). The
    fault-tax parameter is captured here so readers need no config. *)

val cold_bytes : t -> int
(** Total cold bytes at creation. *)

val next_batch_bytes : t -> int
(** Size of the next background read:
    [min stream_batch_bytes remaining]. [0] once complete. *)

val note_paged_in : t -> bytes_:int -> unit
(** Record that a batch landed. Clamps at zero remaining. *)

val batches_outstanding : t -> int
(** Batches still to be read ([ceil (remaining / batch)]); feeds the
    [restore.faults_outstanding] gauge. *)

val complete : t -> bool

val fault_tax_s : t -> float
(** Current per-request latency tax:
    [fault_tax_s × remaining / cold] — the cold-set miss probability
    times one disk fault. [0] when complete. *)

val pp : Format.formatter -> t -> unit
