(** Machine-frame allocator.

    Machine memory is a set of 4 KiB machine page frames, numbered by
    machine frame number (MFN) from 0, exactly as in Xen. The allocator
    hands out extents (contiguous MFN ranges) and supports reserving
    specific ranges — the operation at the heart of quick reload, where
    the freshly booted VMM must re-reserve the P2M-mapping table and all
    frozen domain frames before touching anything else. *)

type t

type extent = { first : int; count : int }
(** [count] machine frames starting at MFN [first]. *)

val pp_extent : Format.formatter -> extent -> unit

val extent_bytes : extent -> int
val extents_bytes : extent list -> int
val extents_frames : extent list -> int

val create : total_frames:int -> t
(** Allocator over MFNs [0 .. total_frames - 1], all initially free. *)

val of_bytes : total_bytes:int -> t
(** Convenience: [total_bytes / 4 KiB] frames. *)

val total_frames : t -> int
val free_frames : t -> int
val used_frames : t -> int
val free_bytes : t -> int

val alloc : t -> frames:int -> extent list option
(** Allocate [frames] machine frames, lowest-addressed extents first.
    [None] (and no state change) when not enough memory is free. *)

val alloc_bytes : t -> bytes:int -> extent list option
(** [alloc] of enough frames to cover [bytes]. *)

val free : t -> extent list -> unit
(** Return extents to the free pool. Raises [Invalid_argument] if any
    frame is already free or out of range (double free / corruption). *)

val reserve : t -> extent -> (unit, string) result
(** Claim a specific MFN range, e.g. when re-adopting preserved memory
    after a quick reload. Fails when any frame of the range is not
    currently free. *)

val is_free : t -> mfn:int -> bool
(** Whether a single frame is currently free. *)

val check_invariants : t -> (unit, string) result
(** Internal consistency: extents sorted, non-overlapping, coalesced,
    within range, and the free count matches. For tests. *)
