(** Stable binary min-heap keyed by a float priority.

    Entries with equal keys are returned in insertion order, which the
    simulation engine relies on to make event execution deterministic. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap. [dummy] fills every array slot
    not holding a live entry, so values the heap has popped or dropped
    are never kept reachable by it; it is never returned. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool

val add : 'a t -> key:float -> 'a -> unit
(** [add t ~key v] inserts [v] with priority [key]. O(log n). *)

val min : 'a t -> (float * 'a) option
(** Smallest entry without removing it, or [None] if empty. O(1). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the smallest entry. Ties are popped in insertion
    order. O(log n). *)

val filter_inplace : 'a t -> keep:('a -> bool) -> int
(** [filter_inplace t ~keep] drops every entry whose value fails [keep]
    and returns how many were dropped. O(n). Surviving entries keep
    their insertion sequence numbers, so FIFO ordering of equal keys —
    including against entries added later — is preserved. *)
