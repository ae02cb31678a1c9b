(** Growable float vector: amortized O(1) append, O(1) indexed read.

    The hot-path replacement for "accumulate a [float list] newest-first
    and [List.rev] it on every query": appends never rebuild anything
    and readers walk the samples in insertion order for free. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty vector; [capacity] (default 16) pre-sizes the backing array. *)

val length : t -> int

val push : t -> float -> unit
(** Append one value. Amortized O(1) (the backing array doubles). *)

val get : t -> int -> float
(** [get t i] is the [i]-th value pushed (0-based). Raises
    [Invalid_argument] out of bounds. *)

val to_list : t -> float list
(** In insertion order. *)
