(** P2M-mapping table: pseudo-physical to machine frame mapping.

    Each domain sees contiguous pseudo-physical memory (physical frame
    numbers, PFNs, numbered from 0) backed by arbitrary machine frames
    (MFNs). The table records PFN→MFN for every page of the domain and is
    the piece of state that makes the warm-VM reboot work: it is placed
    in preserved memory, survives the quick reload, and lets the new VMM
    re-reserve exactly the frames holding each frozen domain's image.

    The table costs 2 MiB per 1 GiB of pseudo-physical memory (8 bytes
    per 4 KiB page), matching the paper's Section 4.1. Entries are added
    when machine frames are allocated to a domain and removed when they
    are deallocated, so it stays correct under ballooning. *)

type t

val create : unit -> t

val add_extent : t -> pfn_first:int -> mfns:Hw.Frame.extent -> unit
(** Map [mfns.count] consecutive PFNs starting at [pfn_first] to the
    machine extent. Raises [Invalid_argument] when any PFN in the range
    is already mapped. *)

val remove_range : t -> pfn_first:int -> count:int -> Hw.Frame.extent list
(** Unmap a PFN range (ballooning down); returns the machine extents
    that backed it. Raises [Invalid_argument] when any PFN in the range
    is unmapped. *)

val lookup : t -> pfn:int -> int option
(** MFN backing a PFN, or [None]. *)

val pages : t -> int
(** Number of mapped pages. *)

val mapped_bytes : t -> int

val machine_extents : t -> Hw.Frame.extent list
(** All machine extents backing the domain, in PFN order. This is what
    the new VMM walks after a quick reload to re-reserve the image. *)

val fold : t -> init:'a -> f:('a -> pfn_first:int -> mfns:Hw.Frame.extent -> 'a) -> 'a

val remove_all : t -> Hw.Frame.extent list
(** Unmap everything, returning all backing machine extents (domain
    teardown). *)

val check_invariants : t -> (unit, string) result
(** PFN ranges disjoint and sorted; backing MFN extents disjoint. *)
