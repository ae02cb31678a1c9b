(** Guest file cache (page cache) with LRU replacement.

    An operating system keeps file contents in free memory; losing this
    cache is exactly why the paper's cold-VM reboot degrades throughput
    by 91 % (file reads) and 69 % (web serving) right after the reboot.
    The cache object survives on-memory suspend/resume — its contents
    are part of the preserved memory image — and is cleared by an OS
    boot.

    Blocks are keyed by [(file, block)]; file ids are non-negative, as
    {!Filesystem}'s are. The cache lives in flat int arrays: per-slot
    keys and LRU links, an open-addressing index from key to slot, and
    a resident count per file id. A lookup ([mem], [touch]) allocates
    nothing. An empty cache takes about 540 bytes: its arrays start at
    8 slots and a 16-entry index, and double on demand up to the
    capacity. *)

type t

val create : capacity_bytes:int -> ?block_bytes:int -> unit -> t
(** [block_bytes] defaults to the 4 KiB page size. *)

val block_bytes : t -> int
val used_bytes : t -> int
val resident_blocks : t -> int

val mem : t -> file:int -> block:int -> bool
(** Presence test without promoting the entry or counting a hit. *)

val touch : t -> file:int -> block:int -> bool
(** Look a block up for a read: on hit, promote to most-recently-used
    and count a hit; on miss count a miss. *)

val insert : t -> file:int -> block:int -> unit
(** Add a block (after reading it from disk), evicting the least-
    recently-used block if the cache is full. Re-inserting promotes.
    @raise Invalid_argument if [file] is negative. *)

val clear : t -> unit
(** Drop everything and reset the counters — an OS reboot. *)

val hits : t -> int
val misses : t -> int

val hit_ratio : t -> float
(** Hits / lookups, 1.0 when no lookups were made. *)

val resident_blocks_of : t -> file:int -> int
(** Blocks of [file] in the cache, in O(1); 0 for a file never
    inserted. *)

val check_invariants : t -> (unit, string) result
(** The LRU list is well linked, the index finds every listed block at
    its slot and holds nothing else, the index is at most half full,
    the size is within capacity, and the per-file counts match the
    resident blocks. For tests. *)

val observe : ?prefix:string -> Obs.Registry.t -> (unit -> t) -> unit
(** Register pull gauges (hits, misses, hit ratio, resident bytes)
    under [prefix] (default ["guest.page_cache"]). The cache is fetched
    through the getter on every read, so gauges follow a cache replaced
    by a cold reboot. *)
