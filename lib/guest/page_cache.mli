(** Guest file cache (page cache) with LRU replacement.

    An operating system keeps file contents in free memory; losing this
    cache is exactly why the paper's cold-VM reboot degrades throughput
    by 91 % (file reads) and 69 % (web serving) right after the reboot.
    The cache object survives on-memory suspend/resume — its contents
    are part of the preserved memory image — and is cleared by an OS
    boot. *)

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
(** Add a block (after reading it from disk), evicting least-recently-
    used blocks if the cache is full. Re-inserting promotes. *)

val clear : t -> unit
(** Drop everything and reset the counters — an OS reboot. *)

val hits : t -> int
val misses : t -> int

val hit_ratio : t -> float
(** Hits / lookups, 1.0 when no lookups were made. *)

val resident_blocks_of : t -> file:int -> int

val check_invariants : t -> (unit, string) result
(** LRU list and index agree; size within capacity. For tests. *)

val observe : ?prefix:string -> Obs.Registry.t -> (unit -> t) -> unit
(** Register pull gauges (hits, misses, hit ratio, resident bytes)
    under [prefix] (default ["guest.page_cache"]). The cache is fetched
    through the getter on every read, so gauges follow a cache replaced
    by a cold reboot. *)
