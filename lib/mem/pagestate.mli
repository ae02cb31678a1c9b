(** Per-domain page-state model: a seeded working-set process and
    dirty-rate modulation, layered over the pfn space that
    [Xenvmm.P2m] maintains. It tracks how many pages are hot and how
    fast they are dirtied, not which pages: the balloon target, the
    streamed restore's hot set and the migration pre-copy's dirty rate
    need only those figures.

    Pages are in one of three states: {e resident} (backed by a machine
    frame), {e ballooned} (returned to the hypervisor by the balloon
    driver; always the tail of the pfn space, matching how
    [Vmm.balloon] shrinks the p2m), or {e cold-on-disk} during a
    streamed restore (tracked separately by {!Stream}).

    {b Determinism.} The tracker owns a private RNG seeded from
    [memdyn.seed] and a stable hash of the domain name — never from
    creation order or shard placement — so fleet partitioning cannot
    perturb the streams. Evolution is {e lazy and epoch-quantized}:
    nothing is scheduled on the engine (a perpetual sampler would stop
    [Engine.run] from ever draining); instead {!refresh} advances the
    process by exactly one fixed set of draws per elapsed
    [sample_interval_s], so the state at simulated time [t] is a pure
    function of [(seed, t)] regardless of how often or from where it
    was observed. All read accessors are draw-free and safe to call
    from metrics gauges. *)

type t

val create :
  memdyn:Memdyn.t -> name:string -> total_bytes:int -> now:float -> t
(** [create ~memdyn ~name ~total_bytes ~now] seeds the working-set
    process for a domain with [total_bytes] of configured RAM, anchored
    at simulated time [now]. Draws once to place the base working set
    within [working_set_fraction ± jitter]. *)

val refresh : t -> now:float -> unit
(** Advance the process to time [now]: one working-set draw, one
    dirty-rate draw and one draw whose value is discarded (it holds the
    seeded stream position) per whole elapsed sampling epoch.
    Idempotent within an epoch. *)

val cfg : t -> Memdyn.t
(** The configuration the tracker was created with. *)

val total_pages : t -> int
val resident_pages : t -> int
(** [total_pages - ballooned_pages]. *)

val resident_bytes : t -> int
val ballooned_pages : t -> int
val working_set_pages : t -> int
(** Current hot-set size, clamped to the resident range. *)

val working_set_bytes : t -> int

val dirty_rate_factor : t -> float
(** Multiplicative modulation, in [[1 - 0.25, 1 + 0.25]], that the
    current epoch applies to the workload's static dirty rate. *)

val dirty_rate_pages_per_s : t -> float
(** Tracker-intrinsic dirty-rate estimate: the current working set is
    touched once per sampling epoch, modulated by
    {!dirty_rate_factor}. Feeds the [mem.dirty_rate] gauge. *)

val set_ballooned : t -> pages:int -> unit
(** Record that the tail [pages] of the pfn space are ballooned out.
    @raise Invalid_argument if [pages] is negative or >= total. *)

val pp : Format.formatter -> t -> unit
