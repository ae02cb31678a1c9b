(** Memory-dynamics configuration: what the simulator assumes about
    guest memory between "every page always resident" (the paper's
    model) and the ballooning / demand-paged-streaming techniques of
    the follow-on literature.

    One value of {!t} is attached to a VMM ({!Xenvmm.Vmm.set_memdyn})
    and governs every domain it hosts. The default is {!off}, which
    must be — and is tested to be — behaviourally invisible: no
    trackers, no extra events, no RNG draws, byte-identical seeded
    output. *)

type mode =
  | Off  (** Saved image is the full RAM; restore is stop-and-copy. *)
  | Balloon
      (** Reclaim idle pages before suspend so the image shrinks to
          O(resident − reclaimed). *)
  | Stream
      (** Restore only the working set before resuming; cold pages
          fault in over disk bandwidth while the guest serves. *)
  | Balloon_stream  (** Both techniques combined. *)

val mode_enum : mode Simkit.Enum.t
(** CLI-facing names: [off], [balloon], [stream], [balloon_stream]
    (alias [none] for [off], [full] for [balloon_stream]). *)

val mode_name : mode -> string

type t = {
  mode : mode;
  working_set_fraction : float;
      (** Mean fraction of configured RAM that is hot (touched within a
          sampling epoch). Default 0.35 — a web/app guest keeps roughly
          a third of its RAM warm. *)
  working_set_jitter : float;
      (** Half-width of the per-epoch multiplicative jitter applied to
          the working set, in fractions of its base size. Default 0.2. *)
  sample_interval_s : float;
      (** Working-set and dirty-rate sampling epoch: the tracker
          redraws both once per epoch. Default 5 s. *)
  balloon_floor_bytes : int;
      (** Resident memory the balloon driver never reclaims below,
          whatever the working set says. Default 64 MiB. *)
  balloon_headroom : float;
      (** The balloon target keeps [working_set * headroom] resident.
          Default 1.25. *)
  stream_batch_bytes : int;
      (** Background fault-in granularity of the streamed restore.
          Default 2 MiB. *)
  fault_tax_s : float;
      (** Worst-case per-request latency tax while the whole cold set
          is still on disk; decays linearly as pages arrive. Default
          30 ms (one random read on 2007 spindles). *)
  seed : int;
      (** Base seed for the per-domain working-set processes; combined
          with a stable hash of the domain name so partitioning and
          creation order cannot change the streams. *)
}

val off : t
(** [mode = Off] with every knob at its default. *)

val default : mode -> t
(** Defaults with the given mode. *)

val validate : t -> t
(** Returns its argument.
    @raise Invalid_argument if a fraction is outside its range or a
    size/interval is non-positive. *)

val enabled : t -> bool
(** [mode <> Off]. *)

val balloon_enabled : t -> bool
val stream_enabled : t -> bool

val pp : Format.formatter -> t -> unit
