(** Metric instruments: counters, gauges and deterministic histograms.

    Counters stream: an O(1) total and last-window rate, and no event
    is kept once counted. Histograms use logarithmic buckets whose
    index is a pure function of the observed value, so the same
    observations produce byte-identical exports regardless of order. *)

(** Event counter with a windowed rate. *)
module Counter : sig
  type t

  val create : ?window:float -> unit -> t
  (** [window] (default 1 s, must be positive) sizes the streaming
      buckets behind {!last_window_rate}. *)

  val record : t -> time:float -> unit
  (** Note one event (e.g. one served request) at a timestamp.
      Timestamps must be non-decreasing for the streaming window
      tally to be meaningful (simulated time always is). *)

  val total : t -> int
  (** Events recorded so far. O(1). *)

  val last_window_rate : t -> now:float -> float
  (** Events per second over the last {e completed} [window]-sized
      bucket before [now] (buckets are aligned to multiples of
      [window]). O(1). A bucket with no events reads 0. *)
end

module Histogram : sig
  type t

  val create : ?buckets_per_decade:int -> unit -> t
  (** Log-bucketed histogram. [buckets_per_decade] (default 20, i.e.
      ~12% relative bucket width) fixes the bucket geometry. Raises
      [Invalid_argument] when not positive. *)

  val observe : t -> float -> unit
  (** Record one observation. Values [<= 0] are kept in a dedicated
      underflow bucket (durations of zero happen); NaN raises. *)

  val count : t -> int
  val sum : t -> float

  val mean : t -> float option
  (** [None] when no observations have been recorded — callers never
      have to guard against division by zero. *)

  val min_value : t -> float option
  val max_value : t -> float option

  val quantile : t -> p:float -> float option
  (** Bucket-midpoint quantile estimate, clamped to the exact observed
      [min]/[max]. [None] on an empty histogram; raises
      [Invalid_argument] when [p] is outside [0, 100]. *)

  val p50 : t -> float option
  val p95 : t -> float option
  val p99 : t -> float option

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(index, count)], sorted by index. Bucket
      [i] covers [10^(i/bpd), 10^((i+1)/bpd)). *)

  val bucket_lower : t -> int -> float
  val bucket_upper : t -> int -> float
  val bucket_mid : t -> int -> float
end

type gauge
(** A named read-out: either a pull callback over live simulation state
    or a plain stored value. *)

val gauge_make : (unit -> float) -> gauge
val gauge_const : float -> gauge
val gauge_value : gauge -> float

val gauge_set : gauge -> float -> unit
(** Replace the gauge's read-out with a constant. *)
