(** Named metric registry.

    Counters and histograms are get-or-create: asking twice for the
    same name returns the same instrument, which is how metrics from
    successive scenarios in one process accumulate. Gauges read live
    component state and follow last-registration-wins, so a component
    rebuilt by a reboot simply re-registers its read-outs.

    Iteration is always sorted by metric name, so exports are
    deterministic regardless of registration order. *)

type metric =
  | Counter of Metric.Counter.t
  | Gauge of Metric.gauge
  | Histogram of Metric.Histogram.t

type t

val create : unit -> t

val counter : t -> ?window:float -> string -> Metric.Counter.t
(** Get or create. Raises [Invalid_argument] if [name] is already
    registered as a different kind of metric. *)

val histogram : t -> ?buckets_per_decade:int -> string -> Metric.Histogram.t

val gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a pull gauge reading live state. *)

val set_gauge : t -> string -> float -> unit
(** Store a point value; creates the gauge when missing. *)

val register : t -> string -> metric -> unit
(** Attach an existing instrument (e.g. a histogram owned by a
    component) under [name], replacing any previous registration. *)

val find : t -> string -> metric option
val metrics : t -> (string * metric) list
(** All metrics sorted by name. *)

val cardinality : t -> int
