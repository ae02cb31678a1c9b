(** Exporters: render a registry to a string. Nothing here prints —
    callers decide where bytes go.

    Output is deterministic: metrics are sorted by name and floats use
    the fixed {!Simkit.Jsonx} representation, so a seeded run exports
    byte-identically every time. Empty histograms render their
    statistics as JSON nulls / empty CSV cells instead of raising. *)

type format = Json | Csv | Prom

val format_enum : format Simkit.Enum.t
(** ["json"], ["csv"], ["prom"] (alias ["prometheus"]). *)

val to_json : now:float -> Registry.t -> string
(** Schema ["roothammer-obs/1"]: a [metrics] object keyed by name.
    [now] is the simulation time of the export (counter rates are
    relative to it). *)

val to_csv : now:float -> Registry.t -> string
(** Long-form [metric,type,field,value] rows. *)

val to_prometheus : now:float -> Registry.t -> string
(** Prometheus text exposition format; metric names are prefixed with
    [roothammer_] and sanitised. *)

val render : format -> now:float -> Registry.t -> string
