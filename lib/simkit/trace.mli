(** Timestamped span and event tracing.

    Records named operation intervals (e.g. "suspend domUs", "quick
    reload", "boot OSes") so the harness can print the Figure 7
    breakdown of a reboot, and instantaneous markers for point events. *)

type t

type span

val create : Engine.t -> t

val begin_span : t -> string -> span
(** Opens a named interval starting now. *)

val end_span : t -> span -> unit
(** Closes the interval at the current time. Idempotent. *)

val instant : t -> string -> unit
(** Records a point event at the current time. *)

val spans : t -> (string * float * float) list
(** Completed spans as (label, start, stop), in start order. *)

val instants : t -> (string * float) list
(** Point events in time order. *)

val find_span : t -> string -> (float * float) option
(** First completed span with the given label. *)

val pp : Format.formatter -> t -> unit
(** Renders spans as an indented timeline, for reports. *)

val to_chrome_json : t -> string
(** Serialize completed spans and instants in the Chrome trace-event
    format (load via chrome://tracing or https://ui.perfetto.dev).
    Simulated seconds are encoded as microseconds of trace time. *)
