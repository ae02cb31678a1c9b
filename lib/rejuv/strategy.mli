(** The three VMM rejuvenation strategies the paper compares. *)

type t =
  | Warm  (** warm-VM reboot: on-memory suspend/resume + quick reload *)
  | Saved  (** saved-VM reboot: stock Xen suspend/resume through disk *)
  | Cold  (** cold-VM reboot: guest shutdown + hardware reset + boot *)

val all : t list

val name : t -> string
(** Long display name, e.g. ["warm-VM reboot"]. *)

val id : t -> string
(** Short machine name — ["warm"], ["saved"] or ["cold"] — stable for
    CSV/JSON output and cache keys; accepted back by {!of_string}. *)

val enum : t Simkit.Enum.t
(** The {!Simkit.Enum} behind {!id} and the parsers: canonical names
    ["warm"]/["saved"]/["cold"] plus the long spellings as aliases. *)

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

val restarts_services : t -> bool
