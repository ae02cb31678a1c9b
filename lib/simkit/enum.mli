(** Uniform string <-> value mapping for CLI-facing enumerations.

    Every user-facing enum in the tree (reboot strategy, workload,
    metrics format, wave strategy) parses and
    prints through one of these, so they all share the same
    case-insensitive matching and the same rejection message shape:
    ["unknown <what> \"x\"; expected one of a, b, c"]. The [`Msg]
    error is exactly what a [Cmdliner.Arg.conv] parser wants. *)

type 'a t

val make : what:string -> ?aliases:(string * 'a) list -> (string * 'a) list -> 'a t
(** [make ~what entries] builds an enum from [(canonical_name, value)]
    pairs. [what] names the enum in error messages (e.g. ["strategy"]).
    [aliases] are extra accepted spellings that never appear in
    listings or error messages. Names are matched case-insensitively
    and must be given lowercase.

    @raise Invalid_argument on an empty entry list, a non-lowercase
    name, or a duplicate name/alias. *)

val names : 'a t -> string list
(** Canonical names, in declaration order. *)


val name : 'a t -> 'a -> string
(** Canonical name of a value (by structural equality).
    @raise Invalid_argument if the value was never registered. *)

val of_string : 'a t -> string -> ('a, [> `Msg of string ]) result
(** Case-insensitive lookup among names and aliases; the error is
    ["unknown <what> \"s\"; expected one of <names>"]. *)

val of_string_opt : 'a t -> string -> 'a option


val pp : 'a t -> Format.formatter -> 'a -> unit
(** Prints the canonical name. *)

val expecting : 'a t -> string
(** The ["expected one of a, b, c"] clause, for docstrings. *)
