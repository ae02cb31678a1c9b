(* D012 cases: the exports of a lib-like unit, and which of them the
   root unit (Lfx_main) reaches. *)

val direct : int -> int
(** Called by the root. *)

module Inner : sig
  val via_alias : int -> int
  (** Reached only through [Lfx_alias.Api], a module alias. *)

  val via_let_module : int -> int
  (** Reached only through a [let module] alias in the root. *)
end

val from_init : unit -> int
(** Reached only from the root's [let () =] item. *)

val from_lib_init : unit -> int
(** Reached only from this unit's own [let () =] item. *)

val test_only : int -> int
(** Used only by Lfx_test: flagged. *)

val unused : int -> int
(** Used by nothing: flagged. *)

val pp : Format.formatter -> int -> unit
(** A pretty-printer: never flagged. *)
