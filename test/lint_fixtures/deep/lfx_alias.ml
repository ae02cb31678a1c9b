(* A lib-like unit that only re-exports a module under another name. *)

module Api = Lfx_api.Inner
