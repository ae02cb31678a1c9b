(* Analyzed as a production root (bin/): everything here is reached. *)

let run x = Lfx_api.direct x + Lfx_alias.Api.via_alias x

let twice x =
  let module M = Lfx_api.Inner in
  M.via_let_module x

let () = ignore (Lfx_api.from_init ())
