(* Analyzed as a test (test/): never a root. *)

let check () = Lfx_api.test_only 1 = 7
