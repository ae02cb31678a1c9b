(* Two wrappers deep: the chain Lfx_sim.step -> Lfx_mid.wrap_bad ->
   Lfx_clock.now_raw -> Unix.gettimeofday is what [--why] prints. *)

let step () = Lfx_mid.wrap_bad () +. 1.0

let healthy () = Lfx_mid.wrap_ok () +. 1.0

let () = ignore (Lfx_mid.wrap_bad () +. 1.0)
