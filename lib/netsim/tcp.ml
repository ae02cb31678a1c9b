type config = {
  rto_initial_s : float;
  rto_max_s : float;
  max_retries : int;
}

let default = { rto_initial_s = 1.0; rto_max_s = 64.0; max_retries = 15 }

let retransmit_offsets cfg =
  let rec go acc elapsed rto n =
    if n = 0 then List.rev acc
    else
      let fire = elapsed +. rto in
      let next_rto = Float.min (rto *. 2.0) cfg.rto_max_s in
      go (fire :: acc) fire next_rto (n - 1)
  in
  go [] 0.0 cfg.rto_initial_s cfg.max_retries

let give_up_after cfg =
  match List.rev (retransmit_offsets cfg) with
  | [] -> cfg.rto_initial_s
  | last :: _ -> last +. cfg.rto_max_s

let survives ?(config = default) ~outage_s ?client_timeout_s () =
  if outage_s < 0.0 then invalid_arg "Tcp.survives: negative outage";
  let stack_alive = outage_s < give_up_after config in
  let client_alive =
    match client_timeout_s with
    | Some limit -> outage_s < limit
    | None -> true
  in
  stack_alive && client_alive
