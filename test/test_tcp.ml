open Helpers
module Tcp = Netsim.Tcp

let test_retransmit_schedule () =
  let cfg = { Tcp.rto_initial_s = 1.0; rto_max_s = 8.0; max_retries = 6 } in
  Alcotest.(check (list (float 1e-9)))
    "exponential backoff capped"
    [ 1.0; 3.0; 7.0; 15.0; 23.0; 31.0 ]
    (Tcp.retransmit_offsets cfg)

let test_give_up () =
  let cfg = { Tcp.rto_initial_s = 1.0; rto_max_s = 8.0; max_retries = 6 } in
  check_float "last retry + capped wait" 39.0 (Tcp.give_up_after cfg)

let test_default_window_generous () =
  (* Linux-like defaults give up after roughly 15 minutes. *)
  let w = Tcp.give_up_after Tcp.default in
  check_in_band "~13-16 min" ~lo:700.0 ~hi:1100.0 w

let test_short_outage_survives () =
  check_true "survives" (Tcp.survives ~outage_s:42.0 ())

let test_very_long_outage_dies () =
  check_false "stack gives up" (Tcp.survives ~outage_s:2000.0 ())

let test_client_timeout () =
  (* The paper's observation: with a 60 s client timeout, the ssh
     session survives the warm-VM reboot (42 s) but not the saved-VM
     reboot (429 s). *)
  check_true "warm survives"
    (Tcp.survives ~outage_s:42.0 ~client_timeout_s:60.0 ());
  check_false "saved times out"
    (Tcp.survives ~outage_s:429.0 ~client_timeout_s:60.0 ());
  (* Without the client timeout both survive the stack's window. *)
  check_true "saved survives without client timeout"
    (Tcp.survives ~outage_s:429.0 ())

let test_zero_outage () =
  check_true "trivial" (Tcp.survives ~outage_s:0.0 ());
  check_true "negative rejected"
    (try ignore (Tcp.survives ~outage_s:(-1.0) ()); false
     with Invalid_argument _ -> true)

let prop_longer_outages_never_help =
  qtest "survival is monotone in outage length"
    QCheck.(pair (float_range 0.0 1500.0) (float_range 0.0 1500.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      (* If the long outage survives, the short one must too. *)
      (not (Tcp.survives ~outage_s:hi ())) || Tcp.survives ~outage_s:lo ())

let prop_offsets_increasing =
  qtest "retransmit offsets strictly increase"
    QCheck.(pair (float_range 0.1 5.0) (int_range 1 20))
    (fun (rto, retries) ->
      let cfg =
        { Tcp.rto_initial_s = rto; rto_max_s = rto *. 16.0;
          max_retries = retries }
      in
      let offsets = Tcp.retransmit_offsets cfg in
      List.length offsets = retries
      &&
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      increasing offsets)

let suite =
  ( "tcp",
    [
      Alcotest.test_case "retransmit schedule" `Quick test_retransmit_schedule;
      Alcotest.test_case "give up" `Quick test_give_up;
      Alcotest.test_case "default window" `Quick test_default_window_generous;
      Alcotest.test_case "short outage survives" `Quick
        test_short_outage_survives;
      Alcotest.test_case "long outage dies" `Quick test_very_long_outage_dies;
      Alcotest.test_case "client timeout (paper scenario)" `Quick
        test_client_timeout;
      Alcotest.test_case "zero outage" `Quick test_zero_outage;
      prop_longer_outages_never_help;
      prop_offsets_increasing;
    ] )
