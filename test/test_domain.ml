open Helpers
module Domain = Xenvmm.Domain

let make () =
  Domain.create ~id:1 ~name:"vm01" ~kind:Domain.DomU
    ~mem_bytes:(Simkit.Units.gib 1)

let test_initial_state () =
  let d = make () in
  check_true "created" (Domain.state d = Domain.Created);
  check_int "id" 1 (Domain.id d);
  check_true "domu" (Domain.is_domu d);
  check_int "mem" (Simkit.Units.gib 1) (Domain.mem_bytes d);
  check_true "no exec state" (Domain.exec_state d = None)

let test_lifecycle_happy_path () =
  let d = make () in
  List.iter (Domain.set_state d)
    [ Domain.Booting; Domain.Running; Domain.Suspending; Domain.Suspended;
      Domain.Resuming; Domain.Running; Domain.Shutting_down; Domain.Halted;
      Domain.Booting; Domain.Running ]

let test_save_path () =
  let d = make () in
  List.iter (Domain.set_state d)
    [ Domain.Booting; Domain.Running; Domain.Saving; Domain.Saved_to_disk;
      Domain.Resuming; Domain.Running ]

let test_illegal_transitions () =
  let attempt from to_ =
    let d = make () in
    (* Drive to [from] through a legal path where needed. *)
    (match from with
    | Domain.Created -> ()
    | Domain.Running ->
      Domain.set_state d Domain.Booting;
      Domain.set_state d Domain.Running
    | Domain.Suspended ->
      Domain.set_state d Domain.Booting;
      Domain.set_state d Domain.Running;
      Domain.set_state d Domain.Suspending;
      Domain.set_state d Domain.Suspended
    | _ -> Alcotest.fail "unsupported test setup");
    check_true
      (Printf.sprintf "%s -> %s rejected" (Domain.state_name from)
         (Domain.state_name to_))
      (try Domain.set_state d to_; false with Invalid_argument _ -> true)
  in
  attempt Domain.Created Domain.Running;
  attempt Domain.Created Domain.Suspended;
  attempt Domain.Running Domain.Resuming;
  attempt Domain.Suspended Domain.Running;
  attempt Domain.Suspended Domain.Shutting_down

let test_crash_from_anywhere () =
  let d = make () in
  Domain.set_state d Domain.Crashed;
  let d2 = make () in
  Domain.set_state d2 Domain.Booting;
  Domain.set_state d2 Domain.Crashed;
  Domain.set_state d2 Domain.Booting

let test_observers () =
  let d = make () in
  let log = ref [] in
  Domain.on_state_change d (fun s -> log := Domain.state_name s :: !log);
  Domain.set_state d Domain.Booting;
  Domain.set_state d Domain.Running;
  Alcotest.(check (list string)) "notified" [ "booting"; "running" ]
    (List.rev !log)

let test_devices () =
  let d = make () in
  Domain.attach_device d "vbd";
  Domain.attach_device d "vif";
  Domain.attach_device d "vbd";
  check_int "no duplicates" 2 (List.length (Domain.devices d));
  let had = Domain.detach_all_devices d in
  Alcotest.(check (list string)) "returned" [ "vif"; "vbd" ] had;
  check_int "empty" 0 (List.length (Domain.devices d))

let test_handlers_default_immediate () =
  let d = make () in
  let fired = ref false in
  Domain.suspend_handler d (fun () -> fired := true);
  check_true "default suspend handler immediate" !fired;
  fired := false;
  Domain.resume_handler d (fun () -> fired := true);
  check_true "default resume handler immediate" !fired

let test_handlers_replaceable () =
  let d = make () in
  let called = ref 0 in
  Domain.set_suspend_handler d (fun k -> incr called; k ());
  Domain.suspend_handler d (fun () -> ());
  check_int "custom handler" 1 !called

let test_bad_create () =
  check_true "zero memory rejected"
    (try
       ignore (Domain.create ~id:0 ~name:"x" ~kind:Domain.DomU ~mem_bytes:0);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "domain",
    [
      Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "lifecycle happy path" `Quick test_lifecycle_happy_path;
      Alcotest.test_case "save path" `Quick test_save_path;
      Alcotest.test_case "illegal transitions" `Quick test_illegal_transitions;
      Alcotest.test_case "crash from anywhere" `Quick test_crash_from_anywhere;
      Alcotest.test_case "observers" `Quick test_observers;
      Alcotest.test_case "devices" `Quick test_devices;
      Alcotest.test_case "default handlers" `Quick
        test_handlers_default_immediate;
      Alcotest.test_case "handlers replaceable" `Quick test_handlers_replaceable;
      Alcotest.test_case "bad create" `Quick test_bad_create;
    ] )
