(* Simkit.Enum — the one string<->value mapping every CLI-facing
   enumeration goes through — and the Scenario.Config record that
   replaced Scenario.create's optional-argument pile. *)
open Helpers
module Enum = Simkit.Enum

type fruit = Apple | Pear | Quince

let fruits =
  Enum.make ~what:"fruit"
    ~aliases:[ ("reinette", Apple) ]
    [ ("apple", Apple); ("pear", Pear); ("quince", Quince) ]

let test_names_and_values () =
  Alcotest.(check (list string))
    "canonical names, declaration order" [ "apple"; "pear"; "quince" ]
    (Enum.names fruits);
  check_int "three values" 3 (List.length (Enum.values fruits));
  Alcotest.(check string) "name of value" "pear" (Enum.name fruits Pear)

let test_of_string_case_and_aliases () =
  let ok s v =
    match Enum.of_string fruits s with
    | Ok got -> check_true (Printf.sprintf "%S parses" s) (got = v)
    | Error (`Msg m) -> Alcotest.failf "%S rejected: %s" s m
  in
  ok "apple" Apple;
  ok "APPLE" Apple;
  ok "Quince" Quince;
  (* aliases parse but never appear in listings *)
  ok "reinette" Apple;
  ok "ReInEtTe" Apple;
  check_false "alias not listed" (List.mem "reinette" (Enum.names fruits))

let test_rejection_message_shape () =
  (match Enum.of_string fruits "mango" with
  | Ok _ -> Alcotest.fail "mango accepted"
  | Error (`Msg m) ->
    Alcotest.(check string)
      "uniform error message"
      "unknown fruit \"mango\"; expected one of apple, pear, quince" m);
  check_true "of_string_opt" (Enum.of_string_opt fruits "mango" = None);
  (try
     ignore (Enum.of_string_exn fruits "mango");
     Alcotest.fail "of_string_exn did not raise"
   with Invalid_argument _ -> ());
  Alcotest.(check string)
    "expecting clause" "expected one of apple, pear, quince"
    (Enum.expecting fruits)

let test_make_validates () =
  let invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_true "empty entries rejected"
    (invalid (fun () -> Enum.make ~what:"x" []));
  check_true "non-lowercase canonical rejected"
    (invalid (fun () -> Enum.make ~what:"x" [ ("Apple", Apple) ]));
  check_true "duplicate name rejected"
    (invalid (fun () -> Enum.make ~what:"x" [ ("a", Apple); ("a", Pear) ]));
  check_true "alias clashing with name rejected"
    (invalid (fun () ->
         Enum.make ~what:"x" ~aliases:[ ("a", Pear) ] [ ("a", Apple) ]))

(* The four shapes the tree used to parse by hand, now all wired to
   [Enum]: same spellings keep working, same error text everywhere. *)
let test_wired_enums () =
  check_true "strategy: cold-vm reboot alias"
    (Rejuv.Strategy.of_string "cold-vm reboot" = Some Rejuv.Strategy.Cold);
  check_true "strategy: SAVED"
    (Rejuv.Strategy.of_string "SAVED" = Some Rejuv.Strategy.Saved);
  check_true "strategy: tepid rejected" (Rejuv.Strategy.of_string "tepid" = None);
  Alcotest.(check (list string))
    "workloads" [ "ssh"; "jboss"; "web" ]
    (Enum.names Rejuv.Scenario.workload_enum);
  check_true "metrics format alias"
    (Obs.Export.format_of_string "prometheus" = Ok Obs.Export.Prom);
  check_true "wave strategy alias"
    (Rejuv.Wave.strategy_of_string "migrate-then-reboot"
    = Ok Rejuv.Wave.Migrate);
  check_true "wave strategy reboot"
    (Rejuv.Wave.strategy_of_string "warm"
    = Ok (Rejuv.Wave.Reboot Rejuv.Strategy.Warm));
  Alcotest.(check string)
    "wave strategy id" "migrate"
    (Rejuv.Wave.strategy_id Rejuv.Wave.Migrate)

(* Scenario.Config: the record that replaced seven optional args. *)
let test_scenario_config_defaults () =
  let d = Rejuv.Scenario.Config.default in
  check_int "seed" 42 d.Rejuv.Scenario.Config.seed;
  check_int "one VM" 1 d.Rejuv.Scenario.Config.vm_count;
  check_int "1 GiB" (Simkit.Units.gib 1) d.Rejuv.Scenario.Config.vm_mem_bytes;
  check_int "no drivers" 0 d.Rejuv.Scenario.Config.driver_vm_count;
  check_true "ssh workload" (d.Rejuv.Scenario.Config.workload = Rejuv.Scenario.Ssh);
  check_true "no shared engine" (d.Rejuv.Scenario.Config.engine = None)

let test_scenario_config_combinators () =
  let open Rejuv.Scenario.Config in
  let c =
    default
    |> with_vms 4 ~mem_bytes:(Simkit.Units.gib 2)
    |> with_workload Rejuv.Scenario.Jboss
    |> with_seed 7 |> with_drivers 2 |> with_prefix "h1-"
  in
  check_int "vms" 4 c.vm_count;
  check_int "mem" (Simkit.Units.gib 2) c.vm_mem_bytes;
  check_true "workload" (c.workload = Rejuv.Scenario.Jboss);
  check_int "seed" 7 c.seed;
  check_int "drivers" 2 c.driver_vm_count;
  Alcotest.(check string) "prefix" "h1-" c.name_prefix;
  (* and the record builds a working scenario *)
  let s = Rejuv.Scenario.create { default with vm_count = 2 } in
  check_int "two VMs materialised" 2 (List.length (Rejuv.Scenario.vms s))

let suite =
  ( "enum",
    [
      Alcotest.test_case "names and values" `Quick test_names_and_values;
      Alcotest.test_case "case-insensitive + aliases" `Quick
        test_of_string_case_and_aliases;
      Alcotest.test_case "rejection message" `Quick test_rejection_message_shape;
      Alcotest.test_case "make validates" `Quick test_make_validates;
      Alcotest.test_case "wired enums" `Quick test_wired_enums;
      Alcotest.test_case "scenario config defaults" `Quick
        test_scenario_config_defaults;
      Alcotest.test_case "scenario config combinators" `Quick
        test_scenario_config_combinators;
    ] )
