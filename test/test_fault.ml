(* The typed fault model and injection plane: stable fault ids,
   strategy name round-trips, deterministic Plan triggers, and the
   fault-campaign acceptance bar — every strategy survives every
   single-site injection with a reported recovery outcome, and the
   fault_matrix experiment is byte-reproducible under a fixed seed. *)
open Helpers
module Fault = Simkit.Fault
module Plan = Simkit.Fault.Plan
module Strategy = Rejuv.Strategy
module Fault_matrix = Rejuv.Fault_matrix
module Spec = Rejuv.Experiment.Spec

(* --- taxonomy ------------------------------------------------------------- *)

let test_strategy_round_trip () =
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "of_string (id %s) round-trips" (Strategy.id s))
        (Strategy.of_string (Strategy.id s) = Some s))
    Strategy.all;
  check_true "unknown strategy rejected" (Strategy.of_string "tepid" = None)

let test_fault_ids_distinct () =
  let samples =
    [
      Fault.Disk_full;
      Fault.Out_of_memory;
      Fault.Heap_exhausted;
      Fault.Vmm_down;
      Fault.Bad_domain_state "running";
      Fault.Image_lost "vm0";
      Fault.No_image_staged;
      Fault.Suspend_failed "vm0";
      Fault.Resume_failed "vm0";
      Fault.Reload_failed;
      Fault.Driver_timeout "drv0";
      Fault.Boot_failed "vm0";
      Fault.Not_recovered "vm0";
      Fault.Stalled "step";
      Fault.Timeout { what = "step"; deadline_s = 1.0 };
      Fault.Invariant "bug";
    ]
  in
  let rendered = List.map Fault.to_string samples in
  check_int "one distinct rendering per constructor"
    (List.length rendered)
    (List.length (List.sort_uniq String.compare rendered));
  List.iter (fun s -> check_true "to_string non-empty" (s <> "")) rendered

let test_injection_sites_sorted () =
  let sites = List.map fst Fault.injection_sites in
  check_true "sites sorted" (List.sort String.compare sites = sites);
  List.iter
    (fun s -> check_true (s ^ " recognised") (Fault.is_injection_site s))
    sites;
  check_false "unknown site rejected" (Fault.is_injection_site "vmm.explode")

(* --- the injection plan --------------------------------------------------- *)

let test_plan_on_nth () =
  let plan = Plan.create ~seed:7 () in
  Plan.arm plan ~site:"vmm.suspend" (Plan.On_nth 3);
  let fires = List.init 5 (fun _ -> Plan.fires plan ~site:"vmm.suspend") in
  Alcotest.(check (list bool))
    "fires on exactly the 3rd call"
    [ false; false; true; false; false ]
    fires;
  check_int "calls counted" 5 (Plan.calls plan ~site:"vmm.suspend");
  check_int "fired once" 1 (Plan.fired plan ~site:"vmm.suspend")

let test_plan_unarmed_never_fires () =
  let plan = Plan.create () in
  for _ = 1 to 10 do
    check_false "unarmed site quiet" (Plan.fires plan ~site:"disk.write")
  done;
  check_int "nothing fired" 0 (Plan.total_fired plan)

let test_plan_prob_deterministic () =
  let sequence seed =
    let plan = Plan.create ~seed () in
    Plan.arm plan ~site:"xend.resume" (Plan.Prob 0.5);
    List.init 64 (fun _ -> Plan.fires plan ~site:"xend.resume")
  in
  Alcotest.(check (list bool))
    "same seed, same firing sequence" (sequence 42) (sequence 42);
  let a = sequence 42 and b = sequence 43 in
  check_true "different seeds diverge" (a <> b);
  check_true "p=0.5 actually fires sometimes" (List.mem true a);
  check_true "p=0.5 actually skips sometimes" (List.mem false a)

let test_plan_arm_resets_and_validates () =
  let plan = Plan.create () in
  Plan.arm plan ~site:"vmm.reload" Plan.Always;
  ignore (Plan.fires plan ~site:"vmm.reload");
  Plan.arm plan ~site:"vmm.reload" Plan.Never;
  check_int "re-arming resets counters" 0 (Plan.calls plan ~site:"vmm.reload");
  check_false "Never holds fire" (Plan.fires plan ~site:"vmm.reload");
  Alcotest.(check (list string)) "re-arming keeps one entry" [ "vmm.reload" ]
    (Plan.armed_sites plan);
  match Plan.arm plan ~site:"bogus.site" Plan.Always with
  | () -> Alcotest.fail "arming an unknown site must be rejected"
  | exception Fault.Error (Fault.Invariant _) -> ()

(* --- the fault campaign --------------------------------------------------- *)

let test_every_cell_recovers () =
  (* The acceptance bar: every strategy survives each single-site
     injection with a reported recovery outcome instead of an abort. *)
  List.iter
    (fun (cell : Fault_matrix.cell) ->
      let label =
        Printf.sprintf "%s x %s"
          (Strategy.id cell.Fault_matrix.fm_strategy)
          cell.Fault_matrix.fm_site
      in
      check_true (label ^ ": recovered") cell.Fault_matrix.recovered;
      check_true (label ^ ": injected at most once")
        (cell.Fault_matrix.injected <= 1);
      check_true (label ^ ": sensible downtime")
        (cell.Fault_matrix.downtime_s > 0.0))
    (List.map
       (fun (strategy, site) -> Fault_matrix.run_cell ~strategy ~site ())
       Fault_matrix.grid)

let test_injected_cell_pays_for_recovery () =
  (* The smoke cell: xend.resume fails once under a warm reboot, the
     policy retries, and the retry both shows up in the outcome and
     costs extra downtime over the fault-free baseline. *)
  let cell = Fault_matrix.run_cell ~strategy:Strategy.Warm ~site:"xend.resume" () in
  check_int "fault injected exactly once" 1 cell.Fault_matrix.injected;
  check_true "recovered" cell.Fault_matrix.recovered;
  check_true "a retry was needed" (cell.Fault_matrix.retries >= 1);
  check_true "completed via some strategy"
    (List.mem cell.Fault_matrix.completed Strategy.all);
  check_true "recovery is not free"
    (cell.Fault_matrix.extra_downtime_s > 0.0)

let test_fault_matrix_byte_identical () =
  let params = { Spec.default_params with seed = 1234; smoke = true } in
  let j1 = experiment_json ~params "fault_matrix" in
  let j2 = experiment_json ~params "fault_matrix" in
  check_true "json non-trivial" (String.length j1 > 2);
  check_true "same seed, byte-identical JSON" (String.equal j1 j2)

let suite =
  ( "fault",
    [
      Alcotest.test_case "strategy ids round-trip" `Quick
        test_strategy_round_trip;
      Alcotest.test_case "fault ids distinct and printable" `Quick
        test_fault_ids_distinct;
      Alcotest.test_case "injection sites canonical" `Quick
        test_injection_sites_sorted;
      Alcotest.test_case "plan: On_nth fires once" `Quick test_plan_on_nth;
      Alcotest.test_case "plan: unarmed never fires" `Quick
        test_plan_unarmed_never_fires;
      Alcotest.test_case "plan: Prob is seed-deterministic" `Quick
        test_plan_prob_deterministic;
      Alcotest.test_case "plan: arm resets, validates sites" `Quick
        test_plan_arm_resets_and_validates;
      Alcotest.test_case "matrix: every cell recovers" `Slow
        test_every_cell_recovers;
      Alcotest.test_case "matrix: injected cell pays for recovery" `Quick
        test_injected_cell_pays_for_recovery;
      Alcotest.test_case "matrix: same seed -> byte-identical JSON" `Quick
        test_fault_matrix_byte_identical;
    ] )
