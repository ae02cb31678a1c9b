open Helpers
module Gt = Xenvmm.Grant_table
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Engine = Simkit.Engine

let test_grant_and_map () =
  let t = Gt.create () in
  let r = Gt.grant t ~owner:1 ~grantee:0 ~pfn:5 () in
  check_false "not mapped yet" (Gt.is_mapped t r);
  check_true "map ok" (Gt.map t r ~by:0 = Ok ());
  check_true "mapped" (Gt.is_mapped t r);
  check_int "foreign mapping counted" 1 (Gt.foreign_mappings_of t 1);
  check_int "none for grantee" 0 (Gt.foreign_mappings_of t 0)

let test_only_grantee_can_map () =
  let t = Gt.create () in
  let r = Gt.grant t ~owner:1 ~grantee:0 ~pfn:5 () in
  check_true "stranger refused" (Gt.map t r ~by:7 = Error `Wrong_domain);
  check_true "owner refused" (Gt.map t r ~by:1 = Error `Wrong_domain)

let test_double_map_refused () =
  let t = Gt.create () in
  let r = Gt.grant t ~owner:1 ~grantee:0 ~pfn:5 () in
  check_true "first" (Gt.map t r ~by:0 = Ok ());
  check_true "second refused" (Gt.map t r ~by:0 = Error `Still_mapped);
  Gt.release_domain t 0;
  check_true "remappable once the grantee let go" (Gt.map t r ~by:0 = Ok ())

let test_bad_ref () =
  let t = Gt.create () in
  check_true "map" (Gt.map t 42 ~by:0 = Error `Bad_ref)

let test_self_grant_rejected () =
  let t = Gt.create () in
  check_true "raises"
    (try ignore (Gt.grant t ~owner:1 ~grantee:1 ~pfn:0 ()); false
     with Invalid_argument _ -> true)

let test_release_domain () =
  let t = Gt.create () in
  (* Domain 1 grants to dom0; dom0 grants something to domain 1 too. *)
  let r1 = Gt.grant t ~owner:1 ~grantee:0 ~pfn:0 () in
  let r2 = Gt.grant t ~owner:1 ~grantee:0 ~pfn:1 () in
  let r3 = Gt.grant t ~owner:0 ~grantee:1 ~pfn:9 () in
  check_true "m1" (Gt.map t r1 ~by:0 = Ok ());
  check_true "m3" (Gt.map t r3 ~by:1 = Ok ());
  Gt.release_domain t 1;
  check_true "owned grants dropped" (Gt.grants_owned_by t 1 = []);
  check_true "r1 gone" (Gt.map t r1 ~by:0 = Error `Bad_ref);
  check_true "r2 gone" (Gt.map t r2 ~by:0 = Error `Bad_ref);
  check_false "held mapping released" (Gt.is_mapped t r3);
  check_int "dom0's grant survives" 1 (List.length (Gt.grants_owned_by t 0));
  check_true "invariants" (Gt.check_invariants t = Ok ())

let test_listing () =
  let t = Gt.create () in
  let r1 = Gt.grant t ~owner:1 ~grantee:0 ~pfn:0 () in
  let r2 = Gt.grant t ~owner:1 ~grantee:2 ~pfn:1 () in
  check_true "owned" (Gt.grants_owned_by t 1 = [ r1; r2 ]);
  check_true "m2" (Gt.map t r2 ~by:2 = Ok ());
  check_true "held" (Gt.mappings_held_by t 2 = [ r2 ]);
  check_true "dom0 holds none" (Gt.mappings_held_by t 0 = [])

(* --- integration with the guest kernel ------------------------------------ *)

let booted_kernel () =
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create host in
  run_task engine (Vmm.power_on vmm);
  let r = ref None in
  Vmm.create_domain vmm ~name:"vm01" ~mem_bytes:(Simkit.Units.gib 1)
    (fun x -> r := Some x);
  Engine.run engine;
  match !r with
  | Some (Ok d) ->
    let kernel = Guest.Kernel.create vmm d () in
    run_task engine (Guest.Kernel.boot kernel);
    (engine, vmm, d, kernel)
  | _ -> Alcotest.fail "setup failed"

let test_boot_establishes_rings () =
  let _engine, vmm, d, kernel = booted_kernel () in
  check_int "four ring grants" 4
    (List.length (Guest.Kernel.io_ring_grants kernel));
  check_int "dom0 maps them" 4
    (Gt.foreign_mappings_of (Vmm.grants vmm) (Domain.id d))

let test_suspend_tears_rings_down_resume_rebuilds () =
  let engine, vmm, d, kernel = booted_kernel () in
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "suspended cleanly" (Domain.state d = Domain.Suspended);
  check_int "rings down" 0 (List.length (Guest.Kernel.io_ring_grants kernel));
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "reloaded" (!reloaded = Some (Ok ()));
  run_task engine (Vmm.boot_dom0 vmm);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  check_true "resumed" (!resumed = Some (Ok ()));
  check_int "rings re-established with the new dom0" 4
    (List.length (Guest.Kernel.io_ring_grants kernel));
  check_int "mapped again" 4
    (Gt.foreign_mappings_of (Vmm.grants vmm) (Domain.id d))

let test_foreign_mapping_blocks_freeze () =
  (* A buggy guest whose suspend handler does not tear its rings down
     cannot be frozen — it crashes instead of corrupting shared pages. *)
  let engine, vmm, d, _kernel = booted_kernel () in
  Domain.set_suspend_handler d (fun k -> k ());
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "crashed, not frozen" (Domain.state d = Domain.Crashed)

let prop_foreign_count_matches_mappings =
  qtest ~count:100 "foreign mapping count is consistent"
    QCheck.(list (pair (int_range 1 3) (int_range 0 9)))
    (fun specs ->
      let t = Gt.create () in
      let refs =
        List.map
          (fun (owner, pfn) ->
            let r = Gt.grant t ~owner ~grantee:0 ~pfn () in
            let _ = Gt.map t r ~by:0 in
            (owner, r))
          specs
      in
      let count_for owner =
        List.length (List.filter (fun (o, _) -> o = owner) refs)
      in
      List.for_all
        (fun owner -> Gt.foreign_mappings_of t owner = count_for owner)
        [ 1; 2; 3 ]
      && Gt.check_invariants t = Ok ())

let suite =
  ( "grant_table",
    [
      Alcotest.test_case "grant and map" `Quick test_grant_and_map;
      Alcotest.test_case "only grantee maps" `Quick test_only_grantee_can_map;
      Alcotest.test_case "double map refused" `Quick test_double_map_refused;
      Alcotest.test_case "bad ref" `Quick test_bad_ref;
      Alcotest.test_case "self grant rejected" `Quick test_self_grant_rejected;
      Alcotest.test_case "release domain" `Quick test_release_domain;
      Alcotest.test_case "listing" `Quick test_listing;
      Alcotest.test_case "boot establishes rings" `Quick
        test_boot_establishes_rings;
      Alcotest.test_case "suspend/resume ring lifecycle" `Quick
        test_suspend_tears_rings_down_resume_rebuilds;
      Alcotest.test_case "foreign mapping blocks freeze" `Quick
        test_foreign_mapping_blocks_freeze;
      prop_foreign_count_matches_mappings;
    ] )
