open Helpers
module P2m = Xenvmm.P2m
module Frame = Hw.Frame

let ext first count = { Frame.first; count }

let test_empty () =
  let t = P2m.create () in
  check_int "pages" 0 (P2m.pages t);
  check_int "bytes" 0 (P2m.mapped_bytes t);
  check_true "lookup" (P2m.lookup t ~pfn:0 = None);
  check_true "invariants" (P2m.check_invariants t = Ok ())

let test_add_and_lookup () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 1000 10);
  check_int "pages" 10 (P2m.pages t);
  check_true "first" (P2m.lookup t ~pfn:0 = Some 1000);
  check_true "middle" (P2m.lookup t ~pfn:5 = Some 1005);
  check_true "last" (P2m.lookup t ~pfn:9 = Some 1009);
  check_true "past end" (P2m.lookup t ~pfn:10 = None)

let test_multiple_extents () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 500 4);
  P2m.add_extent t ~pfn_first:4 ~mfns:(ext 100 4);
  check_int "pages" 8 (P2m.pages t);
  check_true "from first" (P2m.lookup t ~pfn:3 = Some 503);
  check_true "from second" (P2m.lookup t ~pfn:4 = Some 100);
  check_true "invariants" (P2m.check_invariants t = Ok ());
  check_int "two machine extents" 2 (List.length (P2m.machine_extents t))

let test_overlap_rejected () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:10 ~mfns:(ext 0 10);
  List.iter
    (fun pfn ->
      check_true
        (Printf.sprintf "overlap at %d" pfn)
        (try
           P2m.add_extent t ~pfn_first:pfn ~mfns:(ext 100 5);
           false
         with Invalid_argument _ -> true))
    [ 10; 15; 19; 6 ];
  (* Adjacent, non-overlapping is fine. *)
  P2m.add_extent t ~pfn_first:20 ~mfns:(ext 100 5);
  P2m.add_extent t ~pfn_first:5 ~mfns:(ext 200 5);
  check_true "invariants" (P2m.check_invariants t = Ok ())

let test_table_bytes () =
  (* 8 bytes per page: the VMM backs a 1 GiB domain's table with 2 MiB
     of machine frames. *)
  let engine = Simkit.Engine.create () in
  let vmm = Xenvmm.Vmm.create (Hw.Host.create engine) in
  run_task engine (Xenvmm.Vmm.power_on vmm);
  let created = ref None in
  Xenvmm.Vmm.create_domain vmm ~name:"vm01" ~mem_bytes:(Simkit.Units.gib 1)
    (fun r -> created := Some r);
  Simkit.Engine.run engine;
  match !created with
  | Some (Ok d) ->
    check_int "2 MiB per GiB" (Simkit.Units.mib 2)
      (Frame.extents_bytes (Xenvmm.Domain.p2m_frames d))
  | _ -> Alcotest.fail "domain creation failed"

let test_remove_range_exact () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 1000 10);
  let released = P2m.remove_range t ~pfn_first:0 ~count:10 in
  check_int "released frames" 10 (Frame.extents_frames released);
  check_int "empty" 0 (P2m.pages t)

let test_remove_range_partial () =
  (* Ballooning down: remove the tail of a run. *)
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 1000 10);
  let released = P2m.remove_range t ~pfn_first:6 ~count:4 in
  check_int "released" 4 (Frame.extents_frames released);
  (match released with
  | [ e ] -> check_int "right frames" 1006 e.Frame.first
  | _ -> Alcotest.fail "expected one extent");
  check_int "remaining" 6 (P2m.pages t);
  check_true "kept head" (P2m.lookup t ~pfn:5 = Some 1005);
  check_true "removed tail" (P2m.lookup t ~pfn:6 = None);
  check_true "invariants" (P2m.check_invariants t = Ok ())

let test_remove_range_middle () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 1000 10);
  let released = P2m.remove_range t ~pfn_first:3 ~count:4 in
  check_int "released" 4 (Frame.extents_frames released);
  check_true "head" (P2m.lookup t ~pfn:2 = Some 1002);
  check_true "hole" (P2m.lookup t ~pfn:4 = None);
  check_true "tail" (P2m.lookup t ~pfn:8 = Some 1008);
  check_int "pages" 6 (P2m.pages t);
  check_true "invariants" (P2m.check_invariants t = Ok ())

let test_remove_unmapped_rejected () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 1000 5);
  check_true "raises"
    (try ignore (P2m.remove_range t ~pfn_first:3 ~count:5); false
     with Invalid_argument _ -> true);
  check_int "unchanged" 5 (P2m.pages t)

let test_remove_all () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 10 5);
  P2m.add_extent t ~pfn_first:5 ~mfns:(ext 100 5);
  let released = P2m.remove_all t in
  check_int "all released" 10 (Frame.extents_frames released);
  check_int "empty" 0 (P2m.pages t)

let test_fold () =
  let t = P2m.create () in
  P2m.add_extent t ~pfn_first:0 ~mfns:(ext 10 5);
  P2m.add_extent t ~pfn_first:5 ~mfns:(ext 20 3);
  let total =
    P2m.fold t ~init:0 ~f:(fun acc ~pfn_first:_ ~mfns -> acc + mfns.Frame.count)
  in
  check_int "fold sums" 8 total

let prop_lookup_consistent =
  qtest ~count:100 "lookup agrees with construction"
    QCheck.(list_of_size (Gen.int_range 1 10) (int_range 1 16))
    (fun sizes ->
      let t = P2m.create () in
      (* Build runs back-to-back in PFN space, machine extents spaced
         out to stay disjoint. *)
      let _ =
        List.fold_left
          (fun (pfn, mfn) count ->
            P2m.add_extent t ~pfn_first:pfn ~mfns:(ext mfn count);
            (pfn + count, mfn + count + 7))
          (0, 0) sizes
      in
      let total = List.fold_left ( + ) 0 sizes in
      P2m.check_invariants t = Ok ()
      && P2m.pages t = total
      && List.for_all (fun pfn -> P2m.lookup t ~pfn <> None)
           (List.init total Fun.id)
      && P2m.lookup t ~pfn:total = None)

let suite =
  ( "p2m",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "add and lookup" `Quick test_add_and_lookup;
      Alcotest.test_case "multiple extents" `Quick test_multiple_extents;
      Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
      Alcotest.test_case "table bytes (2MiB/GiB)" `Quick test_table_bytes;
      Alcotest.test_case "remove exact" `Quick test_remove_range_exact;
      Alcotest.test_case "remove partial" `Quick test_remove_range_partial;
      Alcotest.test_case "remove middle" `Quick test_remove_range_middle;
      Alcotest.test_case "remove unmapped" `Quick test_remove_unmapped_rejected;
      Alcotest.test_case "remove all" `Quick test_remove_all;
      Alcotest.test_case "fold" `Quick test_fold;
      prop_lookup_consistent;
    ] )
