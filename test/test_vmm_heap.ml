open Helpers
module Heap = Xenvmm.Vmm_heap

let alloc_exn h ~tag ~bytes =
  match Heap.alloc h ~tag ~bytes with
  | Ok a -> a
  | Error `Out_of_memory -> Alcotest.fail "unexpected heap exhaustion"

let test_default_capacity () =
  (* Xen 3.0's 16 MiB hypervisor heap. *)
  check_int "16 MiB" (16 * 1024 * 1024) Heap.default_capacity_bytes;
  let h = Heap.create () in
  check_int "capacity" Heap.default_capacity_bytes (Heap.capacity_bytes h)

let test_alloc_free () =
  let h = Heap.create ~capacity_bytes:1000 () in
  let a = alloc_exn h ~tag:"domain/vm1" ~bytes:300 in
  check_int "used" 300 (Heap.used_bytes h);
  check_int "free" 700 (Heap.free_bytes h);
  Heap.free h a;
  check_int "restored" 0 (Heap.used_bytes h)

let test_out_of_memory () =
  let h = Heap.create ~capacity_bytes:100 () in
  check_true "refused" (Heap.alloc h ~tag:"x" ~bytes:101 = Error `Out_of_memory);
  check_int "no effect" 0 (Heap.used_bytes h);
  let _ = alloc_exn h ~tag:"x" ~bytes:100 in
  check_true "full" (Heap.exhausted h)

let test_double_free () =
  let h = Heap.create ~capacity_bytes:100 () in
  let a = alloc_exn h ~tag:"x" ~bytes:10 in
  Heap.free h a;
  check_true "raises" (try Heap.free h a; false with Invalid_argument _ -> true)

let test_leak_accumulates () =
  let h = Heap.create ~capacity_bytes:1000 () in
  Heap.leak h ~bytes:100;
  Heap.leak h ~bytes:200;
  check_int "leaked" 300 (Heap.leaked_bytes h);
  check_int "counted as used" 300 (Heap.used_bytes h);
  check_int "free shrinks" 700 (Heap.free_bytes h)

let test_leak_clamps () =
  let h = Heap.create ~capacity_bytes:100 () in
  Heap.leak h ~bytes:1000;
  check_int "clamped" 100 (Heap.leaked_bytes h);
  check_true "exhausted" (Heap.exhausted h)

let test_exhaustion_callback_fires_once () =
  let h = Heap.create ~capacity_bytes:100 () in
  let fired = ref 0 in
  Heap.on_exhaustion h (fun () -> incr fired);
  Heap.leak h ~bytes:60;
  check_int "not yet" 0 !fired;
  Heap.leak h ~bytes:40;
  check_int "fired" 1 !fired;
  Heap.leak h ~bytes:10;
  check_int "not again while exhausted" 1 !fired

let test_exhaustion_rearms_after_free () =
  let h = Heap.create ~capacity_bytes:100 () in
  let fired = ref 0 in
  Heap.on_exhaustion h (fun () -> incr fired);
  let a = alloc_exn h ~tag:"x" ~bytes:100 in
  check_int "first" 1 !fired;
  Heap.free h a;
  let _ = alloc_exn h ~tag:"x" ~bytes:100 in
  check_int "re-armed" 2 !fired

let test_usage_by_tag () =
  let h = Heap.create ~capacity_bytes:1000 () in
  let _a = alloc_exn h ~tag:"domain/vm1" ~bytes:100 in
  let b = alloc_exn h ~tag:"domain/vm2" ~bytes:200 in
  let _c = alloc_exn h ~tag:"domain/vm1" ~bytes:50 in
  Alcotest.(check (list (pair string int)))
    "tags" [ ("domain/vm1", 150); ("domain/vm2", 200) ]
    (Heap.usage_by_tag h);
  Heap.free h b;
  Alcotest.(check (list (pair string int)))
    "tag removed at zero" [ ("domain/vm1", 150) ]
    (Heap.usage_by_tag h)

let test_allocation_bytes () =
  let h = Heap.create ~capacity_bytes:100 () in
  let a = alloc_exn h ~tag:"x" ~bytes:42 in
  check_int "size" 42 (Heap.allocation_bytes a)

let prop_accounting =
  qtest "used + free = capacity under random alloc/leak"
    QCheck.(list_of_size (Gen.int_range 0 30) (int_range 0 500))
    (fun sizes ->
      let h = Heap.create ~capacity_bytes:4096 () in
      List.iteri
        (fun i bytes ->
          if i mod 2 = 0 then ignore (Heap.alloc h ~tag:"t" ~bytes)
          else Heap.leak h ~bytes)
        sizes;
      Heap.used_bytes h + Heap.free_bytes h = Heap.capacity_bytes h
      && Heap.free_bytes h >= 0)

let suite =
  ( "vmm_heap",
    [
      Alcotest.test_case "default capacity" `Quick test_default_capacity;
      Alcotest.test_case "alloc/free" `Quick test_alloc_free;
      Alcotest.test_case "out of memory" `Quick test_out_of_memory;
      Alcotest.test_case "double free" `Quick test_double_free;
      Alcotest.test_case "leak accumulates" `Quick test_leak_accumulates;
      Alcotest.test_case "leak clamps" `Quick test_leak_clamps;
      Alcotest.test_case "exhaustion once" `Quick
        test_exhaustion_callback_fires_once;
      Alcotest.test_case "exhaustion re-arms" `Quick
        test_exhaustion_rearms_after_free;
      Alcotest.test_case "usage by tag" `Quick test_usage_by_tag;
      Alcotest.test_case "allocation bytes" `Quick test_allocation_bytes;
      prop_accounting;
    ] )
