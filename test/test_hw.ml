(* Memory scrub model, disk timing, NIC degradation, BIOS POST. *)
open Helpers
module Engine = Simkit.Engine

let mib = Simkit.Units.mib
let gib = Simkit.Units.gib

(* --- memory -------------------------------------------------------------- *)

let test_memory_scrub_times () =
  let m = Hw.Memory.create ~total_bytes:(gib 12) ~scrub_seconds_per_gib:0.55 in
  check_float ~eps:1e-6 "all" 6.6 (Hw.Memory.scrub_all_time m);
  check_float ~eps:1e-6 "free = all when empty" 6.6 (Hw.Memory.scrub_free_time m);
  ignore (Hw.Frame.alloc_bytes (Hw.Memory.frames m) ~bytes:(gib 4));
  check_close ~tolerance:0.01 "free shrinks when reserved" (0.55 *. 8.0)
    (Hw.Memory.scrub_free_time m);
  check_float ~eps:1e-6 "all unchanged" 6.6 (Hw.Memory.scrub_all_time m)

let test_memory_wipe () =
  let m = Hw.Memory.create ~total_bytes:(gib 1) ~scrub_seconds_per_gib:0.55 in
  ignore (Hw.Frame.alloc_bytes (Hw.Memory.frames m) ~bytes:(mib 512));
  check_true "used" (Hw.Memory.free_bytes m < gib 1);
  Hw.Memory.wipe m;
  check_int "all free" (gib 1) (Hw.Memory.free_bytes m)

(* --- disk ---------------------------------------------------------------- *)

let make_disk e = Hw.Disk.create e ~read_mib_per_s:88.0 ~write_mib_per_s:85.0 ~seek_ms:4.0 ()

let test_disk_sequential_read () =
  let e = Engine.create () in
  let d = make_disk e in
  let duration = task_duration e (fun k -> Hw.Disk.read d ~bytes:(mib 88) k) in
  check_close ~tolerance:0.01 "1 s + seek" 1.004 duration;
  check_int "accounted" (mib 88) (Hw.Disk.bytes_read d)

let test_disk_write_rate_differs () =
  let e = Engine.create () in
  let d = make_disk e in
  let duration = task_duration e (fun k -> Hw.Disk.write d ~bytes:(mib 85) k) in
  check_close ~tolerance:0.01 "write rate" 1.004 duration

let test_disk_random_penalty () =
  let e = Engine.create () in
  let d = make_disk e in
  let seq = task_duration e (fun k -> Hw.Disk.read d ~bytes:(mib 88) k) in
  let rnd =
    task_duration e (fun k -> Hw.Disk.read d ~bytes:(mib 88) ~random:true k)
  in
  check_close ~tolerance:0.02 "1.5x penalty" 1.5 (rnd /. seq)

let test_disk_interleave_penalty () =
  (* Two concurrent sequential streams lose sequentiality: the paper's
     11-VM parallel save takes ~200 s where one 11 GiB save takes 133. *)
  let e = Engine.create () in
  let d = make_disk e in
  let t1 = ref nan and t2 = ref nan in
  Hw.Disk.write d ~bytes:(mib 85) (fun () -> t1 := Engine.now e);
  Hw.Disk.write d ~bytes:(mib 85) (fun () -> t2 := Engine.now e);
  Engine.run e;
  (* First submitted sequential (1 s), second interleaved (1.5 s):
     spindle-shared so both finish around 2.5 s. *)
  check_in_band "interleaved total" ~lo:2.4 ~hi:2.7 !t2

let test_disk_seeks_per_op () =
  let e = Engine.create () in
  let d = make_disk e in
  let one = task_duration e (fun k -> Hw.Disk.read d ~bytes:4096 ~ops:1 k) in
  let many = task_duration e (fun k -> Hw.Disk.read d ~bytes:4096 ~ops:100 k) in
  check_close ~tolerance:0.02 "100 seeks" (one +. (99.0 *. 0.004)) many

(* --- nic ----------------------------------------------------------------- *)

let test_nic_transfer_time () =
  let e = Engine.create () in
  let n = Hw.Nic.create e ~gbit_per_s:1.0 () in
  (* 125 MB at 125 MB/s. *)
  let duration =
    task_duration e (fun k -> Hw.Nic.transfer n ~bytes:125_000_000 k)
  in
  check_close ~tolerance:0.01 "1 second" 1.0 duration

let test_nic_degradation () =
  let e = Engine.create () in
  let n = Hw.Nic.create e ~gbit_per_s:1.0 () in
  Hw.Nic.set_degradation n ~factor:0.15;
  check_float "rate scaled by the factor" (0.15 *. 125_000_000.0)
    (Hw.Nic.effective_bytes_per_s n);
  let slow =
    task_duration e (fun k -> Hw.Nic.transfer n ~bytes:125_000_000 k)
  in
  check_close ~tolerance:0.01 "6.7x slower" (1.0 /. 0.15) slow;
  Hw.Nic.clear_degradation n;
  let fast =
    task_duration e (fun k -> Hw.Nic.transfer n ~bytes:125_000_000 k)
  in
  check_close ~tolerance:0.01 "restored" 1.0 fast

let test_nic_degradation_bounds () =
  let e = Engine.create () in
  let n = Hw.Nic.create e ~gbit_per_s:1.0 () in
  check_true "zero rejected"
    (try Hw.Nic.set_degradation n ~factor:0.0; false
     with Invalid_argument _ -> true);
  check_true "over one rejected"
    (try Hw.Nic.set_degradation n ~factor:1.5; false
     with Invalid_argument _ -> true)

(* --- bios / host --------------------------------------------------------- *)

let test_bios_post_time () =
  (* Section 5.6: reset_hw = 47 s on the 12 GiB testbed. *)
  check_float ~eps:1e-6 "47 s at 12 GiB" 47.0
    (Hw.Bios.post_time Hw.Bios.default ~mem_bytes:(gib 12));
  (* The memory check scales with installed RAM. *)
  check_float ~eps:1e-6 "smaller machine" 23.0
    (Hw.Bios.post_time Hw.Bios.default ~mem_bytes:(gib 4))

let test_host_assembly () =
  let e = Engine.create () in
  let h = Hw.Host.create e in
  check_int "12 GiB default" (gib 12)
    (Hw.Memory.total_bytes h.Hw.Host.memory);
  check_float ~eps:1e-6 "post time" 47.0 (Hw.Host.post_time h);
  check_float "cpu capacity" 1.0 (Simkit.Resource.capacity h.Hw.Host.cpu)

let suite =
  ( "hw",
    [
      Alcotest.test_case "memory scrub times" `Quick test_memory_scrub_times;
      Alcotest.test_case "memory wipe" `Quick test_memory_wipe;
      Alcotest.test_case "disk sequential read" `Quick test_disk_sequential_read;
      Alcotest.test_case "disk write rate" `Quick test_disk_write_rate_differs;
      Alcotest.test_case "disk random penalty" `Quick test_disk_random_penalty;
      Alcotest.test_case "disk interleave penalty" `Quick
        test_disk_interleave_penalty;
      Alcotest.test_case "disk seeks per op" `Quick test_disk_seeks_per_op;
      Alcotest.test_case "nic transfer" `Quick test_nic_transfer_time;
      Alcotest.test_case "nic degradation" `Quick test_nic_degradation;
      Alcotest.test_case "nic degradation bounds" `Quick
        test_nic_degradation_bounds;
      Alcotest.test_case "bios post time" `Quick test_bios_post_time;
      Alcotest.test_case "host assembly" `Quick test_host_assembly;
    ] )
