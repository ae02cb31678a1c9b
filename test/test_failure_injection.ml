(* Failure injection: disk exhaustion during saves, heap exhaustion
   under churn, and recovery behaviour around aborted operations. *)
open Helpers
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Engine = Simkit.Engine

let gib = Simkit.Units.gib
let mib = Simkit.Units.mib

(* A testbed whose disk only fits one-and-a-bit 1 GiB images. *)
let booted_with_small_disk () =
  let engine = Engine.create () in
  let config =
    { Hw.Host.default_config with Hw.Host.mem_bytes = Simkit.Units.gib 12 }
  in
  let host = Hw.Host.create ~config engine in
  (* Pre-fill the drive, leaving ~1.5 GiB free. *)
  let disk = host.Hw.Host.disk in
  let fill = Hw.Disk.space_free_bytes disk - (gib 1 + mib 512) in
  (match Hw.Disk.allocate_space disk ~bytes:fill with
  | Ok () -> ()
  | Error `Disk_full -> Alcotest.fail "setup fill failed");
  let vmm = Vmm.create host in
  run_task engine (Vmm.power_on vmm);
  (engine, host, vmm)

let running_domain engine vmm ~name ~mem_bytes =
  let result = ref None in
  Vmm.create_domain vmm ~name ~mem_bytes (fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Ok d) ->
    Domain.set_state d Domain.Booting;
    Domain.set_state d Domain.Running;
    d
  | _ -> Alcotest.fail "create failed"

let save engine vmm d =
  let r = ref None in
  Vmm.save_domain_to_disk vmm d (fun x -> r := Some x);
  Engine.run engine;
  match !r with Some x -> x | None -> Alcotest.fail "save incomplete"

let test_disk_full_aborts_save () =
  let engine, host, vmm = booted_with_small_disk () in
  let d1 = running_domain engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let d2 = running_domain engine vmm ~name:"vm02" ~mem_bytes:(gib 1) in
  (* First image fits; the second does not. *)
  (match save engine vmm d1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vmm.error_message e));
  (match save engine vmm d2 with
  | Error Simkit.Fault.Disk_full -> ()
  | _ -> Alcotest.fail "expected Disk_full");
  (* The failed domain resumed in place and is fully functional. *)
  check_true "vm02 running again" (Domain.state d2 = Domain.Running);
  check_int "only one image on disk" 1 (List.length (Vmm.saved_images vmm));
  check_true "devices back" (Domain.devices d2 = Domain.devices d2);
  ignore host

let test_disk_space_released_on_restore () =
  let engine, host, vmm = booted_with_small_disk () in
  let d = running_domain engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let free0 = Hw.Disk.space_free_bytes host.Hw.Host.disk in
  (match save engine vmm d with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vmm.error_message e));
  check_true "space consumed"
    (Hw.Disk.space_free_bytes host.Hw.Host.disk < free0);
  let restored = ref None in
  Vmm.restore_domain_from_disk vmm ~name:"vm01" (fun r -> restored := Some r);
  Engine.run engine;
  check_true "restored"
    (match !restored with Some (Ok _) -> true | _ -> false);
  check_int "space released" free0
    (Hw.Disk.space_free_bytes host.Hw.Host.disk)

let test_save_retry_after_cleanup () =
  (* After a Disk_full abort, restoring (deleting) the first image makes
     room and the failed save succeeds on retry. *)
  let engine, _host, vmm = booted_with_small_disk () in
  let d1 = running_domain engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let d2 = running_domain engine vmm ~name:"vm02" ~mem_bytes:(gib 1) in
  (match save engine vmm d1 with Ok () -> () | Error _ -> Alcotest.fail "s1");
  (match save engine vmm d2 with
  | Error Simkit.Fault.Disk_full -> ()
  | _ -> Alcotest.fail "expected Disk_full");
  let restored = ref None in
  Vmm.restore_domain_from_disk vmm ~name:"vm01" (fun r -> restored := Some r);
  Engine.run engine;
  check_true "vm01 back"
    (match !restored with Some (Ok _) -> true | _ -> false);
  match save engine vmm d2 with
  | Ok () -> check_true "saved on retry" (Domain.state d2 = Domain.Saved_to_disk)
  | Error e -> Alcotest.fail (Vmm.error_message e)

let test_heap_exhaustion_under_churn () =
  (* The aging scenario the paper warns about, pushed to the failure:
     leaked heap eventually refuses new domains; a warm reboot clears
     it. *)
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create ~heap_capacity:60_000 host in
  Vmm.set_leak_per_domain_destroy vmm ~bytes:10_000;
  run_task engine (Vmm.power_on vmm);
  let churn_once i =
    let r = ref None in
    Vmm.create_domain vmm
      ~name:(Printf.sprintf "churn%d" i)
      ~mem_bytes:(mib 256) (fun x -> r := Some x);
    Engine.run engine;
    match !r with
    | Some (Ok d) ->
      run_task engine (Vmm.destroy_domain vmm d);
      true
    | Some (Error Simkit.Fault.Heap_exhausted) -> false
    | _ -> Alcotest.fail "unexpected churn result"
  in
  let rec churn_until_failure i =
    if i > 20 then Alcotest.fail "heap never exhausted"
    else if churn_once i then churn_until_failure (i + 1)
    else i
  in
  let failed_at = churn_until_failure 1 in
  check_true "failed after a few cycles" (failed_at >= 4 && failed_at <= 8);
  (* Rejuvenate and verify the churn works again. *)
  run_task engine (Vmm.shutdown_dom0 vmm);
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "reloaded" (!reloaded = Some (Ok ()));
  run_task engine (Vmm.boot_dom0 vmm);
  check_true "churn healthy after rejuvenation" (churn_once 99)

let test_domain_crash_during_suspend_settles () =
  (* A suspend that cannot allocate exec-state frames crashes the domain
     rather than wedging the reboot. *)
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create host in
  run_task engine (Vmm.power_on vmm);
  (* Fill machine memory completely so the 16 KiB exec-state allocation
     must fail. *)
  let d = running_domain engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let frames = Hw.Memory.frames host.Hw.Host.memory in
  (match Hw.Frame.alloc frames ~frames:(Hw.Frame.free_frames frames) with
  | Some _ -> ()
  | None -> Alcotest.fail "fill failed");
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "domain crashed, not wedged" (Domain.state d = Domain.Crashed)

let suite =
  ( "failure_injection",
    [
      Alcotest.test_case "disk full aborts save" `Quick
        test_disk_full_aborts_save;
      Alcotest.test_case "space released on restore" `Quick
        test_disk_space_released_on_restore;
      Alcotest.test_case "save retry after cleanup" `Quick
        test_save_retry_after_cleanup;
      Alcotest.test_case "heap exhaustion under churn" `Quick
        test_heap_exhaustion_under_churn;
      Alcotest.test_case "crash during suspend" `Quick
        test_domain_crash_during_suspend_settles;
    ] )
