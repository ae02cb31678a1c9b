open Helpers
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Engine = Simkit.Engine

let gib = Simkit.Units.gib

(* A powered-on VMM with dom0 up, on the paper's 12 GiB host. *)
let booted_vmm ?heap_capacity () =
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create ?heap_capacity host in
  run_task engine (Vmm.power_on vmm);
  (engine, host, vmm)

let create_domain_exn engine vmm ~name ~mem_bytes =
  let result = ref None in
  Vmm.create_domain vmm ~name ~mem_bytes (fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Ok d) -> d
  | Some (Error e) -> Alcotest.fail (Vmm.error_message e)
  | None -> Alcotest.fail "create_domain never completed"

(* Boot-to-running shortcut: domains created by the VMM start in
   [Created]; experiments at this layer drive them to Running directly
   (the guest library owns the real boot path). *)
let run_domain d =
  Domain.set_state d Domain.Booting;
  Domain.set_state d Domain.Running

let save_exn engine vmm d =
  let r = ref None in
  Vmm.save_domain_to_disk vmm d (fun x -> r := Some x);
  Engine.run engine;
  match !r with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.fail (Vmm.error_message e)
  | None -> Alcotest.fail "save never completed"

let test_power_on () =
  let engine, host, vmm = booted_vmm () in
  check_true "running" (Vmm.is_running vmm);
  check_int "generation 1" 1 (Vmm.generation vmm);
  check_true "dom0 exists" (Vmm.dom0 vmm <> None);
  check_true "xenstore up" (Vmm.xenstore vmm <> None);
  check_int "no domUs" 0 (List.length (Vmm.domus vmm));
  (* POST 47 + load 4.7 + scrub 12 GiB * 0.55 + dom0 boot 32 = 90.3 *)
  check_close ~tolerance:0.02 "boot duration" 90.3 (Engine.now engine);
  ignore host

let test_create_domain_accounting () =
  let engine, host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  let free_before = Hw.Memory.free_bytes host.Hw.Host.memory in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  check_int "one domU" 1 (List.length (Vmm.domus vmm));
  check_true "listed as a domU" (List.memq d (Vmm.domus vmm));
  check_int "p2m populated" (gib 1) (Xenvmm.P2m.mapped_bytes (Domain.p2m d));
  let used = free_before - Hw.Memory.free_bytes host.Hw.Host.memory in
  (* Guest memory + 2 MiB P2M-mapping table. *)
  check_int "memory + table" (gib 1 + Simkit.Units.mib 2) used;
  check_true "heap charged" (Xenvmm.Vmm_heap.used_bytes (Vmm.heap vmm) > 0);
  check_int "create hypercall" 1 (hypercalls "domctl_create")

let test_destroy_domain_releases_everything () =
  let engine, host, vmm = booted_vmm () in
  let free0 = Hw.Memory.free_bytes host.Hw.Host.memory in
  let heap0 = Xenvmm.Vmm_heap.used_bytes (Vmm.heap vmm) in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 2) in
  run_task engine (Vmm.destroy_domain vmm d);
  check_int "memory restored" free0 (Hw.Memory.free_bytes host.Hw.Host.memory);
  check_int "heap restored" heap0 (Xenvmm.Vmm_heap.used_bytes (Vmm.heap vmm));
  check_int "no domUs" 0 (List.length (Vmm.domus vmm))

let test_out_of_machine_memory () =
  let engine, _host, vmm = booted_vmm () in
  (* 12 GiB installed, 0.5 GiB to dom0: a 13 GiB guest cannot fit. *)
  let result = ref None in
  Vmm.create_domain vmm ~name:"huge" ~mem_bytes:(gib 13) (fun r ->
      result := Some r);
  Engine.run engine;
  (match !result with
  | Some (Error Simkit.Fault.Out_of_memory) -> ()
  | _ -> Alcotest.fail "expected Out_of_memory");
  check_int "no leak into table" 0 (List.length (Vmm.domus vmm))

let test_heap_exhaustion_on_create () =
  (* A heap too small for even one domain control structure. *)
  let engine, _host, vmm = booted_vmm ~heap_capacity:12000 () in
  (* dom0 already consumed 8 KiB; 12 KB heap leaves < 8 KiB. *)
  let result = ref None in
  Vmm.create_domain vmm ~name:"vm01" ~mem_bytes:(gib 1) (fun r ->
      result := Some r);
  Engine.run engine;
  match !result with
  | Some (Error Simkit.Fault.Heap_exhausted) -> ()
  | _ -> Alcotest.fail "expected Heap_exhausted"

let test_balloon_up_down () =
  let engine, _host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let p2m = Domain.p2m d in
  (match Vmm.balloon vmm d ~delta_bytes:(Simkit.Units.mib 256) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vmm.error_message e));
  check_int "grown" (gib 1 + Simkit.Units.mib 256) (Xenvmm.P2m.mapped_bytes p2m);
  (match Vmm.balloon vmm d ~delta_bytes:(-Simkit.Units.mib 512) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vmm.error_message e));
  check_int "shrunk" (gib 1 - Simkit.Units.mib 256) (Xenvmm.P2m.mapped_bytes p2m);
  check_true "table consistent"
    (Xenvmm.P2m.check_invariants p2m = Ok ());
  check_int "memory_op hypercalls" 2 (hypercalls "memory_op")

let test_suspend_resume_on_memory () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "suspended" (Domain.state d = Domain.Suspended);
  (match Domain.exec_state d with
  | Some es ->
    check_int "16 KiB exec state" (16 * 1024) es.Domain.state_bytes;
    check_true "exec frames preserved" (es.Domain.state_frames <> [])
  | None -> Alcotest.fail "expected exec state");
  check_int "image still mapped" (gib 1)
    (Xenvmm.P2m.mapped_bytes (Domain.p2m d));
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  (match !resumed with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "resume failed");
  check_true "running again" (Domain.state d = Domain.Running);
  check_true "exec state released" (Domain.exec_state d = None)

let test_suspend_time_hardly_depends_on_memory () =
  (* The on-memory suspend property of Figure 4. *)
  let time_for mem_bytes =
    let engine, _host, vmm = booted_vmm () in
    let d = create_domain_exn engine vmm ~name:"vm" ~mem_bytes in
    run_domain d;
    task_duration engine (Vmm.suspend_all_on_memory vmm)
  in
  let t1 = time_for (gib 1) in
  let t11 = time_for (gib 11) in
  check_true "sub-second even at 11 GiB" (t11 < 1.0);
  (* Paper: 0.08 s at 11 GiB — four orders of magnitude under the
     save-to-disk path, and the absolute growth over 10 GiB is tiny. *)
  check_true "absolute growth under 100 ms" (t11 -. t1 < 0.1)

let test_resume_wrong_state () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  let result = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Error (Simkit.Fault.Bad_domain_state "running")) -> ()
  | _ -> Alcotest.fail "expected Bad_domain_state"

let test_quick_reload_preserves_suspended () =
  let engine, host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  let p2m_extents_before = Xenvmm.P2m.machine_extents (Domain.p2m d) in
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  let reload_result = ref None in
  Vmm.quick_reload vmm (fun r -> reload_result := Some r);
  Engine.run engine;
  (match !reload_result with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "quick reload failed");
  check_int "generation bumped" 2 (Vmm.generation vmm);
  check_int "xexec hypercall" 1 (hypercalls "xexec");
  check_true "domain still suspended" (Domain.state d = Domain.Suspended);
  check_true "same machine frames"
    (Xenvmm.P2m.machine_extents (Domain.p2m d) = p2m_extents_before);
  (* The frames holding the image must be allocated (reserved), not
     free, in the new VMM's view. *)
  let frames = Hw.Memory.frames host.Hw.Host.memory in
  List.iter
    (fun e ->
      check_false "image frame not free"
        (Hw.Frame.is_free frames ~mfn:e.Hw.Frame.first))
    p2m_extents_before;
  (* And the domain resumes fine afterwards. *)
  run_task engine (Vmm.boot_dom0 vmm);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  match !resumed with
  | Some (Ok ()) -> check_true "running" (Domain.state d = Domain.Running)
  | _ -> Alcotest.fail "resume after reload failed"

let test_quick_reload_clears_heap_leaks () =
  (* The whole point of rejuvenation: reboot clears accumulated leaks. *)
  let engine, _host, vmm = booted_vmm () in
  Xenvmm.Vmm_heap.leak (Vmm.heap vmm) ~bytes:(4 * 1024 * 1024);
  check_true "leaked" (Xenvmm.Vmm_heap.leaked_bytes (Vmm.heap vmm) > 0);
  run_task engine (Vmm.shutdown_dom0 vmm);
  let r = ref None in
  Vmm.quick_reload vmm (fun x -> r := Some x);
  Engine.run engine;
  check_true "reloaded" (!r = Some (Ok ()));
  check_int "leaks gone" 0 (Xenvmm.Vmm_heap.leaked_bytes (Vmm.heap vmm))

let test_quick_reload_crashes_running_domains () =
  (* A domain that cannot be suspended (e.g. a driver domain) does not
     survive the reload. *)
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"driver" ~mem_bytes:(gib 1) in
  run_domain d;
  run_task engine (Vmm.shutdown_dom0 vmm);
  let r = ref None in
  Vmm.quick_reload vmm (fun x -> r := Some x);
  Engine.run engine;
  check_true "reloaded" (!r = Some (Ok ()));
  check_true "running domain lost" (Domain.state d = Domain.Crashed);
  check_int "table empty" 0 (List.length (Vmm.domus vmm))

let test_hardware_reset_loses_frozen_images () =
  let engine, host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  run_task engine (Vmm.shutdown_vmm vmm);
  run_task engine (Vmm.hardware_reset vmm);
  check_true "frozen image destroyed" (Domain.state d = Domain.Crashed);
  check_int "all memory free again"
    (Hw.Memory.total_bytes host.Hw.Host.memory)
    (Hw.Memory.free_bytes host.Hw.Host.memory);
  check_true "vmm running" (Vmm.is_running vmm)

let test_save_restore_roundtrip () =
  let engine, host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  let free_before_save = Hw.Memory.free_bytes host.Hw.Host.memory in
  save_exn engine vmm d;
  check_true "saved state" (Domain.state d = Domain.Saved_to_disk);
  Alcotest.(check (list string)) "image listed" [ "vm01" ] (Vmm.saved_images vmm);
  check_true "frames released"
    (Hw.Memory.free_bytes host.Hw.Host.memory > free_before_save);
  check_true "disk written"
    (Hw.Disk.bytes_written host.Hw.Host.disk >= gib 1);
  let restored = ref None in
  Vmm.restore_domain_from_disk vmm ~name:"vm01" (fun r -> restored := Some r);
  Engine.run engine;
  (match !restored with
  | Some (Ok d') -> check_true "same domain object" (d' == d)
  | _ -> Alcotest.fail "restore failed");
  check_true "running" (Domain.state d = Domain.Running);
  check_int "image consumed" 0 (List.length (Vmm.saved_images vmm));
  check_true "disk read" (Hw.Disk.bytes_read host.Hw.Host.disk >= gib 1)

let test_save_survives_hardware_reset () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  save_exn engine vmm d;
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.shutdown_vmm vmm);
  run_task engine (Vmm.hardware_reset vmm);
  run_task engine (Vmm.boot_dom0 vmm);
  Alcotest.(check (list string)) "image survived" [ "vm01" ]
    (Vmm.saved_images vmm);
  let restored = ref None in
  Vmm.restore_domain_from_disk vmm ~name:"vm01" (fun r -> restored := Some r);
  Engine.run engine;
  match !restored with
  | Some (Ok _) -> check_true "running" (Domain.state d = Domain.Running)
  | _ -> Alcotest.fail "restore after reset failed"

let test_restore_unknown_image () =
  let engine, _host, vmm = booted_vmm () in
  let r = ref None in
  Vmm.restore_domain_from_disk vmm ~name:"ghost" (fun x -> r := Some x);
  Engine.run engine;
  match !r with
  | Some (Error (Simkit.Fault.Image_lost "ghost")) -> ()
  | _ -> Alcotest.fail "expected Image_lost"

let test_save_scales_with_memory () =
  (* Stock Xen's weakness (Figure 4): save time grows with memory. *)
  let save_time mem_bytes =
    let engine, _host, vmm = booted_vmm () in
    let d = create_domain_exn engine vmm ~name:"vm" ~mem_bytes in
    run_domain d;
    let t0 = Engine.now engine in
    save_exn engine vmm d;
    Engine.now engine -. t0
  in
  let t1 = save_time (gib 1) in
  let t4 = save_time (gib 4) in
  check_close ~tolerance:0.15 "roughly linear" 4.0 (t4 /. t1)

let test_domain_destroy_leak_hook () =
  (* Changeset 9392: heap lost on every VM reboot. *)
  let engine, _host, vmm = booted_vmm () in
  Vmm.set_leak_per_domain_destroy vmm ~bytes:65536;
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_task engine (Vmm.destroy_domain vmm d);
  check_int "leak recorded" 65536
    (Xenvmm.Vmm_heap.leaked_bytes (Vmm.heap vmm))

let test_event_stream () =
  let engine, _host, vmm = booted_vmm () in
  let events = ref [] in
  Vmm.on_event vmm (fun e -> events := e :: !events);
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_task engine (Vmm.destroy_domain vmm d);
  let saw p = List.exists p !events in
  check_true "created event" (saw (function Vmm.Domain_created _ -> true | _ -> false));
  check_true "destroyed event"
    (saw (function Vmm.Domain_destroyed _ -> true | _ -> false));
  check_true "hypercall events"
    (saw (function Vmm.Hypercall _ -> true | _ -> false))

let test_preserved_bytes () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  run_domain d;
  check_int "nothing preserved while running" 0 (Vmm.preserved_bytes vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  (* Image + 2 MiB table + 16 KiB exec state. *)
  check_int "preserved accounting"
    (gib 1 + Simkit.Units.mib 2 + (16 * 1024))
    (Vmm.preserved_bytes vmm)

let suite =
  ( "vmm",
    [
      Alcotest.test_case "power on" `Quick test_power_on;
      Alcotest.test_case "create domain accounting" `Quick
        test_create_domain_accounting;
      Alcotest.test_case "destroy releases everything" `Quick
        test_destroy_domain_releases_everything;
      Alcotest.test_case "out of machine memory" `Quick
        test_out_of_machine_memory;
      Alcotest.test_case "out of heap" `Quick test_heap_exhaustion_on_create;
      Alcotest.test_case "balloon" `Quick test_balloon_up_down;
      Alcotest.test_case "on-memory suspend/resume" `Quick
        test_suspend_resume_on_memory;
      Alcotest.test_case "suspend independent of memory size" `Quick
        test_suspend_time_hardly_depends_on_memory;
      Alcotest.test_case "resume wrong state" `Quick test_resume_wrong_state;
      Alcotest.test_case "quick reload preserves" `Quick
        test_quick_reload_preserves_suspended;
      Alcotest.test_case "quick reload rejuvenates heap" `Quick
        test_quick_reload_clears_heap_leaks;
      Alcotest.test_case "quick reload crashes running" `Quick
        test_quick_reload_crashes_running_domains;
      Alcotest.test_case "hardware reset loses images" `Quick
        test_hardware_reset_loses_frozen_images;
      Alcotest.test_case "save/restore roundtrip" `Quick
        test_save_restore_roundtrip;
      Alcotest.test_case "saved image survives reset" `Quick
        test_save_survives_hardware_reset;
      Alcotest.test_case "restore unknown image" `Quick
        test_restore_unknown_image;
      Alcotest.test_case "save scales with memory" `Quick
        test_save_scales_with_memory;
      Alcotest.test_case "destroy leak hook" `Quick test_domain_destroy_leak_hook;
      Alcotest.test_case "event stream" `Quick test_event_stream;
      Alcotest.test_case "preserved bytes" `Quick test_preserved_bytes;
    ] )
