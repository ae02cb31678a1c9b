(* xexec image staging, toolstack bookkeeping in xenstored, and the
   balloon driver's interaction with the warm-VM reboot. *)
open Helpers
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Image = Xenvmm.Image
module Engine = Simkit.Engine

let gib = Simkit.Units.gib
let mib = Simkit.Units.mib

let booted_vmm () =
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create host in
  run_task engine (Vmm.power_on vmm);
  (engine, host, vmm)

let create_domain_exn engine vmm ~name ~mem_bytes =
  let result = ref None in
  Vmm.create_domain vmm ~name ~mem_bytes (fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Ok d) -> d
  | _ -> Alcotest.fail "create_domain failed"

(* --- image ---------------------------------------------------------------- *)

let test_image_sizes () =
  let i = Image.default in
  check_true "plausible total"
    (Image.total_bytes i > mib 10 && Image.total_bytes i < mib 64);
  check_true "bad image rejected"
    (try ignore (Image.v ~vmm_bytes:0 ~dom0_kernel_bytes:1 ~initrd_bytes:0);
       false
     with Invalid_argument _ -> true)

let test_xexec_load_stages () =
  let engine, host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  check_true "nothing staged" (Vmm.staged_image vmm = None);
  let free_before = Hw.Memory.free_bytes host.Hw.Host.memory in
  let ok = ref None in
  Vmm.xexec_load vmm (fun r -> ok := Some r);
  Engine.run engine;
  check_true "loaded" (!ok = Some (Ok ()));
  check_true "staged" (Vmm.staged_image vmm <> None);
  check_int "xexec hypercall" 1 (hypercalls "xexec");
  let used = free_before - Hw.Memory.free_bytes host.Hw.Host.memory in
  check_true "frames held for the image"
    (used >= Image.total_bytes Image.default);
  check_true "image read from disk"
    (Hw.Disk.bytes_read host.Hw.Host.disk >= Image.total_bytes Image.default)

let test_xexec_reload_consumes_image () =
  let engine, host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  let ok = ref None in
  Vmm.xexec_load vmm (fun r -> ok := Some r);
  Engine.run engine;
  run_task engine (Vmm.shutdown_dom0 vmm);
  let free_before_reload = Hw.Memory.free_bytes host.Hw.Host.memory in
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "reloaded" (!reloaded = Some (Ok ()));
  check_true "image consumed" (Vmm.staged_image vmm = None);
  check_true "staging frames released"
    (Hw.Memory.free_bytes host.Hw.Host.memory > free_before_reload);
  check_int "still one xexec (pre-staged)" 1 (hypercalls "xexec")

let test_quick_reload_lazy_staging () =
  let engine, _host, vmm = booted_vmm () in
  let hypercalls = count_hypercalls vmm in
  run_task engine (Vmm.shutdown_dom0 vmm);
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "lazy staging works" (!reloaded = Some (Ok ()));
  check_int "xexec counted once" 1 (hypercalls "xexec")

let test_restaging_replaces () =
  let engine, host, vmm = booted_vmm () in
  let free0 = Hw.Memory.free_bytes host.Hw.Host.memory in
  let load image =
    let ok = ref None in
    Vmm.xexec_load vmm ~image (fun r -> ok := Some r);
    Engine.run engine;
    check_true "load ok" (!ok = Some (Ok ()))
  in
  load Image.default;
  load Image.default;
  (* Only one image's worth of frames may be held. *)
  let held = free0 - Hw.Memory.free_bytes host.Hw.Host.memory in
  check_true "no frame leak on restage"
    (held <= Image.total_bytes Image.default + Simkit.Units.page_bytes)

let test_hardware_reset_drops_staged () =
  let engine, _host, vmm = booted_vmm () in
  let ok = ref None in
  Vmm.xexec_load vmm (fun r -> ok := Some r);
  Engine.run engine;
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.shutdown_vmm vmm);
  run_task engine (Vmm.hardware_reset vmm);
  check_true "staged image lost over a power cycle"
    (Vmm.staged_image vmm = None)

(* --- xenstore bookkeeping -------------------------------------------------- *)

let store_exn vmm =
  match Vmm.xenstore vmm with
  | Some s -> s
  | None -> Alcotest.fail "xenstore should be up"

let test_create_registers_in_store () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let store = store_exn vmm in
  let base = Printf.sprintf "/local/domain/%d" (Domain.id d) in
  check_true "name entry"
    (Xenvmm.Xenstore.read store ~path:(base ^ "/name") = Some "vm01");
  check_true "memory entry"
    (Xenvmm.Xenstore.read store ~path:(base ^ "/memory")
    = Some (string_of_int (gib 1)))

let test_destroy_unregisters () =
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  let base = Printf.sprintf "/local/domain/%d" (Domain.id d) in
  run_task engine (Vmm.destroy_domain vmm d);
  check_true "entry removed"
    (Xenvmm.Xenstore.read (store_exn vmm) ~path:(base ^ "/name") = None)

let test_store_rebuilt_after_warm_reboot () =
  (* xenstored dies with dom0; the fresh instance is repopulated with
     the resumed domains. *)
  let engine, _host, vmm = booted_vmm () in
  let d = create_domain_exn engine vmm ~name:"vm01" ~mem_bytes:(gib 1) in
  Domain.set_state d Domain.Booting;
  Domain.set_state d Domain.Running;
  let txns_before = Xenvmm.Xenstore.transactions (store_exn vmm) in
  run_task engine (Vmm.shutdown_dom0 vmm);
  check_true "store down with dom0" (Vmm.xenstore vmm = None);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "reloaded" (!reloaded = Some (Ok ()));
  run_task engine (Vmm.boot_dom0 vmm);
  let store = store_exn vmm in
  let base = Printf.sprintf "/local/domain/%d" (Domain.id d) in
  check_true "fresh store knows the frozen domain"
    (Xenvmm.Xenstore.read store ~path:(base ^ "/name") = Some "vm01");
  (* A fresh store also means the transaction-leak clock restarted. *)
  check_true "transaction count reset"
    (Xenvmm.Xenstore.transactions store < txns_before + 10)

(* --- ballooning ------------------------------------------------------------ *)

let kernel_on engine vmm ~name ~mem_bytes =
  let d = create_domain_exn engine vmm ~name ~mem_bytes in
  let kernel = Guest.Kernel.create vmm d () in
  run_task engine (Guest.Kernel.boot kernel);
  kernel

let test_ballooned_vm_survives_warm_reboot () =
  (* Section 4.1: the P2M-mapping table stays correct under ballooning,
     so a ballooned VM on-memory suspends and resumes exactly. *)
  let engine, _host, vmm = booted_vmm () in
  let kernel = kernel_on engine vmm ~name:"vm01" ~mem_bytes:(gib 2) in
  let dom = Guest.Kernel.domain kernel in
  let mapped () = Xenvmm.P2m.mapped_bytes (Domain.p2m dom) in
  (match Vmm.balloon vmm dom ~delta_bytes:(-mib 512) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vmm.error_message e));
  let ballooned = mapped () in
  run_task engine (Vmm.shutdown_dom0 vmm);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  let reloaded = ref None in
  Vmm.quick_reload vmm (fun r -> reloaded := Some r);
  Engine.run engine;
  check_true "reloaded with ballooned domain" (!reloaded = Some (Ok ()));
  run_task engine (Vmm.boot_dom0 vmm);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm (Guest.Kernel.domain kernel) (fun r ->
      resumed := Some r);
  Engine.run engine;
  check_true "resumed" (!resumed = Some (Ok ()));
  check_int "exact ballooned size preserved" ballooned (mapped ());
  check_true "p2m invariants"
    (Xenvmm.P2m.check_invariants (Domain.p2m (Guest.Kernel.domain kernel))
    = Ok ())

let test_memory_overcommit_via_balloon () =
  (* Deflating running VMs frees machine memory for another domain even
     when nominal sizes would not fit. *)
  let engine, _host, vmm = booted_vmm () in
  let k1 = kernel_on engine vmm ~name:"vm01" ~mem_bytes:(gib 6) in
  let k2 = kernel_on engine vmm ~name:"vm02" ~mem_bytes:(gib 5) in
  (* ~11.5 GiB committed of 12; a 2 GiB guest cannot fit... *)
  let refused = ref None in
  Vmm.create_domain vmm ~name:"vm03" ~mem_bytes:(gib 2) (fun r ->
      refused := Some r);
  Engine.run engine;
  (match !refused with
  | Some (Error Simkit.Fault.Out_of_memory) -> ()
  | _ -> Alcotest.fail "expected OOM before ballooning");
  (* ...until the running guests balloon down. *)
  (match Vmm.balloon vmm (Guest.Kernel.domain k1) ~delta_bytes:(-gib 1) with
  | Ok () -> () | Error e -> Alcotest.fail (Vmm.error_message e));
  (match
     Vmm.balloon vmm (Guest.Kernel.domain k2) ~delta_bytes:(-(gib 1 + mib 512))
   with
  | Ok () -> () | Error e -> Alcotest.fail (Vmm.error_message e));
  let placed = ref None in
  Vmm.create_domain vmm ~name:"vm03" ~mem_bytes:(gib 2) (fun r ->
      placed := Some r);
  Engine.run engine;
  match !placed with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "expected fit after ballooning"

let suite =
  ( "xexec_balloon",
    [
      Alcotest.test_case "image sizes" `Quick test_image_sizes;
      Alcotest.test_case "xexec stages image" `Quick test_xexec_load_stages;
      Alcotest.test_case "reload consumes image" `Quick
        test_xexec_reload_consumes_image;
      Alcotest.test_case "lazy staging" `Quick test_quick_reload_lazy_staging;
      Alcotest.test_case "restaging replaces" `Quick test_restaging_replaces;
      Alcotest.test_case "reset drops staged" `Quick
        test_hardware_reset_drops_staged;
      Alcotest.test_case "create registers in store" `Quick
        test_create_registers_in_store;
      Alcotest.test_case "destroy unregisters" `Quick test_destroy_unregisters;
      Alcotest.test_case "store rebuilt after warm reboot" `Quick
        test_store_rebuilt_after_warm_reboot;
      Alcotest.test_case "ballooned VM survives warm reboot" `Quick
        test_ballooned_vm_survives_warm_reboot;
      Alcotest.test_case "overcommit via balloon" `Quick
        test_memory_overcommit_via_balloon;
    ] )
