(* Guest kernel + service behaviour: boot/shutdown contention, the
   suspend/resume freeze semantics, and the cache lifecycle. *)
open Helpers
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Kernel = Guest.Kernel
module Service = Guest.Service
module Engine = Simkit.Engine

let gib = Simkit.Units.gib

let booted_vmm () =
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create host in
  run_task engine (Vmm.power_on vmm);
  (engine, host, vmm)

let fresh_vm engine vmm ~name =
  let result = ref None in
  Vmm.create_domain vmm ~name ~mem_bytes:(gib 1) (fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Ok d) -> (d, Kernel.create vmm d ())
  | _ -> Alcotest.fail "create_domain failed"

let test_boot_runs_domain () =
  let engine, _host, vmm = booted_vmm () in
  let d, kernel = fresh_vm engine vmm ~name:"vm01" in
  check_false "not running yet" (Kernel.is_running kernel);
  let duration = task_duration engine (Kernel.boot kernel) in
  check_true "running" (Kernel.is_running kernel);
  check_true "domain state" (Domain.state d = Domain.Running);
  (* boot(1) = 3.4 + 2.8 with no services. *)
  check_close ~tolerance:0.02 "boot time" 6.2 duration

let test_parallel_boot_contention () =
  (* boot(n) = 3.4 n + 2.8: the Section 5.6 shape. *)
  let boot_n n =
    let engine, _host, vmm = booted_vmm () in
    let kernels =
      List.init n (fun i ->
          snd (fresh_vm engine vmm ~name:(Printf.sprintf "vm%02d" i)))
    in
    task_duration engine (Simkit.Process.par (List.map Kernel.boot kernels))
  in
  check_close ~tolerance:0.03 "n=1" 6.2 (boot_n 1);
  check_close ~tolerance:0.03 "n=4" ((3.4 *. 4.0) +. 2.8) (boot_n 4);
  check_close ~tolerance:0.03 "n=8" ((3.4 *. 8.0) +. 2.8) (boot_n 8)

let test_boot_starts_services () =
  let engine, _host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let sshd = Guest.Sshd.install kernel in
  check_true "down before boot" (Service.state sshd = Service.Down);
  run_task engine (Kernel.boot kernel);
  check_true "up after boot" (Service.is_up sshd);
  check_true "reachable" (Kernel.service_reachable kernel sshd)

let test_shutdown_stops_services () =
  let engine, _host, vmm = booted_vmm () in
  let d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let sshd = Guest.Sshd.install kernel in
  run_task engine (Kernel.boot kernel);
  run_task engine (Kernel.shutdown kernel);
  check_true "halted" (Domain.state d = Domain.Halted);
  check_true "service down" (Service.state sshd = Service.Down);
  check_false "unreachable" (Kernel.service_reachable kernel sshd)

let test_boot_clears_page_cache () =
  let engine, _host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  run_task engine (Kernel.boot kernel);
  let fs = Kernel.filesystem kernel in
  let f = Guest.Filesystem.create_file fs ~bytes:(Simkit.Units.mib 16) () in
  Guest.Filesystem.warm_file fs f;
  check_float "cached" 1.0 (Guest.Filesystem.cached_fraction fs f);
  run_task engine (Kernel.reboot_os kernel);
  check_float "cache lost on OS reboot" 0.0
    (Guest.Filesystem.cached_fraction fs f)

let test_suspend_freezes_services_resume_unfreezes () =
  let engine, _host, vmm = booted_vmm () in
  let d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let sshd = Guest.Sshd.install kernel in
  run_task engine (Kernel.boot kernel);
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "suspended" (Domain.state d = Domain.Suspended);
  check_false "service looks down while frozen" (Service.is_up sshd);
  check_false "unreachable while frozen"
    (Kernel.service_reachable kernel sshd);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  check_true "resume ok" (!resumed = Some (Ok ()));
  check_true "service back without restart" (Service.is_up sshd);
  check_true "reachable again" (Kernel.service_reachable kernel sshd)

let test_suspend_resume_preserves_cache () =
  (* The warm-VM reboot performance story at the kernel level. *)
  let engine, _host, vmm = booted_vmm () in
  let d, kernel = fresh_vm engine vmm ~name:"vm01" in
  run_task engine (Kernel.boot kernel);
  let fs = Kernel.filesystem kernel in
  let f = Guest.Filesystem.create_file fs ~bytes:(Simkit.Units.mib 16) () in
  Guest.Filesystem.warm_file fs f;
  run_task engine (Vmm.suspend_all_on_memory vmm);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  check_true "resumed" (!resumed = Some (Ok ()));
  check_float "cache intact" 1.0 (Guest.Filesystem.cached_fraction fs f)

let test_service_lifecycle () =
  let engine, _host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let svc =
    Kernel.make_service kernel
      { Service.service_name = "test"; start_shared_work = 0.0;
        start_private_s = 1.0; stop_private_s = 0.5 }
  in
  let transitions = ref [] in
  Service.on_transition svc (fun s -> transitions := s :: !transitions);
  run_task engine (Service.start svc);
  run_task engine (Service.stop svc);
  check_true "sequence"
    (List.rev !transitions
    = [ Service.Starting; Service.Up; Service.Stopping; Service.Down ])

let test_service_start_idempotent () =
  let engine, _host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let svc = Guest.Sshd.install kernel in
  run_task engine (Service.start svc);
  check_float "second start instant" 0.0
    (task_duration engine (Service.start svc))

let test_service_downtime_accounting () =
  let engine, _host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let svc =
    Kernel.make_service kernel
      { Service.service_name = "t"; start_shared_work = 0.0;
        start_private_s = 2.0; stop_private_s = 1.0 }
  in
  let log = ref [] in
  Service.on_transition svc (fun s -> log := (Engine.now engine, s) :: !log);
  run_task engine (Service.start svc);
  let up_at = Engine.now engine in
  ignore
    (Engine.schedule engine ~delay:10.0 (fun () ->
         Service.stop svc (fun () ->
             ignore
               (Engine.schedule engine ~delay:5.0 (fun () ->
                    Service.start svc (fun () -> ()))))));
  Engine.run engine;
  let now = Engine.now engine in
  (* Time not spent Up over [up_at, now], folded over the recorded
     transitions; a service starts Down. *)
  let cursor, up, down =
    List.fold_left
      (fun (cursor, up, down) (at, s) ->
        let up' = s = Service.Up in
        if at <= up_at then (cursor, up', down)
        else (at, up', if up then down else down +. (at -. cursor)))
      (up_at, false, 0.0) (List.rev !log)
  in
  let downtime = if up then down else down +. (now -. cursor) in
  (* Down from up_at+11 (stop completes) until up_at+18 (start after 5 s
     gap + 2 s start), but Stopping also counts as not-Up: 10..18. *)
  check_float ~eps:1e-6 "downtime" 8.0 downtime

let test_jboss_heavier_than_sshd () =
  let start_time install =
    let engine, _host, vmm = booted_vmm () in
    let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
    let svc = install kernel in
    task_duration engine (Service.start svc)
  in
  let sshd = start_time Guest.Sshd.install in
  let jboss = start_time Guest.Jboss.install in
  check_true "jboss much slower" (jboss > 10.0 *. sshd);
  check_close ~tolerance:0.05 "jboss ~16.5 s alone" 16.5 jboss

let test_httpd_serves_through_cache () =
  let engine, host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let httpd = Guest.Httpd.install kernel ~nic:host.Hw.Host.nic () in
  ignore
    (Guest.Httpd.populate httpd ~file_count:10
       ~file_bytes:(Simkit.Units.kib 512));
  run_task engine (Kernel.boot kernel);
  Guest.Httpd.warm_all httpd;
  let rng = Simkit.Rng.create 1 in
  let ok = ref None in
  Guest.Httpd.handle_request httpd ~rng (fun r -> ok := Some r);
  Engine.run engine;
  check_true "served" (!ok = Some true)

let test_httpd_refuses_when_down () =
  let engine, host, vmm = booted_vmm () in
  let _d, kernel = fresh_vm engine vmm ~name:"vm01" in
  let httpd = Guest.Httpd.install kernel ~nic:host.Hw.Host.nic () in
  ignore
    (Guest.Httpd.populate httpd ~file_count:1
       ~file_bytes:(Simkit.Units.kib 512));
  (* Not booted: connection refused, synchronously. *)
  let rng = Simkit.Rng.create 1 in
  let ok = ref None in
  Guest.Httpd.handle_request httpd ~rng (fun r -> ok := Some r);
  check_true "refused" (!ok = Some false);
  ignore engine

let test_suspend_event_delivered_via_channel () =
  (* Section 4.2: the VMM (not dom0) sends the suspend event to each
     domain U — through the port the guest kernel bound at boot. *)
  let engine, _host, vmm = booted_vmm () in
  let d, kernel = fresh_vm engine vmm ~name:"vm01" in
  run_task engine (Kernel.boot kernel);
  (match Domain.suspend_port d with
  | Some port ->
    check_true "bound at boot"
      (Xenvmm.Event_channel.status (Vmm.channels vmm) port
      = Xenvmm.Event_channel.Bound)
  | None -> Alcotest.fail "expected a suspend port");
  run_task engine (Vmm.suspend_all_on_memory vmm);
  check_true "suspended" (Domain.state d = Domain.Suspended);
  let resumed = ref None in
  Vmm.resume_domain_on_memory vmm d (fun r -> resumed := Some r);
  Engine.run engine;
  check_true "resumed" (!resumed = Some (Ok ()));
  (* The resume handler re-binds a fresh port in the new channel
     table. *)
  match Domain.suspend_port d with
  | Some port ->
    check_true "re-bound after resume"
      (Xenvmm.Event_channel.status (Vmm.channels vmm) port
      = Xenvmm.Event_channel.Bound)
  | None -> Alcotest.fail "expected a fresh suspend port"

let suite =
  ( "guest",
    [
      Alcotest.test_case "suspend event via channel" `Quick
        test_suspend_event_delivered_via_channel;
      Alcotest.test_case "boot runs domain" `Quick test_boot_runs_domain;
      Alcotest.test_case "parallel boot contention" `Quick
        test_parallel_boot_contention;
      Alcotest.test_case "boot starts services" `Quick test_boot_starts_services;
      Alcotest.test_case "shutdown stops services" `Quick
        test_shutdown_stops_services;
      Alcotest.test_case "boot clears page cache" `Quick
        test_boot_clears_page_cache;
      Alcotest.test_case "suspend freezes services" `Quick
        test_suspend_freezes_services_resume_unfreezes;
      Alcotest.test_case "suspend preserves cache" `Quick
        test_suspend_resume_preserves_cache;
      Alcotest.test_case "service lifecycle" `Quick test_service_lifecycle;
      Alcotest.test_case "service start idempotent" `Quick
        test_service_start_idempotent;
      Alcotest.test_case "service downtime accounting" `Quick
        test_service_downtime_accounting;
      Alcotest.test_case "jboss heavier than sshd" `Quick
        test_jboss_heavier_than_sshd;
      Alcotest.test_case "httpd serves through cache" `Quick
        test_httpd_serves_through_cache;
      Alcotest.test_case "httpd refuses when down" `Quick
        test_httpd_refuses_when_down;
    ] )
