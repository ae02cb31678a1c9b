module Domain = Xenvmm.Domain
module Vmm = Xenvmm.Vmm

type timing = {
  boot_shared_work : float;
  boot_private_s : float;
  shutdown_shared_work : float;
  shutdown_private_s : float;
  suspend_handler_s : float;
  resume_handler_s : float;
  cache_fraction : float;
}

let default_timing =
  {
    boot_shared_work = 3.4;
    boot_private_s = 2.8;
    shutdown_shared_work = 0.4;
    shutdown_private_s = 10.2;
    suspend_handler_s = 0.03;
    resume_handler_s = 0.2;
    cache_fraction = 0.85;
  }

type t = {
  mutable vmm : Vmm.t;
  mutable dom : Domain.t;
  ktiming : timing;
  fs : Filesystem.t;
  pcache : Page_cache.t;
  mutable svc_list : Service.t list;
  mutable frozen_services : Service.t list;
  mutable ring_grants : Xenvmm.Grant_table.grant_ref list;
}

let engine t = Vmm.engine t.vmm
let cpu t = (Vmm.host t.vmm).Hw.Host.cpu

(* Boot/shutdown CPU work goes through the credit scheduler on behalf
   of this kernel's domain, so per-domain weights and caps apply. The
   work constants are per unit of aggregate capacity; scaling by the
   CPU count keeps the calibrated boot(n) = 3.4 n + 2.8 under default
   (equal) weights. *)
let scheduled_work t ~work k =
  let sched = Vmm.scheduler t.vmm in
  let scaled = work *. float_of_int (Xenvmm.Scheduler.physical_cpus sched) in
  Xenvmm.Scheduler.run_work sched ~domid:(Domain.id t.dom) ~work:scaled k

(* Split-driver I/O rings: the frontend grants ring pages to dom0's
   backend, which maps them. Device detach (suspend/shutdown) must tear
   this sharing down — a domain with foreign mappings of its pages
   cannot be frozen. *)
let establish_io_rings t =
  let g = Vmm.grants t.vmm in
  match Vmm.dom0 t.vmm with
  | Some dom0 when Domain.id dom0 <> Domain.id t.dom ->
    t.ring_grants <-
      List.init 4 (fun pfn ->
          let r =
            Xenvmm.Grant_table.grant g ~owner:(Domain.id t.dom)
              ~grantee:(Domain.id dom0) ~pfn ()
          in
          (match Xenvmm.Grant_table.map g r ~by:(Domain.id dom0) with
          | Ok () -> ()
          | Error e ->
            Simkit.Fault.fail
              (Simkit.Fault.Invariant
                 (Xenvmm.Grant_table.error_message e)));
          r)
  | Some _ | None -> ()

let teardown_io_rings t =
  Xenvmm.Grant_table.release_domain (Vmm.grants t.vmm) (Domain.id t.dom);
  t.ring_grants <- []

(* The guest binds an event-channel port through which the VMM delivers
   suspend requests (the "suspend event" of Section 4.2). *)
let bind_suspend_port t =
  let ec = Vmm.channels t.vmm in
  let port = Xenvmm.Event_channel.alloc_unbound ec ~domid:(Domain.id t.dom) in
  Xenvmm.Event_channel.bind ec port ~handler:(fun () -> ());
  Domain.set_suspend_port t.dom (Some port)

let install_handlers t =
  Domain.set_suspend_handler t.dom (fun k ->
      (* Freeze the services: from the network they are down, but they
         will come back without a restart. *)
      t.frozen_services <- List.filter Service.is_up t.svc_list;
      List.iter Service.kill t.frozen_services;
      teardown_io_rings t;
      Simkit.Process.delay (engine t) t.ktiming.suspend_handler_s k);
  Domain.set_resume_handler t.dom (fun k ->
      Simkit.Process.delay (engine t) t.ktiming.resume_handler_s (fun () ->
          establish_io_rings t;
          bind_suspend_port t;
          List.iter Service.force_up t.frozen_services;
          t.frozen_services <- [];
          k ()))

let create vmm dom ?(timing = default_timing) () =
  let host = Vmm.host vmm in
  let cache_bytes =
    int_of_float (timing.cache_fraction *. float_of_int (Domain.mem_bytes dom))
  in
  let pcache = Page_cache.create ~capacity_bytes:cache_bytes () in
  let fs =
    Filesystem.create host.Hw.Host.engine ~disk:host.Hw.Host.disk
      ~cache:pcache ()
  in
  let t =
    {
      vmm;
      dom;
      ktiming = timing;
      fs;
      pcache;
      svc_list = [];
      frozen_services = [];
      ring_grants = [];
    }
  in
  install_handlers t;
  t

let domain t = t.dom
let filesystem t = t.fs

let rebind t vmm dom =
  t.vmm <- vmm;
  t.dom <- dom;
  install_handlers t
let page_cache t = t.pcache

let add_service t s = t.svc_list <- t.svc_list @ [ s ]
let services t = t.svc_list

let make_service t spec =
  let s = Service.create (engine t) ~cpu:(cpu t) spec in
  add_service t s;
  s

let boot t k =
  Domain.set_state t.dom Domain.Booting;
  scheduled_work t ~work:t.ktiming.boot_shared_work (fun () ->
      Simkit.Process.delay (engine t) t.ktiming.boot_private_s (fun () ->
          (* Fresh memory: the file cache built up before the reboot is
             gone. *)
          Page_cache.clear t.pcache;
          Domain.set_state t.dom Domain.Running;
          establish_io_rings t;
          bind_suspend_port t;
          Simkit.Process.seq (List.map Service.start t.svc_list) k))

let shutdown t k =
  Domain.set_state t.dom Domain.Shutting_down;
  teardown_io_rings t;
  Simkit.Process.seq (List.map Service.stop t.svc_list) (fun () ->
      scheduled_work t ~work:t.ktiming.shutdown_shared_work (fun () ->
          Simkit.Process.delay (engine t) t.ktiming.shutdown_private_s
            (fun () ->
              Domain.set_state t.dom Domain.Halted;
              k ())))

let reboot_os t = Simkit.Process.seq [ shutdown t; boot t ]

let io_ring_grants t = t.ring_grants

let is_running t = Domain.state t.dom = Domain.Running

let service_reachable t s = is_running t && Service.is_up s
