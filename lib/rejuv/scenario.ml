module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain

type workload =
  | Ssh
  | Jboss
  | Web of { file_count : int; file_bytes : int; warm_cache : bool }

let default_web =
  Web { file_count = 1000; file_bytes = 512 * 1024; warm_cache = true }

let workload_name = function
  | Ssh -> "ssh"
  | Jboss -> "jboss"
  | Web _ -> "web"

(* ["web"] parses to the Figure 7 cached-file defaults; [name] on a
   non-default [Web] payload would raise, so printing goes through the
   total [workload_name] instead. *)
let workload_enum =
  Simkit.Enum.make ~what:"workload"
    [ ("ssh", Ssh); ("jboss", Jboss); ("web", default_web) ]

let workload_of_string s = Simkit.Enum.of_string workload_enum s

type vm = {
  vname : string;
  vmem : int;
  vworkload : workload;
  vdriver : bool;
  mutable vdomain : Domain.t;
  mutable vkernel : Guest.Kernel.t;
  mutable vhttpd : Guest.Httpd.t option;
}

let vm_name v = v.vname
let vm_is_driver v = v.vdriver
let vm_kernel v = v.vkernel
let vm_domain v = v.vdomain
let vm_services v = Guest.Kernel.services v.vkernel
let vm_httpd v = v.vhttpd

let vm_is_up v =
  let services = vm_services v in
  services <> []
  && List.for_all (Guest.Kernel.service_reachable v.vkernel) services

type t = {
  cal : Calibration.t;
  eng : Simkit.Engine.t;
  hw_host : Hw.Host.t;
  hypervisor : Vmm.t;
  mutable vm_list : vm list;
  scenario_rng : Simkit.Rng.t;
  plan : Simkit.Fault.Plan.t;
  mutable artifact : (Hw.Nic.t * Simkit.Engine.handle) option;
}

let engine t = t.eng
let host t = t.hw_host
let vmm t = t.hypervisor
let calibration t = t.cal
let vms t = t.vm_list
let rng t = t.scenario_rng
let trace t = t.hw_host.Hw.Host.trace
let fault_plan t = t.plan

(* --- transient network-degradation artifact ----------------------------- *)

let cancel_network_artifact t =
  match t.artifact with
  | None -> ()
  | Some (nic, handle) ->
    Simkit.Engine.cancel t.eng handle;
    Hw.Nic.clear_degradation nic;
    t.artifact <- None

let arm_network_artifact t nic ~factor ~duration_s =
  (* At most one artifact at a time; re-arming restarts the window. *)
  cancel_network_artifact t;
  Hw.Nic.set_degradation nic ~factor;
  let handle =
    Simkit.Engine.schedule t.eng ~delay:duration_s (fun () ->
        Hw.Nic.clear_degradation nic;
        t.artifact <- None)
  in
  t.artifact <- Some (nic, handle)

(* Build kernel + services for a VM whose domain exists. *)
let outfit_vm t v =
  let kernel =
    Guest.Kernel.create t.hypervisor v.vdomain
      ~timing:t.cal.Calibration.kernel_timing ()
  in
  v.vkernel <- kernel;
  v.vhttpd <- None;
  match v.vworkload with
  | Ssh -> ignore (Guest.Sshd.install kernel)
  | Jboss -> ignore (Guest.Jboss.install kernel)
  | Web { file_count; file_bytes; warm_cache = _ } ->
    (* "All files cached on memory" is established by [warm_web_caches]
       after the OS has booted (boot clears the cache). *)
    let httpd = Guest.Httpd.install kernel ~nic:t.hw_host.Hw.Host.nic () in
    ignore (Guest.Httpd.populate httpd ~file_count ~file_bytes);
    v.vhttpd <- Some httpd

let warm_web_caches t =
  List.iter
    (fun v ->
      match (v.vworkload, v.vhttpd) with
      | Web { warm_cache = true; _ }, Some httpd -> Guest.Httpd.warm_all httpd
      | _ -> ())
    t.vm_list

let provision_vm t v k =
  if v.vdriver && Simkit.Fault.Plan.fires t.plan ~site:"driver.reprovision"
  then
    (* The driver VM's devices never come back: xend gives up on the
       timeout. Nothing was built, so a retry starts from scratch. *)
    k (Error (Simkit.Fault.Driver_timeout v.vname))
  else
    Vmm.create_domain t.hypervisor ~name:v.vname ~mem_bytes:v.vmem (function
      | Error e -> k (Error e)
      | Ok domain ->
        if v.vdriver then Domain.set_suspendable domain false;
        v.vdomain <- domain;
        outfit_vm t v;
        Guest.Kernel.boot v.vkernel (fun () -> k (Ok ())))

(* --- observability -------------------------------------------------------

   Components register through getters (kernel, hypervisor heap) so
   gauges keep reading the live instance across reboots and quick
   reloads. Successive scenarios re-register under the same names:
   gauges follow the newest scenario, while counters and histograms
   accumulate process-wide (see Obs.Registry). *)

let observe reg t =
  Obs.instrument_engine reg t.eng;
  Hw.Disk.observe reg t.hw_host.Hw.Host.disk;
  Xenvmm.Vmm_heap.observe reg (fun () -> Vmm.heap t.hypervisor);
  List.iter
    (fun v ->
      Guest.Page_cache.observe
        ~prefix:("guest.page_cache." ^ v.vname)
        reg
        (fun () -> Guest.Kernel.page_cache v.vkernel))
    t.vm_list;
  (* Memory-dynamics gauges exist only when memdyn is on, so the
     exported metric set (and with it any seeded output) is untouched
     in the default configuration. All readers are draw-free. *)
  if Mem.Memdyn.enabled (Vmm.memdyn t.hypervisor) then begin
    let sum_trackers f () =
      List.fold_left
        (fun acc v ->
          match Domain.mem_tracker v.vdomain with
          | Some ps -> acc +. f ps
          | None -> acc)
        0.0 t.vm_list
    in
    Obs.Registry.gauge reg "mem.resident_pages"
      (sum_trackers (fun ps -> float_of_int (Mem.Pagestate.resident_pages ps)));
    Obs.Registry.gauge reg "mem.dirty_rate"
      (sum_trackers Mem.Pagestate.dirty_rate_pages_per_s);
    Obs.Registry.gauge reg "balloon.reclaimed"
      (sum_trackers (fun ps -> float_of_int (Mem.Pagestate.ballooned_pages ps)));
    Obs.Registry.gauge reg "restore.faults_outstanding" (fun () ->
        List.fold_left
          (fun acc v ->
            match Domain.mem_stream v.vdomain with
            | Some s -> acc +. float_of_int (Mem.Stream.batches_outstanding s)
            | None -> acc)
          0.0 t.vm_list)
  end

module Config = struct
  type scenario_workload = workload

  type t = {
    calibration : Calibration.t;
    seed : int;
    vm_count : int;
    vm_mem_bytes : int;
    workload : scenario_workload;
    driver_vm_count : int;
    name_prefix : string;
    engine : Simkit.Engine.t option;
    plan : Simkit.Fault.Plan.t option;
    memdyn : Mem.Memdyn.t;
    traffic : Netsim.Fluid.config;
  }

  let default = (* simlint: allow D011 immutable template; engine and plan are None here *)
    {
      calibration = Calibration.default;
      seed = 42;
      vm_count = 1;
      vm_mem_bytes = Simkit.Units.gib 1;
      workload = Ssh;
      driver_vm_count = 0;
      name_prefix = "";
      engine = None;
      plan = None;
      memdyn = Mem.Memdyn.off;
      traffic = Netsim.Fluid.default_config;
    }
end

let create (cfg : Config.t) =
  let {
    Config.calibration;
    seed;
    vm_count;
    vm_mem_bytes;
    workload;
    driver_vm_count;
    name_prefix;
    engine;
    plan;
    memdyn;
    traffic = _;
  } =
    cfg
  in
  if vm_count < 0 then invalid_arg "Scenario.create: negative vm_count";
  if driver_vm_count < 0 then
    invalid_arg "Scenario.create: negative driver_vm_count";
  let eng =
    match engine with
    | Some e -> e
    | None -> Simkit.Engine.create ~seed ()
  in
  let hw_host = Hw.Host.create ~config:calibration.Calibration.host eng in
  let scrub_policy =
    if calibration.Calibration.scrub_free_only then `Free_only else `All
  in
  let hypervisor =
    Vmm.create ~timing:calibration.Calibration.vmm_timing ~scrub_policy
      hw_host
  in
  let plan =
    match plan with
    | Some p -> p
    | None -> Simkit.Fault.Plan.create ~seed ()
  in
  Vmm.set_fault_plan hypervisor (Some plan);
  Hw.Disk.set_fault_plan hw_host.Hw.Host.disk (Some plan);
  (* Fold the scenario seed into the memdyn seed so different seeds get
     different working sets; per-domain streams still hash the domain
     name on top, keeping them stable across fleet partitioning. *)
  Vmm.set_memdyn hypervisor
    { memdyn with Mem.Memdyn.seed = (memdyn.Mem.Memdyn.seed * 1_000_003) + seed };
  let t =
    {
      cal = calibration;
      eng;
      hw_host;
      hypervisor;
      vm_list = [];
      scenario_rng = Simkit.Rng.split (Simkit.Engine.rng eng);
      plan;
      artifact = None;
    }
  in
  let make_vm ~vname ~vdriver i =
    (* Placeholder domain/kernel; provisioned for real at [start]. *)
    let vdomain =
      Domain.create ~id:(-1 - i) ~name:vname ~kind:Domain.DomU
        ~mem_bytes:vm_mem_bytes
    in
    let vkernel =
      Guest.Kernel.create hypervisor vdomain
        ~timing:calibration.Calibration.kernel_timing ()
    in
    { vname; vmem = vm_mem_bytes; vworkload = workload; vdriver; vdomain;
      vkernel; vhttpd = None }
  in
  let ordinary =
    List.init vm_count (fun i ->
        make_vm
          ~vname:(Printf.sprintf "%svm%02d" name_prefix (i + 1))
          ~vdriver:false i)
  in
  let drivers =
    List.init driver_vm_count (fun i ->
        make_vm
          ~vname:(Printf.sprintf "%sdriver%02d" name_prefix (i + 1))
          ~vdriver:true (vm_count + i))
  in
  t.vm_list <- ordinary @ drivers;
  observe (Obs.ambient ()) t;
  t

let start t k =
  Vmm.power_on t.hypervisor (fun () ->
      Simkit.Process.par
        (List.map
           (fun v k ->
             provision_vm t v (function
               (* Initial bring-up has no recovery policy to consult:
                  a boot-time fault is a broken testbed. *)
               | Error f -> Simkit.Fault.fail f
               | Ok () -> k ()))
           t.vm_list)
        (fun () ->
          warm_web_caches t;
          k ()))

let attach_probers t ?interval_s () =
  List.map
    (fun v ->
      let p =
        Netsim.Prober.create t.eng ~name:v.vname ?interval_s
          ~is_up:(fun () -> vm_is_up v)
          ()
      in
      Netsim.Prober.start p;
      p)
    t.vm_list
