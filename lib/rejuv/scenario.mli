(** The consolidated-server testbed: one host, one VMM, [n] domain Us
    each running one workload.

    A {!vm} keeps a stable identity across VMM reboots even when the
    underlying domain is destroyed and re-created (the cold path), so
    probers and experiments can measure "the service in VM 3" across the
    whole timeline. *)

type workload =
  | Ssh
  | Jboss
  | Web of { file_count : int; file_bytes : int; warm_cache : bool }

val workload_name : workload -> string

val workload_enum : workload Simkit.Enum.t
(** ["ssh"], ["jboss"], ["web"] — ["web"] carries the Figure 7
    cached-file defaults. Non-default [Web] payloads print through
    {!workload_name}, not [Simkit.Enum.name]. *)

val workload_of_string : string -> (workload, [> `Msg of string ]) result
(** {!Simkit.Enum.of_string} on {!workload_enum}; the error message is
    CLI-ready, so this doubles as a [Cmdliner.Arg.conv] parser. *)

type vm

val vm_name : vm -> string

(** [vm_is_driver vm]: driver domains run device drivers and cannot be
    suspended; a warm-VM reboot shuts them down and reboots them
    (Section 7). *)
val vm_is_driver : vm -> bool
val vm_kernel : vm -> Guest.Kernel.t
val vm_domain : vm -> Xenvmm.Domain.t
val vm_services : vm -> Guest.Service.t list
val vm_httpd : vm -> Guest.Httpd.t option

val vm_is_up : vm -> bool
(** All of the VM's services reachable — the prober predicate. *)

type t

(** Everything {!create} needs, as one overridable record. Start from
    {!Config.default} and override fields with record update syntax:

    {[
      Scenario.create
        { Scenario.Config.default with vm_count = 3; workload = Jboss }
    ]}

    This replaces the old seven-optional-argument [create]; every knob
    now has a name, a documented default, and travels as a value
    (through [Fleet], which stamps per-host prefixes and engines onto a
    shared template). *)
module Config : sig
  type scenario_workload := workload

  type t = {
    calibration : Calibration.t;  (** timings; default {!Calibration.default} *)
    seed : int;  (** engine + fault-plan seed when none passed; default 42 *)
    vm_count : int;  (** ordinary (suspendable) VMs; default 1 *)
    vm_mem_bytes : int;  (** per-VM memory; default 1 GiB *)
    workload : scenario_workload;  (** installed in every VM; default [Ssh] *)
    driver_vm_count : int;
        (** extra non-suspendable driver domains (Section 7); default 0 *)
    name_prefix : string;
        (** prepended to VM names — keeps hosts distinct in a cluster *)
    engine : Simkit.Engine.t option;
        (** pass to place several scenarios (hosts) in one simulation *)
    plan : Simkit.Fault.Plan.t option;
        (** fault-injection plan wired into VMM and disk; default a
            fresh plan seeded from [seed] with nothing armed *)
    memdyn : Mem.Memdyn.t;
        (** memory dynamics (ballooning / streamed restore) for every
            VM on this host; default {!Mem.Memdyn.off}, which is
            behaviourally invisible. The scenario seed is folded into
            [memdyn.seed] at {!create}. *)
    traffic : Netsim.Fluid.config;
        (** traffic model for load offered against this host; default
            {!Netsim.Fluid.default_config} ([Per_request]), which is
            behaviourally identical to the historical per-request
            path. Consumed by [Fleet] and the traffic experiments —
            the scenario itself schedules nothing for it. *)
  }

  val default : t
end

val create : Config.t -> t
(** Builds engine, host and powered-off VMM plus VM descriptors, per
    the config. Raises [Invalid_argument] on negative VM counts. *)

val engine : t -> Simkit.Engine.t
val host : t -> Hw.Host.t
val vmm : t -> Xenvmm.Vmm.t
val calibration : t -> Calibration.t
val vms : t -> vm list
val rng : t -> Simkit.Rng.t
val trace : t -> Simkit.Trace.t

val fault_plan : t -> Simkit.Fault.Plan.t
(** The injection plan shared by this scenario's VMM, disk and
    provisioning path. Arm sites on it ({!Simkit.Fault.Plan.arm}) to
    inject faults into a subsequent reboot. *)

val start : t -> Simkit.Process.task
(** Power the machine on, build every domain, boot every guest OS and
    start its services; optionally warm web caches. After this task
    completes, every VM answers. *)

val provision_vm :
  t -> vm -> ((unit, Simkit.Fault.t) result -> unit) -> unit
(** (Re)build a VM from scratch: fresh domain, fresh kernel, fresh
    services, then boot — used at start-up and by the cold-VM reboot.
    Reports [Driver_timeout] when the ["driver.reprovision"] injection
    site fires for a driver VM, and propagates VMM faults; nothing is
    half-built on error, so a retry starts from scratch. *)

val arm_network_artifact :
  t -> Hw.Nic.t -> factor:float -> duration_s:float -> unit
(** Degrade [nic] by [factor] and schedule the restoration after
    [duration_s] (the paper's transient post-reboot network artifact).
    At most one artifact is live; re-arming restarts the window. *)

val cancel_network_artifact : t -> unit
(** Cancel a pending artifact window and restore the NIC now — called
    on early teardown so a short run cannot leak a degraded NIC. *)

val attach_probers : t -> ?interval_s:float -> unit -> Netsim.Prober.t list
(** One started prober per VM, probing {!vm_is_up}. *)

(** {1 Observability}

    {!create} instruments every new scenario into the ambient
    [Obs] registry: engine self-metrics, disk gauges, VMM heap gauges
    and one gauge set per VM page cache. Gauges read through getters,
    so they follow components rebuilt by reboots; when several
    scenarios run in one process the newest registration wins.

    When memdyn is enabled, four more gauges appear (and only then, so
    the default metric set is unchanged): [mem.resident_pages],
    [mem.dirty_rate] (pages/s), [balloon.reclaimed] (pages) and
    [restore.faults_outstanding] (cold batches still to page in),
    each summed over this scenario's VMs. *)

val observe : Obs.Registry.t -> t -> unit
(** Re-register this scenario's components into [reg] (e.g. a fresh
    registry created after {!create}). *)
