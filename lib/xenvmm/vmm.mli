(** The virtual machine monitor.

    Owns machine memory, the VMM heap, domains, event channels and (once
    domain 0 is up) xenstored. Provides the timed building blocks that
    the rejuvenation strategies compose:

    - domain construction/destruction,
    - on-memory suspend/resume (RootHammer's mechanism),
    - traditional save/restore through the disk (stock Xen),
    - quick reload (xexec) and hardware reset.

    All timed operations are CPS {!Simkit.Process.task}s driven by the
    host's engine. The [Vmm.t] value itself survives simulated reboots —
    a reboot bumps {!generation}, rebuilds internal state, and either
    preserves or loses domain memory images depending on the path
    taken. *)

type t

type event =
  | Booted of [ `Cold | `Quick_reload ]
  | Shutdown
  | Domain_created of Domain.id
  | Domain_destroyed of Domain.id
  | Hypercall of Hypercall.t
  | Heap_exhausted

type error = Simkit.Fault.t
(** Every VMM operation reports failures as a typed {!Simkit.Fault.t}
    through its result channel. *)

val error_message : error -> string

val set_fault_plan : t -> Simkit.Fault.Plan.t option -> unit
(** Attach (or detach) the scenario's fault-injection plan. Armed
    sites consulted by the VMM: ["vmm.suspend"] (on-memory freeze and
    save-time suspend), ["vmm.reload"] (quick reload), ["xend.resume"]
    (resume and restore). *)

val set_memdyn : t -> Mem.Memdyn.t -> unit
(** Configure memory dynamics for every domain this VMM creates from
    now on. With the default {!Mem.Memdyn.off} nothing changes:
    domains get no tracker, saves size images at full RAM, restores
    are stop-and-copy, and no extra events or RNG draws occur — seeded
    runs stay byte-identical.
    @raise Invalid_argument on an invalid configuration. *)

val memdyn : t -> Mem.Memdyn.t

val last_saved_image : t -> Image.saved option
(** The most recent image {!save_domain_to_disk} wrote, for
    introspection by experiments and benchmarks. *)

val last_restore_lag_s : t -> float
(** How long the most recent streamed restore kept faulting cold pages
    in after the domain resumed ([0] until a streamed restore
    completes). *)

val create :
  ?timing:Timing.t ->
  ?heap_capacity:int ->
  ?dom0_mem_bytes:int ->
  ?scrub_policy:[ `Free_only | `All ] ->
  Hw.Host.t ->
  t
(** A powered-off VMM on the given host. [dom0_mem_bytes] defaults to
    512 MiB (the paper's configuration). [scrub_policy] selects what the
    quick-reload init scrubs: [`Free_only] (RootHammer — preserved
    frames are skipped, giving [reboot_vmm(n)] its negative slope) or
    [`All] (ablation: scrub every frame not strictly reserved... i.e.
    treat the machine as if nothing could be skipped). *)

(** {1 Accessors} *)

val host : t -> Hw.Host.t
val engine : t -> Simkit.Engine.t
val heap : t -> Vmm_heap.t
val channels : t -> Event_channel.t

(** [grants t] is the grant table for inter-domain page sharing (I/O
    rings). Reset on every VMM boot; a domain with active foreign
    mappings of its pages cannot be frozen — its suspend handler must
    tear its rings down first. *)
val grants : t -> Grant_table.t

(** [scheduler t] is the credit scheduler arbitrating guest CPU work
    (boot, shutdown). Configure per-domain weights/caps with
    {!Scheduler.set_params}; parameters are dropped when the domain is
    destroyed. *)
val scheduler : t -> Scheduler.t
val xenstore : t -> Xenstore.t option
(** [Some] only while dom0 is running. *)

val generation : t -> int
(** Number of times this VMM instance has booted. *)

val is_running : t -> bool
val dom0 : t -> Domain.t option
val domus : t -> Domain.t list
(** Live domain Us (any state except destroyed), in id order. *)

val on_event : t -> (event -> unit) -> unit

val set_leak_per_domain_destroy : t -> bytes:int -> unit
(** Model the Xen changeset-9392 bug: heap lost on every VM reboot. *)

val set_xenstore_leak_per_txn : t -> bytes:int -> unit
(** Model the changeset-8640 xenstored leak (applies from the next
    dom0 boot). *)

(** {1 Power-on and dom0} *)

val power_on : t -> Simkit.Process.task
(** Full cold power-on: BIOS POST, VMM image load, scrub of all machine
    memory, dom0 construction and boot. Requires the VMM to be down. *)

val shutdown_dom0 : t -> Simkit.Process.task
(** Run dom0's shutdown script (services in domain Us keep running —
    the property the warm-VM reboot exploits). Frees dom0's memory and
    stops xenstored. *)

val boot_dom0 : t -> Simkit.Process.task
(** (Re)build and boot dom0 with a fresh xenstored. *)

(** {1 Domain construction} *)

val create_domain :
  t ->
  name:string ->
  mem_bytes:int ->
  ((Domain.t, error) result -> unit) ->
  unit
(** Build a domain U: allocate machine frames, populate its P2M-mapping
    table (including the table's own frames), charge the VMM heap.
    Timed by [domain_create_s]. *)

val destroy_domain : t -> Domain.t -> Simkit.Process.task
(** Release a domain's frames, P2M table and heap charge. *)

val balloon : t -> Domain.t -> delta_bytes:int -> (unit, error) result
(** Grow (+) or shrink (−) a running domain's memory, updating the
    P2M-mapping table — exercises the paper's claim that the table
    stays correct under ballooning. Instantaneous. *)

(** {1 On-memory suspend/resume (RootHammer)} *)

val suspend_all_on_memory : t -> Simkit.Process.task
(** The VMM sends a suspend event to every running, suspendable domain
    U (guest suspend handlers run), then freezes each image in place:
    per-domain serialized hypercall cost, per-GiB walks overlapped
    across domains. Saves each domain's 16 KiB execution state into
    preserved frames. Driver domains ([suspendable = false]) are
    skipped — they do not survive the reload. *)

val resume_domain_on_memory :
  t -> Domain.t -> ((unit, error) result -> unit) -> unit
(** Unfreeze one suspended domain: re-adopt its P2M-mapped frames,
    restore the execution state, run the guest resume handler. *)

(** {1 Traditional save/restore (stock Xen)} *)

val save_domain_to_disk :
  t -> Domain.t -> ((unit, error) result -> unit) -> unit
(** Guest suspend handler, then write the whole memory image plus
    execution state to the host disk; the domain's machine frames are
    then released (that is why stock Xen's path scales with memory
    size). Fails with [`Disk_full] when the drive cannot hold the
    image — the domain is then resumed in place, services intact. *)

val restore_domain_from_disk :
  t -> name:string -> ((Domain.t, error) result -> unit) -> unit
(** Re-create a saved domain: allocate frames, read the image back from
    disk, restore state, run the guest resume handler. *)

val saved_images : t -> string list
(** Names of domains currently saved on disk. *)

(** {1 VMM reboot paths} *)

val xexec_load :
  t -> ?image:Image.t -> ((unit, error) result -> unit) -> unit
(** The xexec hypercall: read the new executable image (VMM + dom0
    kernel + initrd) from storage into machine frames that will be
    preserved across the reload. Normally issued from dom0 before the
    reboot; a previously staged image is replaced. *)

val staged_image : t -> Image.t option
(** The image a quick reload would boot, if one is staged. *)

val shutdown_vmm : t -> Simkit.Process.task
(** Orderly VMM shutdown (after dom0 is down). Suspended domain images
    remain frozen in RAM — only quick reload can preserve them. *)

val quick_reload : t -> ((unit, error) result -> unit) -> unit
(** The xexec reboot path: jump to the staged image without a hardware
    reset (staging a default image on the fly — including its disk
    read — when none was staged). The new instance rebuilds its heap
    (clearing all leaks — this is the rejuvenation), re-reserves the
    staged image, the P2M-mapping tables, every suspended domain's
    frames and execution-state frames, and scrubs only what is
    genuinely free. Does not boot dom0. *)

val hardware_reset : t -> Simkit.Process.task
(** Power-cycle path: all memory content is lost (frozen images are
    destroyed — their domains become [Crashed]), BIOS POST runs, the
    VMM scrubs all memory. Does not boot dom0. *)

(** {1 Introspection for experiments} *)

val preserved_bytes : t -> int
(** Bytes currently pinned by frozen domain images + their metadata. *)
