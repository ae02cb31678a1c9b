(** Guest operating system kernel (Linux 2.6.12 modified for Xen, in
    the paper's testbed).

    Owns the VM's page cache and filesystem, runs services, and
    registers the suspend/resume handlers that the VMM invokes around
    on-memory and save-to-disk suspends:

    - the suspend handler detaches devices and freezes the services
      (they stop answering the network but are not restarted);
    - the resume handler re-attaches devices, re-binds event channels
      and unfreezes the services — with the page cache intact, which is
      the warm-VM reboot's performance story.

    Boot and shutdown consume work on the host's shared CPU complex, so
    running [n] of them in parallel yields the paper's linear-in-[n]
    times (Section 5.6: [boot(n) = 3.4 n + 2.8]). *)

type timing = {
  boot_shared_work : float;
  boot_private_s : float;
  shutdown_shared_work : float;
  shutdown_private_s : float;
  suspend_handler_s : float;
  resume_handler_s : float;
  cache_fraction : float;
      (** Fraction of VM memory used as page cache ("modern operating
          systems use most of free memory as the file cache"). *)
}

val default_timing : timing

type t

val create : Xenvmm.Vmm.t -> Xenvmm.Domain.t -> ?timing:timing -> unit -> t
(** Builds the kernel for a domain and installs its suspend/resume
    handlers on it. *)

val domain : t -> Xenvmm.Domain.t
val engine : t -> Simkit.Engine.t
val filesystem : t -> Filesystem.t

(** [rebind t vmm dom] re-attaches this kernel to a new domain on a
    (possibly different) VMM — what live migration does when the VM is
    activated on the destination host. Installs the suspend/resume
    handlers on the new domain. The filesystem keeps pointing at the
    same backing store (live migration requires shared storage). Both
    VMMs must share one simulation engine. *)
val rebind : t -> Xenvmm.Vmm.t -> Xenvmm.Domain.t -> unit
val page_cache : t -> Page_cache.t

val add_service : t -> Service.t -> unit
val services : t -> Service.t list

val make_service : t -> Service.spec -> Service.t
(** Create a service on this kernel's host and register it. *)

val boot : t -> Simkit.Process.task
(** Boot the OS and then start its services in order. Clears the page
    cache (fresh memory) — the cost the warm-VM reboot avoids. *)

val shutdown : t -> Simkit.Process.task
(** Orderly stop of services then OS shutdown. *)

val reboot_os : t -> Simkit.Process.task
(** OS rejuvenation: shutdown followed by boot in the same domain. *)

val io_ring_grants : t -> Xenvmm.Grant_table.grant_ref list
(** Grant references of the I/O ring pages currently shared with dom0's
    backend drivers; empty while detached (suspended / shut down). *)

val is_running : t -> bool

val service_reachable : t -> Service.t -> bool
(** What a network client sees: the VM is running and the service
    answers. False while suspended, saved, booting or down. *)
