(** Apache HTTP server model.

    Serves files from the guest filesystem through the page cache and
    ships responses over the host NIC. When every requested file is
    resident the server is network-bound; right after a cold reboot the
    cache is empty and every request pays a scattered disk read — the
    69 % throughput drop of Figure 8b. *)

val spec : Service.spec

type t

val install :
  Kernel.t -> nic:Hw.Nic.t -> ?response_overhead_s:float -> unit -> t
(** Create an Apache instance on the kernel, registered as a service.
    [response_overhead_s] models per-request server CPU (default
    0.5 ms). *)

val populate :
  t -> file_count:int -> file_bytes:int -> Filesystem.file list
(** Create the document tree ("10,000 files of 512 KB"). *)

val warm_all : t -> unit
(** Preload every document into the page cache. *)

val handle_request :
  t -> ?file:Filesystem.file -> rng:Simkit.Rng.t -> (bool -> unit) -> unit
(** Serve one request for [file] (default: uniformly random document).
    The continuation receives [false] immediately when the server is
    unreachable (VM suspended / service down / no documents), [true]
    when the response has fully left the NIC. *)

(** {1 Aggregate service view}

    The fluid traffic model ({!Netsim.Fluid}) needs the server as three
    scalars rather than a per-request callback. All readers are
    draw-free and track live state — reboots, streamed-restore fault
    tax, NIC degradation — through the same components
    {!handle_request} uses. *)

val mean_doc_bytes : t -> float
(** Mean document size over the populated tree; 0 before {!populate}. *)

val service_time_s : t -> float
(** No-contention service time of one request: current fault tax +
    document read (cache-hit fraction at memory speed, the rest at
    disk speed) + per-request CPU + NIC transfer at the current
    effective rate. Reads live state, so it tracks a cold post-reboot
    cache and streamed-restore fault tax. *)

val capacity_rps : t -> float
(** Saturation throughput: min of the NIC bound
    (effective bytes/s over mean document size) and the CPU bound
    (1 / response overhead); 0 while the service is unreachable or
    nothing is populated. *)
