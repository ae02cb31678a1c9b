(** An assembled physical host.

    Bundles the simulation engine with the machine's memory, disk, NIC,
    BIOS and a shared CPU-complex resource (used for contended boot /
    shutdown / service-start work), plus a trace sink. One [Host.t]
    corresponds to one server machine of the paper's testbed. *)

type t = {
  engine : Simkit.Engine.t;
  memory : Memory.t;
  disk : Disk.t;
  nic : Nic.t;
  bios : Bios.t;
  cpu : Simkit.Resource.t;
  trace : Simkit.Trace.t;
}

type config = {
  mem_bytes : int;
  scrub_seconds_per_gib : float;
  disk_read_mib_per_s : float;
  disk_write_mib_per_s : float;
  disk_seek_ms : float;
  disk_random_penalty : float;
  disk_capacity_bytes : int;
  nic_gbit_per_s : float;
  bios : Bios.t;
  cpu_capacity : float;
}

val default_config : config
(** The paper's testbed: 12 GiB RAM, 15 krpm SCSI disk at 88/85 MiB/s,
    gigabit Ethernet, 47 s POST, unit CPU capacity. *)

val create : ?config:config -> Simkit.Engine.t -> t

val post_time : t -> float
(** Duration of a hardware reset of this host. *)
