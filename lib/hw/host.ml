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

let default_config =
  {
    mem_bytes = Simkit.Units.gib 12;
    scrub_seconds_per_gib = 0.55;
    disk_read_mib_per_s = 88.0;
    disk_write_mib_per_s = 85.0;
    disk_seek_ms = 4.0;
    disk_random_penalty = 1.5;
    disk_capacity_bytes = 36_700_000_000;
    nic_gbit_per_s = 1.0;
    bios = Bios.default;
    cpu_capacity = 1.0;
  }

let create ?(config = default_config) engine =
  {
    engine;
    memory =
      Memory.create ~total_bytes:config.mem_bytes
        ~scrub_seconds_per_gib:config.scrub_seconds_per_gib;
    disk =
      Disk.create engine ~read_mib_per_s:config.disk_read_mib_per_s
        ~write_mib_per_s:config.disk_write_mib_per_s
        ~seek_ms:config.disk_seek_ms
        ~random_penalty:config.disk_random_penalty
        ~capacity_bytes:config.disk_capacity_bytes ();
    nic = Nic.create engine ~gbit_per_s:config.nic_gbit_per_s ();
    bios = config.bios;
    cpu = Simkit.Resource.create engine ~capacity:config.cpu_capacity;
    trace = Simkit.Trace.create engine;
  }

let post_time (t : t) =
  Bios.post_time t.bios ~mem_bytes:(Memory.total_bytes t.memory)
