type t = {
  total : int;
  scrub_s_per_gib : float;
  mutable allocator : Frame.t;
}

let create ~total_bytes ~scrub_seconds_per_gib =
  if scrub_seconds_per_gib < 0.0 then
    invalid_arg "Memory.create: negative scrub rate";
  {
    total = total_bytes;
    scrub_s_per_gib = scrub_seconds_per_gib;
    allocator = Frame.of_bytes ~total_bytes;
  }

let frames t = t.allocator
let total_bytes t = t.total
let free_bytes t = Frame.free_bytes t.allocator

let scrub_time t ~bytes =
  Simkit.Units.bytes_to_gib bytes *. t.scrub_s_per_gib

let scrub_free_time t = scrub_time t ~bytes:(free_bytes t)
let scrub_all_time t = scrub_time t ~bytes:t.total

let wipe t = t.allocator <- Frame.of_bytes ~total_bytes:t.total
