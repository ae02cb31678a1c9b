type t = {
  disk_name : string;
  spindle : Simkit.Resource.t;
  read_bytes_per_s : float;
  write_bytes_per_s : float;
  seek_s : float;
  random_penalty : float;
  capacity : int;
  mutable used : int;
  mutable total_read : int;
  mutable total_written : int;
  mutable fault_plan : Simkit.Fault.Plan.t option;
}

let mib = 1048576.0

let create engine ?(name = "disk0") ~read_mib_per_s ~write_mib_per_s ~seek_ms
    ?(random_penalty = 1.5) ?(capacity_bytes = 36_700_000_000) () =
  if read_mib_per_s <= 0.0 || write_mib_per_s <= 0.0 then
    invalid_arg "Disk.create: non-positive bandwidth";
  if capacity_bytes <= 0 then invalid_arg "Disk.create: non-positive capacity";
  {
    disk_name = name;
    (* Capacity 1.0: the resource serves one "disk second" per second. *)
    spindle = Simkit.Resource.create engine ~capacity:1.0;
    read_bytes_per_s = read_mib_per_s *. mib;
    write_bytes_per_s = write_mib_per_s *. mib;
    seek_s = seek_ms /. 1000.0;
    random_penalty;
    capacity = capacity_bytes;
    used = 0;
    total_read = 0;
    total_written = 0;
    fault_plan = None;
  }


let set_fault_plan t plan = t.fault_plan <- plan

let injected t ~site =
  match t.fault_plan with
  | None -> false
  | Some plan -> Simkit.Fault.Plan.fires plan ~site

let transfer_work t ~bytes ~rate ~random ~ops =
  (* A transfer loses sequentiality either because the access pattern is
     random or because other streams are interleaved on the spindle. *)
  let interleaved = Simkit.Resource.active_jobs t.spindle > 0 in
  let penalty = if random || interleaved then t.random_penalty else 1.0 in
  (float_of_int bytes *. penalty /. rate) +. (float_of_int ops *. t.seek_s)

let read t ~bytes ?(random = false) ?(ops = 1) k =
  if bytes < 0 then invalid_arg "Disk.read: negative size";
  let work =
    transfer_work t ~bytes ~rate:t.read_bytes_per_s ~random ~ops
  in
  t.total_read <- t.total_read + bytes;
  Simkit.Resource.submit t.spindle ~work k

let write t ~bytes ?(random = false) ?(ops = 1) k =
  if bytes < 0 then invalid_arg "Disk.write: negative size";
  let work =
    transfer_work t ~bytes ~rate:t.write_bytes_per_s ~random ~ops
  in
  t.total_written <- t.total_written + bytes;
  Simkit.Resource.submit t.spindle ~work k

let sequential_read_time t ~bytes =
  transfer_work t ~bytes ~rate:t.read_bytes_per_s ~random:false ~ops:1

let busy_time t = Simkit.Resource.busy_time t.spindle
let bytes_read t = t.total_read
let bytes_written t = t.total_written

let space_free_bytes t = t.capacity - t.used

let allocate_space t ~bytes =
  if bytes < 0 then invalid_arg "Disk.allocate_space: negative size";
  if injected t ~site:"disk.write" then Error `Disk_full
  else if bytes > space_free_bytes t then Error `Disk_full
  else begin
    t.used <- t.used + bytes;
    Ok ()
  end

let release_space t ~bytes =
  if bytes < 0 || bytes > t.used then
    invalid_arg "Disk.release_space: bad size";
  t.used <- t.used - bytes

let queue_depth t = Simkit.Resource.active_jobs t.spindle

let observe ?(prefix = "hw.disk") reg t =
  let g field read =
    Obs.Registry.gauge reg
      (prefix ^ "." ^ t.disk_name ^ "." ^ field)
      read
  in
  g "bytes_read" (fun () -> float_of_int t.total_read);
  g "bytes_written" (fun () -> float_of_int t.total_written);
  g "busy_s" (fun () -> busy_time t);
  g "queue_depth" (fun () -> float_of_int (queue_depth t));
  g "space_used_bytes" (fun () -> float_of_int t.used)
