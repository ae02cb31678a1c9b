type allocation = {
  tag : string;
  bytes : int;
  mutable live : bool;
}

type t = {
  capacity : int;
  mutable used : int;
  mutable leaked : int;
  mutable leak_events : int;
  mutable by_tag : (string, int) Hashtbl.t;
  mutable exhaustion_callbacks : (unit -> unit) list;
  mutable exhaustion_reported : bool;
}

let default_capacity_bytes = 16 * 1024 * 1024

let create ?(capacity_bytes = default_capacity_bytes) () =
  if capacity_bytes <= 0 then invalid_arg "Vmm_heap.create: capacity <= 0";
  {
    capacity = capacity_bytes;
    used = 0;
    leaked = 0;
    leak_events = 0;
    by_tag = Hashtbl.create 16;
    exhaustion_callbacks = [];
    exhaustion_reported = false;
  }

let capacity_bytes t = t.capacity
let used_bytes t = t.used + t.leaked
let free_bytes t = t.capacity - used_bytes t
let leaked_bytes t = t.leaked
let exhausted t = free_bytes t <= 0

let note_exhaustion t =
  if exhausted t && not t.exhaustion_reported then begin
    t.exhaustion_reported <- true;
    List.iter (fun f -> f ()) (List.rev t.exhaustion_callbacks)
  end;
  if not (exhausted t) then t.exhaustion_reported <- false

let bump_tag t tag delta =
  let current = Option.value (Hashtbl.find_opt t.by_tag tag) ~default:0 in
  let updated = current + delta in
  if updated = 0 then Hashtbl.remove t.by_tag tag
  else Hashtbl.replace t.by_tag tag updated

let alloc t ~tag ~bytes =
  if bytes < 0 then invalid_arg "Vmm_heap.alloc: negative size";
  if bytes > free_bytes t then Error `Out_of_memory
  else begin
    t.used <- t.used + bytes;
    bump_tag t tag bytes;
    note_exhaustion t;
    Ok { tag; bytes; live = true }
  end

let free t a =
  if not a.live then invalid_arg "Vmm_heap.free: double free";
  a.live <- false;
  t.used <- t.used - a.bytes;
  bump_tag t a.tag (-a.bytes);
  note_exhaustion t

let allocation_bytes a = a.bytes

let leak t ~bytes =
  if bytes < 0 then invalid_arg "Vmm_heap.leak: negative size";
  let actual = Stdlib.min bytes (free_bytes t) in
  t.leaked <- t.leaked + actual;
  t.leak_events <- t.leak_events + 1;
  note_exhaustion t

let usage_by_tag t =
  Hashtbl.fold (fun tag bytes acc -> (tag, bytes) :: acc) t.by_tag []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let on_exhaustion t f =
  t.exhaustion_callbacks <- f :: t.exhaustion_callbacks

(* Takes a getter, not the heap itself: a quick reload rebuilds the
   heap, and gauges registered through the getter keep reading the
   current instance. *)
let observe ?(prefix = "vmm.heap") reg get =
  let g field read = Obs.Registry.gauge reg (prefix ^ "." ^ field) read in
  g "capacity_bytes" (fun () -> float_of_int (capacity_bytes (get ())));
  g "used_bytes" (fun () -> float_of_int (used_bytes (get ())));
  g "free_bytes" (fun () -> float_of_int (free_bytes (get ())));
  g "leaked_bytes" (fun () -> float_of_int (leaked_bytes (get ())));
  g "leak_events" (fun () -> float_of_int (get ()).leak_events)
