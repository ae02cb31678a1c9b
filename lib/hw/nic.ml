type t = {
  wire : Simkit.Resource.t;
  full_bytes_per_s : float;
}

let create engine ~gbit_per_s () =
  if gbit_per_s <= 0.0 then invalid_arg "Nic.create: non-positive bandwidth";
  let bytes_per_s = gbit_per_s *. 1e9 /. 8.0 in
  {
    wire = Simkit.Resource.create engine ~capacity:bytes_per_s;
    full_bytes_per_s = bytes_per_s;
  }

let transfer t ~bytes k =
  if bytes < 0 then invalid_arg "Nic.transfer: negative size";
  Simkit.Resource.submit t.wire ~work:(float_of_int bytes) k

let effective_bytes_per_s t = Simkit.Resource.capacity t.wire

let transfer_time t ~bytes = float_of_int bytes /. effective_bytes_per_s t

let set_degradation t ~factor =
  if factor <= 0.0 || factor > 1.0 then
    invalid_arg "Nic.set_degradation: factor must be in (0, 1]";
  Simkit.Resource.set_capacity t.wire (t.full_bytes_per_s *. factor)

let clear_degradation t =
  Simkit.Resource.set_capacity t.wire t.full_bytes_per_s
