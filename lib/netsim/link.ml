type t = {
  engine : Simkit.Engine.t;
  link_name : string;
  latency : float;
  wire : Simkit.Resource.t;
  bytes_per_s : float;
}

let create engine ?(name = "link") ~latency_ms ~gbit_per_s () =
  if latency_ms < 0.0 then invalid_arg "Link.create: negative latency";
  if gbit_per_s <= 0.0 then invalid_arg "Link.create: non-positive bandwidth";
  let bytes_per_s = gbit_per_s *. 1e9 /. 8.0 in
  {
    engine;
    link_name = name;
    latency = latency_ms /. 1000.0;
    wire = Simkit.Resource.create engine ~name ~capacity:bytes_per_s;
    bytes_per_s;
  }

let name t = t.link_name
let latency_s t = t.latency

let send t ~bytes k =
  if bytes < 0 then invalid_arg "Link.send: negative size";
  ignore
    (Simkit.Resource.submit t.wire ~work:(float_of_int bytes) (fun () ->
         Simkit.Process.delay t.engine t.latency k))

let round_trip t ~request_bytes ~response_bytes k =
  send t ~bytes:request_bytes (fun () -> send t ~bytes:response_bytes k)

let uncontended_time t ~bytes =
  t.latency +. (float_of_int bytes /. t.bytes_per_s)
