let spec =
  {
    Service.service_name = "httpd";
    start_shared_work = 0.2;
    start_private_s = 0.5;
    stop_private_s = 0.5;
  }

type t = {
  kernel : Kernel.t;
  svc : Service.t;
  nic : Hw.Nic.t;
  engine : Simkit.Engine.t;
  response_overhead_s : float;
  mutable docs : Filesystem.file array;
}

let install kernel ~nic ?(response_overhead_s = 0.0005) () =
  let svc = Kernel.make_service kernel spec in
  {
    kernel;
    svc;
    nic;
    engine = Kernel.engine kernel;
    response_overhead_s;
    docs = [||];
  }

let populate t ~file_count ~file_bytes =
  let fs = Kernel.filesystem t.kernel in
  let files =
    List.init file_count (fun i ->
        Filesystem.create_file fs
          ~name:(Printf.sprintf "doc-%05d.html" i)
          ~bytes:file_bytes ())
  in
  t.docs <- Array.of_list files;
  files

let warm_all t =
  let fs = Kernel.filesystem t.kernel in
  Array.iter (fun f -> Filesystem.warm_file fs f) t.docs

(* While a streamed restore is still faulting cold pages in, every
   request pays the current page-fault tax: the chance of touching an
   unfaulted page times one disk fault. Zero (and event-free) once the
   working set is fully resident — and always when memdyn is off. *)
let fault_tax_s t =
  match Xenvmm.Domain.mem_stream (Kernel.domain t.kernel) with
  | Some s -> Mem.Stream.fault_tax_s s
  | None -> 0.0

let handle_request t ?file ~rng k =
  if not (Kernel.service_reachable t.kernel t.svc) then k false
  else if Array.length t.docs = 0 && file = None then k false
  else begin
    let f =
      match file with
      | Some f -> f
      | None -> t.docs.(Simkit.Rng.int rng (Array.length t.docs))
    in
    let fs = Kernel.filesystem t.kernel in
    let serve () =
      Filesystem.read fs f ~access:Filesystem.Random (fun () ->
          Simkit.Process.delay t.engine t.response_overhead_s (fun () ->
              Hw.Nic.transfer t.nic ~bytes:(Filesystem.file_bytes f)
                (fun () -> k true)))
    in
    let tax = fault_tax_s t in
    if tax > 0.0 then Simkit.Process.delay t.engine tax serve else serve ()
  end

(* --- aggregate service view (fluid traffic model) ------------------------ *)

let mean_doc_bytes t =
  let n = Array.length t.docs in
  if n = 0 then 0.0
  else
    Array.fold_left
      (fun acc f -> acc +. float_of_int (Filesystem.file_bytes f))
      0.0 t.docs
    /. float_of_int n

let service_time_s t =
  (* No-contention cost of one request: the current page-fault tax, the
     document read (cache-hit fraction at memory speed, the rest from
     disk — read live, so a cold post-reboot cache shows up), the
     per-request server CPU, and the NIC transfer at the NIC's current
     (possibly degraded) rate. The document tree is uniform, so the
     first document is representative. *)
  if Array.length t.docs = 0 then fault_tax_s t +. t.response_overhead_s
  else begin
    let fs = Kernel.filesystem t.kernel in
    let doc = t.docs.(0) in
    let frac = Filesystem.cached_fraction fs doc in
    let read =
      (frac *. Filesystem.cached_read_time fs doc)
      +. ((1.0 -. frac) *. Filesystem.uncached_read_time fs doc)
    in
    let transfer =
      Hw.Nic.transfer_time t.nic ~bytes:(Filesystem.file_bytes doc)
    in
    fault_tax_s t +. read +. t.response_overhead_s +. transfer
  end

let capacity_rps t =
  if not (Kernel.service_reachable t.kernel t.svc) then 0.0
  else begin
    let bytes = mean_doc_bytes t in
    (* The wire serialises responses, so the NIC bounds saturation
       throughput; per-request CPU bounds it when documents are tiny. *)
    let nic_bound =
      if bytes <= 0.0 then infinity
      else Hw.Nic.effective_bytes_per_s t.nic /. bytes
    in
    let cpu_bound =
      if t.response_overhead_s <= 0.0 then infinity
      else 1.0 /. t.response_overhead_s
    in
    let cap = Float.min nic_bound cpu_bound in
    if Float.is_finite cap then cap else 0.0
  end
