type config = {
  leak_per_domain_destroy_bytes : int;
  leak_per_error_path_bytes : int;
  error_path_mean_interval_s : float;
  xenstore_leak_per_txn_bytes : int;
}

let xen_3_0_bugs =
  {
    leak_per_domain_destroy_bytes = 64 * 1024;
    leak_per_error_path_bytes = 16 * 1024;
    error_path_mean_interval_s = 600.0;
    xenstore_leak_per_txn_bytes = 4096;
  }

type t = {
  vmm : Vmm.t;
  cfg : config;
  rng : Simkit.Rng.t;
  mutable history : (float * int) list; (* newest first; current gen *)
}

let now t = Simkit.Engine.now (Vmm.engine t.vmm)

let sample t =
  t.history <- (now t, Vmm_heap.used_bytes (Vmm.heap t.vmm)) :: t.history

let rec schedule_error_path t =
  if t.cfg.error_path_mean_interval_s < infinity then begin
    let delay =
      Simkit.Rng.exponential t.rng ~mean:t.cfg.error_path_mean_interval_s
    in
    ignore
      (Simkit.Engine.schedule (Vmm.engine t.vmm) ~delay (fun () ->
           if Vmm.is_running t.vmm then begin
             Vmm_heap.leak (Vmm.heap t.vmm)
               ~bytes:t.cfg.leak_per_error_path_bytes;
             sample t
           end;
           schedule_error_path t))
  end

let attach ?(config = xen_3_0_bugs) vmm =
  let t =
    {
      vmm;
      cfg = config;
      rng = Simkit.Rng.split (Simkit.Engine.rng (Vmm.engine vmm));
      history = [];
    }
  in
  Vmm.set_leak_per_domain_destroy vmm
    ~bytes:config.leak_per_domain_destroy_bytes;
  Vmm.set_xenstore_leak_per_txn vmm ~bytes:config.xenstore_leak_per_txn_bytes;
  Vmm.on_event vmm (function
    | Vmm.Domain_destroyed _ -> sample t
    | Vmm.Booted _ ->
      (* New generation: fresh heap, fresh trend. *)
      t.history <- [];
      sample t
    | _ -> ());
  schedule_error_path t;
  t

let heap_history t = List.rev t.history

let leaked_since_boot t = Vmm_heap.leaked_bytes (Vmm.heap t.vmm)

let predict_exhaustion t =
  let points =
    List.rev_map (fun (time, used) -> (time, float_of_int used)) t.history
  in
  if List.length points < 3 then None
  else
    let fit = Simkit.Stat.linear_fit points in
    if fit.Simkit.Stat.slope <= 0.0 then None
    else
      let capacity =
        float_of_int (Vmm_heap.capacity_bytes (Vmm.heap t.vmm))
      in
      Some ((capacity -. fit.Simkit.Stat.intercept) /. fit.Simkit.Stat.slope)
