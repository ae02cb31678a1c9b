type t =
  | Disk_full
  | Out_of_memory
  | Heap_exhausted
  | Vmm_down
  | Bad_domain_state of string
  | Image_lost of string
  | No_image_staged
  | Suspend_failed of string
  | Resume_failed of string
  | Reload_failed
  | Driver_timeout of string
  | Boot_failed of string
  | Not_recovered of string
  | Stalled of string
  | Timeout of { what : string; deadline_s : float }
  | Invariant of string

exception Error of t

let fail f = raise (Error f)

let to_string = function
  | Disk_full -> "backing store is full"
  | Out_of_memory -> "out of machine memory"
  | Heap_exhausted -> "VMM heap exhausted"
  | Vmm_down -> "VMM is not running"
  | Bad_domain_state s -> Printf.sprintf "domain in unexpected state %s" s
  | Image_lost name -> Printf.sprintf "preserved image for %s lost" name
  | No_image_staged -> "no VMM image staged for quick reload"
  | Suspend_failed name -> Printf.sprintf "suspend of %s failed" name
  | Resume_failed name -> Printf.sprintf "resume of %s failed" name
  | Reload_failed -> "quick reload of the VMM image failed"
  | Driver_timeout name -> Printf.sprintf "driver VM %s timed out" name
  | Boot_failed what -> Printf.sprintf "boot of %s failed" what
  | Not_recovered name -> Printf.sprintf "%s not recovered" name
  | Stalled what -> Printf.sprintf "simulation stalled during %s" what
  | Timeout { what; deadline_s } ->
    Printf.sprintf "%s missed its %.1fs deadline" what deadline_s
  | Invariant what -> Printf.sprintf "internal invariant violated: %s" what

let pp ppf f = Format.pp_print_string ppf (to_string f)

let injection_sites =
  [
    ("disk.write", "disk space allocation while saving a VM image");
    ("driver.reprovision", "re-creation of a driver VM after reboot");
    ("vmm.reload", "quick reload of the preserved VMM image");
    ("vmm.suspend", "on-memory suspend / save-time suspend of a domain");
    ("xend.resume", "resume or restore of a suspended domain");
  ]

let is_injection_site site = List.mem_assoc site injection_sites

module Plan = struct
  type trigger = Never | Always | On_nth of int | Prob of float

  type site_state = {
    mutable strigger : trigger;
    mutable calls : int;
    mutable fired : int;
    srng : Rng.t;
  }

  type t = {
    rng : Rng.t;
    mutable sites : (string * site_state) list; (* sorted by site name *)
  }

  let create ?(seed = 0) () = { rng = Rng.create seed; sites = [] }

  let arm t ~site trigger =
    if not (is_injection_site site) then
      fail (Invariant (Printf.sprintf "unknown injection site %s" site));
    match List.assoc_opt site t.sites with
    | Some st ->
      st.strigger <- trigger;
      st.calls <- 0;
      st.fired <- 0
    | None ->
      let st = { strigger = trigger; calls = 0; fired = 0; srng = Rng.split t.rng } in
      t.sites <-
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          ((site, st) :: t.sites)

  let fires t ~site =
    match List.assoc_opt site t.sites with
    | None -> false
    | Some st ->
      st.calls <- st.calls + 1;
      let hit =
        match st.strigger with
        | Never -> false
        | Always -> true
        | On_nth n -> st.calls = n
        | Prob p -> Rng.uniform st.srng < p
      in
      if hit then st.fired <- st.fired + 1;
      hit

  let calls t ~site =
    match List.assoc_opt site t.sites with None -> 0 | Some st -> st.calls

  let fired t ~site =
    match List.assoc_opt site t.sites with None -> 0 | Some st -> st.fired

  let total_fired t =
    List.fold_left (fun acc (_, st) -> acc + st.fired) 0 t.sites

  let armed_sites t = List.map fst t.sites
end
