type event =
  | Booted of [ `Cold | `Quick_reload ]
  | Shutdown
  | Domain_created of Domain.id
  | Domain_destroyed of Domain.id
  | Hypercall of Hypercall.t
  | Heap_exhausted

module Fault = Simkit.Fault

type error = Fault.t

let error_message = Fault.to_string

type saved_image = {
  img_domain : Domain.t;
  img_image : Image.saved;
}

type vmm_state = Powered_off | Vmm_running

(* Heap charge for the hypervisor's per-domain control structures. *)
let domain_struct_bytes = 8192

type t = {
  hw : Hw.Host.t;
  timing : Timing.t;
  heap_capacity : int;
  dom0_mem_bytes : int;
  mutable heap : Vmm_heap.t;
  mutable chans : Event_channel.t;
  mutable store : Xenstore.t option;
  domains : (Domain.id, Domain.t) Hashtbl.t;
  domain_heap : (Domain.id, Vmm_heap.allocation) Hashtbl.t;
  saved : (string, saved_image) Hashtbl.t;
  mutable next_domid : int;
  mutable vmm_state : vmm_state;
  mutable gen : int;
  mutable observers : (event -> unit) list;
  (* Serializes per-domain hypercall work inside the VMM. *)
  vmm_lock : Simkit.Resource.t;
  mutable leak_per_destroy : int;
  mutable xenstore_leak_per_txn : int;
  scrub_policy : [ `Free_only | `All ];
  mutable staged : (Image.t * Hw.Frame.extent list) option;
  sched : Scheduler.t;
  mutable grant_table : Grant_table.t;
  mutable fault_plan : Fault.Plan.t option;
  mutable memdyn : Mem.Memdyn.t;
  mutable last_saved_image : Image.saved option;
  mutable last_restore_lag_s : float;
}

let create ?(timing = Timing.default) ?(heap_capacity = Vmm_heap.default_capacity_bytes)
    ?(dom0_mem_bytes = Simkit.Units.mib 512) ?(scrub_policy = `Free_only) hw =
  {
    hw;
    timing;
    heap_capacity;
    dom0_mem_bytes;
    heap = Vmm_heap.create ~capacity_bytes:heap_capacity ();
    chans = Event_channel.create ();
    store = None;
    domains = Hashtbl.create 16;
    domain_heap = Hashtbl.create 16;
    saved = Hashtbl.create 8;
    next_domid = 0;
    vmm_state = Powered_off;
    gen = 0;
    observers = [];
    vmm_lock =
      Simkit.Resource.create hw.Hw.Host.engine ~capacity:1.0;
    leak_per_destroy = 0;
    xenstore_leak_per_txn = 0;
    scrub_policy;
    staged = None;
    (* Two dual-core Opterons in the paper's testbed. *)
    sched = Scheduler.create hw.Hw.Host.engine ~physical_cpus:4 ();
    grant_table = Grant_table.create ();
    fault_plan = None;
    memdyn = Mem.Memdyn.off;
    last_saved_image = None;
    last_restore_lag_s = 0.0;
  }

let set_fault_plan t plan = t.fault_plan <- plan
let set_memdyn t m = t.memdyn <- Mem.Memdyn.validate m
let memdyn t = t.memdyn
let last_saved_image t = t.last_saved_image
let last_restore_lag_s t = t.last_restore_lag_s

(* Consult the scenario's injection plan at a named site. *)
let injected t ~site =
  match t.fault_plan with
  | None -> false
  | Some plan -> Fault.Plan.fires plan ~site

let log_src = Logs.Src.create "roothammer.vmm" ~doc:"VMM lifecycle events"

module Log = (val Logs.src_log log_src)

let pp_event ppf = function
  | Booted `Cold -> Format.pp_print_string ppf "booted (cold)"
  | Booted `Quick_reload -> Format.pp_print_string ppf "booted (quick reload)"
  | Shutdown -> Format.pp_print_string ppf "shutdown"
  | Domain_created id -> Format.fprintf ppf "domain %d created" id
  | Domain_destroyed id -> Format.fprintf ppf "domain %d destroyed" id
  | Hypercall h -> Format.fprintf ppf "hypercall %a" Hypercall.pp h
  | Heap_exhausted -> Format.pp_print_string ppf "HEAP EXHAUSTED"

let host t = t.hw
let engine t = t.hw.Hw.Host.engine
let heap t = t.heap
let channels t = t.chans
let scheduler t = t.sched
let grants t = t.grant_table
let xenstore t = t.store
let generation t = t.gen
let is_running t = t.vmm_state = Vmm_running

let emit t e =
  Log.debug (fun m ->
      m "[t=%.2f gen=%d] %a"
        (Simkit.Engine.now t.hw.Hw.Host.engine)
        t.gen pp_event e);
  List.iter (fun f -> f e) (List.rev t.observers)

let on_event t f = t.observers <- f :: t.observers

let set_leak_per_domain_destroy t ~bytes = t.leak_per_destroy <- bytes
let set_xenstore_leak_per_txn t ~bytes = t.xenstore_leak_per_txn <- bytes

let dom0 t =
  Hashtbl.fold (* simlint: allow D003 at most one Dom0 exists per host *)
    (fun _ d acc -> if Domain.kind d = Domain.Dom0 then Some d else acc)
    t.domains None

let domus t =
  Hashtbl.fold (fun _ d acc -> if Domain.is_domu d then d :: acc else acc)
    t.domains []
  |> List.sort (fun a b -> compare (Domain.id a) (Domain.id b))

let memory t = t.hw.Hw.Host.memory
let frames t = Hw.Memory.frames (memory t)
let trace t = t.hw.Hw.Host.trace

let fresh_heap t =
  t.heap <- Vmm_heap.create ~capacity_bytes:t.heap_capacity ();
  Vmm_heap.on_exhaustion t.heap (fun () -> emit t Heap_exhausted)

(* --- frame plumbing --------------------------------------------------- *)

let exec_state_frame_count t =
  Simkit.Units.pages_of_bytes t.timing.Timing.exec_state_bytes

(* Allocate machine memory for a domain: the P2M table's own frames plus
   the guest memory, and populate the mapping table. [mem_bytes]
   defaults to the domain's configured RAM; a restore of a ballooned
   image passes the smaller resident size instead. *)
let allocate_domain_memory ?mem_bytes t dom =
  let mem_bytes = Option.value mem_bytes ~default:(Domain.mem_bytes dom) in
  let p2m = Domain.p2m dom in
  let mem_pages = Simkit.Units.pages_of_bytes mem_bytes in
  let table_pages = Simkit.Units.pages_of_bytes (mem_pages * 8) in
  match Hw.Frame.alloc (frames t) ~frames:table_pages with
  | None -> Error Fault.Out_of_memory
  | Some table_extents -> (
    Domain.set_p2m_frames dom table_extents;
    match Hw.Frame.alloc (frames t) ~frames:mem_pages with
    | None ->
      Hw.Frame.free (frames t) table_extents;
      Domain.set_p2m_frames dom [];
      Error Fault.Out_of_memory
    | Some mem_extents ->
      let _ =
        List.fold_left
          (fun pfn ext ->
            P2m.add_extent p2m ~pfn_first:pfn ~mfns:ext;
            pfn + ext.Hw.Frame.count)
          0 mem_extents
      in
      Ok ())

let release_domain_memory t dom =
  let backing = P2m.remove_all (Domain.p2m dom) in
  if backing <> [] then Hw.Frame.free (frames t) backing;
  let table = Domain.p2m_frames dom in
  if table <> [] then Hw.Frame.free (frames t) table;
  Domain.set_p2m_frames dom [];
  match Domain.exec_state dom with
  | Some es ->
    if es.Domain.state_frames <> [] then
      Hw.Frame.free (frames t) es.Domain.state_frames;
    Domain.set_exec_state dom None
  | None -> ()

let charge_domain_heap t dom =
  match
    Vmm_heap.alloc t.heap
      ~tag:(Printf.sprintf "domain/%s" (Domain.name dom))
      ~bytes:domain_struct_bytes
  with
  | Error `Out_of_memory -> Error Fault.Heap_exhausted
  | Ok a ->
    Hashtbl.replace t.domain_heap (Domain.id dom) a;
    Ok ()

let release_domain_heap t dom =
  match Hashtbl.find_opt t.domain_heap (Domain.id dom) with
  | Some a ->
    Vmm_heap.free t.heap a;
    Hashtbl.remove t.domain_heap (Domain.id dom)
  | None -> ()

(* --- xenstore bookkeeping ---------------------------------------------- *)

(* The toolstack mirrors domain metadata into xenstored whenever the
   store is up (it is down while dom0 is down); this is what makes the
   changeset-8640 transaction leak grow with real activity. *)
let store_domain_entry t d =
  match t.store with
  | None -> ()
  | Some store ->
    let base = Printf.sprintf "/local/domain/%d" (Domain.id d) in
    Xenstore.write store ~path:(base ^ "/name") (Domain.name d);
    Xenstore.write store ~path:(base ^ "/memory")
      (string_of_int (Domain.mem_bytes d));
    Xenstore.write store ~path:(base ^ "/state")
      (Domain.state_name (Domain.state d))

let store_domain_state t d =
  match t.store with
  | None -> ()
  | Some store ->
    Xenstore.write store
      ~path:(Printf.sprintf "/local/domain/%d/state" (Domain.id d))
      (Domain.state_name (Domain.state d))

let store_remove_domain t id =
  match t.store with
  | None -> ()
  | Some store -> Xenstore.rm store ~path:(Printf.sprintf "/local/domain/%d" id)

(* --- xexec image staging ------------------------------------------------ *)

let staged_image t = Option.map fst t.staged

let drop_staged_image ~free_frames t =
  match t.staged with
  | None -> ()
  | Some (_, extents) ->
    if free_frames then Hw.Frame.free (frames t) extents;
    t.staged <- None

let xexec_load t ?(image = Image.default) k =
  emit t (Hypercall Hypercall.Xexec);
  (* Replacing a previously staged image releases its frames. *)
  drop_staged_image ~free_frames:true t;
  match Hw.Frame.alloc_bytes (frames t) ~bytes:(Image.total_bytes image) with
  | None -> k (Error Fault.Out_of_memory)
  | Some extents ->
    Hw.Disk.read t.hw.Hw.Host.disk ~bytes:(Image.total_bytes image)
      (fun () ->
        t.staged <- Some (image, extents);
        k (Ok ()))

(* --- dom0 ------------------------------------------------------------- *)

let build_dom0 t =
  let id = t.next_domid in
  t.next_domid <- id + 1;
  let d =
    Domain.create ~id ~name:"Domain-0" ~kind:Domain.Dom0
      ~mem_bytes:t.dom0_mem_bytes
  in
  match allocate_domain_memory t d with
  | Error _ -> Fault.fail (Fault.Invariant "cannot allocate dom0 memory")
  | Ok () ->
    (match charge_domain_heap t d with
    | Error _ -> Fault.fail (Fault.Invariant "cannot charge heap for dom0")
    | Ok () -> ());
    Hashtbl.replace t.domains id d;
    emit t (Domain_created id);
    d

let boot_dom0 t k =
  let span = Simkit.Trace.begin_span (trace t) "dom0 boot" in
  let d = build_dom0 t in
  Domain.set_state d Domain.Booting;
  Simkit.Process.delay (engine t) t.timing.Timing.dom0_boot_s (fun () ->
      Domain.set_state d Domain.Running;
      t.store <-
        Some
          (Xenstore.create
             ~leak_per_transaction_bytes:t.xenstore_leak_per_txn ());
      (* The toolstack re-registers every live domain in the fresh
         store. *)
      Hashtbl.iter (* simlint: allow D003 the store is keyed by path; registration order is invisible *)
        (fun _ dom -> store_domain_entry t dom)
        t.domains;
      Simkit.Trace.end_span (trace t) span;
      k ())

let shutdown_dom0 t k =
  match dom0 t with
  | None -> k ()
  | Some d ->
    let span = Simkit.Trace.begin_span (trace t) "dom0 shutdown" in
    Domain.set_state d Domain.Shutting_down;
    Simkit.Process.delay (engine t) t.timing.Timing.dom0_shutdown_s (fun () ->
        Domain.set_state d Domain.Halted;
        t.store <- None;
        release_domain_memory t d;
        release_domain_heap t d;
        Hashtbl.remove t.domains (Domain.id d);
        emit t (Domain_destroyed (Domain.id d));
        Simkit.Trace.end_span (trace t) span;
        k ())

(* --- power-on / reboot paths ------------------------------------------ *)

let power_on t k =
  if t.vmm_state = Vmm_running then invalid_arg "Vmm.power_on: already running";
  let tr = trace t in
  drop_staged_image ~free_frames:false t;
  Hw.Memory.wipe (memory t);
  Hashtbl.reset t.domains;
  Hashtbl.reset t.domain_heap;
  fresh_heap t;
  t.chans <- Event_channel.create ();
  t.grant_table <- Grant_table.create ();
  let post = Simkit.Trace.begin_span tr "BIOS POST" in
  Simkit.Process.delay (engine t) (Hw.Host.post_time t.hw) (fun () ->
      Simkit.Trace.end_span tr post;
      let load = Simkit.Trace.begin_span tr "VMM load+init" in
      Simkit.Process.delay (engine t) t.timing.Timing.vmm_load_s (fun () ->
          Simkit.Trace.end_span tr load;
          let scrub = Simkit.Trace.begin_span tr "memory scrub (all)" in
          Simkit.Process.delay (engine t)
            (Hw.Memory.scrub_all_time (memory t))
            (fun () ->
              Simkit.Trace.end_span tr scrub;
              t.vmm_state <- Vmm_running;
              t.gen <- t.gen + 1;
              emit t (Booted `Cold);
              boot_dom0 t k)))

let shutdown_vmm t k =
  if t.vmm_state <> Vmm_running then invalid_arg "Vmm.shutdown_vmm: not running";
  let span = Simkit.Trace.begin_span (trace t) "VMM shutdown" in
  Simkit.Process.delay (engine t) t.timing.Timing.vmm_shutdown_s (fun () ->
      t.vmm_state <- Powered_off;
      emit t Shutdown;
      Simkit.Trace.end_span (trace t) span;
      k ())

(* Domains that are not safely frozen when the VMM goes down are lost.
   [Saved_to_disk] survives on stable storage. *)
let crash_unpreserved t ~preserve_suspended =
  Hashtbl.iter (* simlint: allow D003 independent per-domain state writes commute *)
    (fun _ d ->
      match Domain.state d with
      | Domain.Suspended when preserve_suspended -> ()
      | Domain.Saved_to_disk -> ()
      | Domain.Halted | Domain.Crashed -> ()
      | _ -> Domain.set_state d Domain.Crashed)
    t.domains;
  (* Sorted by id: the per-domain teardown below emits observer-visible
     [Domain_destroyed] events, so its order must not depend on the
     hash layout of [t.domains]. *)
  let doomed =
    Hashtbl.fold
      (fun id d acc ->
        match Domain.state d with
        | Domain.Crashed | Domain.Halted -> (id, d) :: acc
        | _ -> acc)
      t.domains []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (id, d) ->
      (* Frames are either wiped (hardware reset) or rebuilt from scratch
         (quick reload reservation), so only drop the bookkeeping here. *)
      ignore (P2m.remove_all (Domain.p2m d));
      Domain.set_p2m_frames d [];
      Domain.set_exec_state d None;
      Hashtbl.remove t.domains id;
      Hashtbl.remove t.domain_heap id;
      emit t (Domain_destroyed id))
    doomed

let rec quick_reload t k =
  if t.vmm_state <> Vmm_running then k (Error Fault.Vmm_down)
  else
    match t.staged with
    | None ->
      (* dom0 normally stages the image with xexec before the reboot;
         stage a default one on the fly otherwise (its disk read then
         lands inside the outage). *)
      xexec_load t (function
        | Ok () -> quick_reload t k
        | Error e -> k (Error e))
    | Some (_, image_extents) -> quick_reload_staged t image_extents k

and quick_reload_staged t image_extents k =
  if injected t ~site:"vmm.reload" then begin
    (* The jump to the staged image goes wrong: the machine is wedged
       with no VMM running. Frozen images survive only in RAM, so a
       hardware reset (which loses them) is the way back. *)
    t.vmm_state <- Powered_off;
    k (Error Fault.Reload_failed)
  end
  else begin
    let tr = trace t in
    (* Anything still running (e.g. a driver domain that cannot be
       suspended) does not survive the reload. *)
    crash_unpreserved t ~preserve_suspended:true;
    (* Sorted by id: the re-adoption loop below lays the preserved
       regions back into the fresh memory view, and frame bookkeeping
       must not depend on hash order. *)
    let preserved =
      Hashtbl.fold (fun _ d acc -> d :: acc) t.domains []
      |> List.filter (fun d -> Domain.state d = Domain.Suspended)
      |> List.sort (fun a b -> compare (Domain.id a) (Domain.id b))
    in
    (* The new VMM instance starts from a blank view of machine memory
       and re-adopts the preserved regions: the staged executable image
       first, then each P2M-mapping table, the frames it records, and
       the execution state. *)
    Hw.Memory.wipe (memory t);
    let image_reserved =
      List.fold_left
        (fun acc e ->
          match acc with
          | Error _ as err -> err
          | Ok () -> Hw.Frame.reserve (frames t) e)
        (Ok ()) image_extents
    in
    (match image_reserved with
    | Ok () -> ()
    | Error _ ->
      Fault.fail (Fault.Invariant "quick_reload: staged image frames lost"));
    let reserve_all d =
      let reserve_list extents =
        List.fold_left
          (fun acc e ->
            match acc with
            | Error _ as err -> err
            | Ok () -> Hw.Frame.reserve (frames t) e)
          (Ok ()) extents
      in
      let exec_frames =
        match Domain.exec_state d with
        | Some es -> es.Domain.state_frames
        | None -> []
      in
      match reserve_list (Domain.p2m_frames d) with
      | Error _ -> Error (Fault.Image_lost (Domain.name d))
      | Ok () -> (
        match reserve_list (P2m.machine_extents (Domain.p2m d)) with
        | Error _ -> Error (Fault.Image_lost (Domain.name d))
        | Ok () -> (
          match reserve_list exec_frames with
          | Error _ -> Error (Fault.Image_lost (Domain.name d))
          | Ok () -> Ok ()))
    in
    let rec reserve_domains = function
      | [] -> Ok ()
      | d :: rest -> (
        match reserve_all d with
        | Error _ as e -> e
        | Ok () -> reserve_domains rest)
    in
    match reserve_domains preserved with
    | Error e ->
      t.vmm_state <- Powered_off;
      k (Error e)
    | Ok () ->
      (* Fresh internal state: the heap rebuild is the rejuvenation. *)
      fresh_heap t;
      Hashtbl.reset t.domain_heap;
      List.iter
        (fun d ->
          match charge_domain_heap t d with
          | Ok () -> ()
          | Error _ ->
            Fault.fail (Fault.Invariant "quick_reload: heap cannot hold domains"))
        preserved;
      t.chans <- Event_channel.create ();
      t.grant_table <- Grant_table.create ();
      t.store <- None;
      let load = Simkit.Trace.begin_span tr "quick reload (xexec)" in
      Simkit.Process.delay (engine t) t.timing.Timing.vmm_load_s (fun () ->
          Simkit.Trace.end_span tr load;
          let scrub_label, scrub_time =
            match t.scrub_policy with
            | `Free_only ->
              ("memory scrub (free only)", Hw.Memory.scrub_free_time (memory t))
            | `All ->
              ("memory scrub (all)", Hw.Memory.scrub_all_time (memory t))
          in
          let scrub = Simkit.Trace.begin_span tr scrub_label in
          Simkit.Process.delay (engine t) scrub_time
            (fun () ->
              Simkit.Trace.end_span tr scrub;
              (* The image has been copied to the boot address and
                 jumped to; its staging frames are released. *)
              drop_staged_image ~free_frames:true t;
              t.gen <- t.gen + 1;
              emit t (Booted `Quick_reload);
              k (Ok ())))
  end

let hardware_reset t k =
  if t.vmm_state = Vmm_running then
    invalid_arg "Vmm.hardware_reset: shut the VMM down first";
  let tr = trace t in
  (* A power cycle loses every frozen image, including any staged
     executable. *)
  drop_staged_image ~free_frames:false t;
  crash_unpreserved t ~preserve_suspended:false;
  Hw.Memory.wipe (memory t);
  fresh_heap t;
  Hashtbl.reset t.domain_heap;
  t.chans <- Event_channel.create ();
  t.grant_table <- Grant_table.create ();
  t.store <- None;
  let post = Simkit.Trace.begin_span tr "hardware reset (POST)" in
  Simkit.Process.delay (engine t) (Hw.Host.post_time t.hw) (fun () ->
      Simkit.Trace.end_span tr post;
      let load = Simkit.Trace.begin_span tr "VMM load+init" in
      Simkit.Process.delay (engine t) t.timing.Timing.vmm_load_s (fun () ->
          Simkit.Trace.end_span tr load;
          let scrub = Simkit.Trace.begin_span tr "memory scrub (all)" in
          Simkit.Process.delay (engine t)
            (Hw.Memory.scrub_all_time (memory t))
            (fun () ->
              Simkit.Trace.end_span tr scrub;
              t.vmm_state <- Vmm_running;
              t.gen <- t.gen + 1;
              emit t (Booted `Cold);
              k ())))

(* --- domain construction ---------------------------------------------- *)

let create_domain t ~name ~mem_bytes k =
  if t.vmm_state <> Vmm_running then k (Error Fault.Vmm_down)
  else begin
    let id = t.next_domid in
    t.next_domid <- id + 1;
    let d = Domain.create ~id ~name ~kind:Domain.DomU ~mem_bytes in
    match charge_domain_heap t d with
    | Error e -> k (Error e)
    | Ok () -> (
      match allocate_domain_memory t d with
      | Error e ->
        release_domain_heap t d;
        k (Error e)
      | Ok () ->
        if Mem.Memdyn.enabled t.memdyn then
          Domain.set_mem_tracker d
            (Some
               (Mem.Pagestate.create ~memdyn:t.memdyn ~name
                  ~total_bytes:mem_bytes
                  ~now:(Simkit.Engine.now (engine t))));
        Hashtbl.replace t.domains id d;
        emit t (Hypercall (Hypercall.Domctl_create id));
        Simkit.Process.delay (engine t) t.timing.Timing.domain_create_s
          (fun () ->
            store_domain_entry t d;
            emit t (Domain_created id);
            k (Ok d)))
  end

let destroy_domain t dom k =
  emit t (Hypercall (Hypercall.Domctl_destroy (Domain.id dom)));
  Simkit.Process.delay (engine t) t.timing.Timing.domain_destroy_s (fun () ->
      release_domain_memory t dom;
      release_domain_heap t dom;
      if t.leak_per_destroy > 0 then
        Vmm_heap.leak t.heap ~bytes:t.leak_per_destroy;
      Event_channel.close_all_of t.chans ~domid:(Domain.id dom);
      Grant_table.release_domain t.grant_table (Domain.id dom);
      Scheduler.remove_domain t.sched ~domid:(Domain.id dom);
      Hashtbl.remove t.domains (Domain.id dom);
      store_remove_domain t (Domain.id dom);
      emit t (Domain_destroyed (Domain.id dom));
      k ())

(* Keep the memory-dynamics tracker's ballooned count in step with the
   p2m whenever the balloon moves. *)
let note_balloon_delta dom ~pages =
  match Domain.mem_tracker dom with
  | None -> ()
  | Some ps ->
    let total = Mem.Pagestate.total_pages ps in
    let target =
      min (total - 1) (max 0 (Mem.Pagestate.ballooned_pages ps + pages))
    in
    Mem.Pagestate.set_ballooned ps ~pages:target

let balloon t dom ~delta_bytes =
  if t.vmm_state <> Vmm_running then Error Fault.Vmm_down
  else if delta_bytes = 0 then Ok ()
  else begin
    emit t (Hypercall (Hypercall.Memory_op (Domain.id dom)));
    let p2m = Domain.p2m dom in
    if delta_bytes > 0 then begin
      let add_pages = Simkit.Units.pages_of_bytes delta_bytes in
      match Hw.Frame.alloc (frames t) ~frames:add_pages with
      | None -> Error Fault.Out_of_memory
      | Some extents ->
        let _ =
          List.fold_left
            (fun pfn ext ->
              P2m.add_extent p2m ~pfn_first:pfn ~mfns:ext;
              pfn + ext.Hw.Frame.count)
            (P2m.pages p2m) extents
        in
        note_balloon_delta dom ~pages:(-add_pages);
        Ok ()
    end
    else begin
      let remove_pages = Simkit.Units.pages_of_bytes (-delta_bytes) in
      if remove_pages > P2m.pages p2m then Error Fault.Out_of_memory
      else begin
        let released =
          P2m.remove_range p2m
            ~pfn_first:(P2m.pages p2m - remove_pages)
            ~count:remove_pages
        in
        Hw.Frame.free (frames t) released;
        note_balloon_delta dom ~pages:remove_pages;
        Ok ()
      end
    end
  end

(* --- on-memory suspend/resume ------------------------------------------ *)

let freeze_domain t d k =
  Domain.set_state d Domain.Suspending;
  (* The VMM sends the suspend event through the guest's bound event
     channel; the kernel's suspend handler then runs (device detach —
     which must tear down its grant mappings) and issues the suspend
     hypercall. *)
  (match Domain.suspend_port d with
  | Some port -> ignore (Event_channel.notify t.chans (engine t) port)
  | None -> ());
  Domain.suspend_handler d (fun () ->
      if injected t ~site:"vmm.suspend" then begin
        (* Injected suspend failure: the freeze walk corrupts the image
           and the domain is lost, exactly as if its suspend handler had
           left a foreign mapping behind. *)
        Domain.set_state d Domain.Crashed;
        k ()
      end
      else if Grant_table.foreign_mappings_of t.grant_table (Domain.id d) > 0 then begin
        (* A page of this domain is still mapped by another domain: its
           image cannot be frozen safely. *)
        Domain.set_state d Domain.Crashed;
        k ()
      end
      else begin
      emit t (Hypercall (Hypercall.Suspend (Domain.id d)));
      (* Serialized hypercall entry ... *)
      Simkit.Resource.submit t.vmm_lock
        ~work:t.timing.Timing.suspend_fixed_s (fun () ->
          (* ... then the per-GiB freeze walk, overlapped across
             domains. *)
          Simkit.Process.delay (engine t)
            (Timing.suspend_walk_time t.timing
               ~mem_bytes:(Domain.mem_bytes d))
            (fun () ->
              let state_pages = exec_state_frame_count t in
              match Hw.Frame.alloc (frames t) ~frames:state_pages with
              | None ->
                Domain.set_state d Domain.Crashed;
                k ()
              | Some state_frames ->
                let devices = Domain.detach_all_devices d in
                Domain.set_exec_state d
                  (Some
                     {
                       Domain.saved_at = Simkit.Engine.now (engine t);
                       channels =
                         Event_channel.snapshot_of t.chans
                           ~domid:(Domain.id d);
                       devices;
                       state_bytes = t.timing.Timing.exec_state_bytes;
                       state_frames;
                     });
                Event_channel.close_all_of t.chans ~domid:(Domain.id d);
                Domain.set_state d Domain.Suspended;
                store_domain_state t d;
                k ()))
      end)

let suspend_all_on_memory t k =
  let targets =
    List.filter
      (fun d -> Domain.state d = Domain.Running && Domain.suspendable d)
      (domus t)
  in
  let span = Simkit.Trace.begin_span (trace t) "on-memory suspend" in
  Simkit.Process.par (List.map (fun d k -> freeze_domain t d k) targets)
    (fun () ->
      Simkit.Trace.end_span (trace t) span;
      k ())

let resume_domain_on_memory t d k =
  if t.vmm_state <> Vmm_running then k (Error Fault.Vmm_down)
  else
    match Domain.state d with
    | Domain.Suspended when injected t ~site:"xend.resume" ->
      (* Injected resume failure before any state is touched: the
         domain stays frozen, so the caller may retry. *)
      k (Error (Fault.Resume_failed (Domain.name d)))
    | Domain.Suspended -> (
      match Domain.exec_state d with
      | None ->
        k (Error (Fault.Bad_domain_state (Domain.state_name Domain.Suspended)))
      | Some es ->
        Domain.set_state d Domain.Resuming;
        emit t (Hypercall (Hypercall.Resume (Domain.id d)));
        let duration =
          Timing.resume_time t.timing ~mem_bytes:(Domain.mem_bytes d)
        in
        Simkit.Process.delay (engine t) duration (fun () ->
            Event_channel.restore_snapshot t.chans ~domid:(Domain.id d)
              es.Domain.channels;
            List.iter (Domain.attach_device d) es.Domain.devices;
            Hw.Frame.free (frames t) es.Domain.state_frames;
            Domain.set_exec_state d None;
            (* Guest resume handler: re-establish channels, re-attach
               devices, restart the kernel. *)
            Domain.resume_handler d (fun () ->
                Domain.set_state d Domain.Running;
                store_domain_state t d;
                k (Ok ()))))
    | s -> k (Error (Fault.Bad_domain_state (Domain.state_name s)))

(* --- traditional save/restore ------------------------------------------ *)

let save_domain_to_disk t d k =
  Domain.set_state d Domain.Saving;
  Domain.suspend_handler d (fun () ->
      emit t (Hypercall (Hypercall.Suspend (Domain.id d)));
      let devices = Domain.detach_all_devices d in
      (* Abort the save: reattach devices and resume in place; the
         frozen services come back without a restart. *)
      let abort_save fault =
        List.iter (Domain.attach_device d) devices;
        Domain.set_state d Domain.Resuming;
        Domain.resume_handler d (fun () ->
            Domain.set_state d Domain.Running;
            k (Error fault))
      in
      (* Pre-suspend balloon reclaim: inflate over the idle pages so
         the written image shrinks to the policy's keep target. The
         working set stays resident, so service times after the
         restore are unaffected. *)
      (match Domain.mem_tracker d with
      | Some ps when Mem.Memdyn.balloon_enabled t.memdyn ->
        Mem.Pagestate.refresh ps ~now:(Simkit.Engine.now (engine t));
        let reclaim = Mem.Balloon.reclaim_target ps in
        if reclaim > 0 then
          ignore
            (balloon t d
               ~delta_bytes:(-(reclaim * Simkit.Units.page_bytes)))
      | _ -> ());
      let resident_bytes =
        match Domain.mem_tracker d with
        | Some ps -> Mem.Pagestate.resident_bytes ps
        | None -> Domain.mem_bytes d
      in
      let image =
        Image.saved ~resident_bytes
          ~exec_state_bytes:t.timing.Timing.exec_state_bytes
          ~total_ram_bytes:(Domain.mem_bytes d)
      in
      let image_bytes = Image.saved_bytes image in
      if injected t ~site:"vmm.suspend" then
        abort_save (Fault.Suspend_failed (Domain.name d))
      else
      match Hw.Disk.allocate_space t.hw.Hw.Host.disk ~bytes:image_bytes with
      | Error `Disk_full -> abort_save Fault.Disk_full
      | Ok () ->
      Simkit.Process.delay (engine t) t.timing.Timing.save_handler_s
        (fun () ->
          Hw.Disk.write t.hw.Hw.Host.disk ~bytes:image_bytes (fun () ->
              Domain.set_exec_state d
                (Some
                   {
                     Domain.saved_at = Simkit.Engine.now (engine t);
                     channels =
                       Event_channel.snapshot_of t.chans
                         ~domid:(Domain.id d);
                     devices;
                     state_bytes = t.timing.Timing.exec_state_bytes;
                     state_frames = [];
                   });
              Event_channel.close_all_of t.chans ~domid:(Domain.id d);
              (* The whole point of stock Xen's path: the frames are
                 given back, the image lives only on disk. *)
              let backing = P2m.remove_all (Domain.p2m d) in
              Hw.Frame.free (frames t) backing;
              Hw.Frame.free (frames t) (Domain.p2m_frames d);
              Domain.set_p2m_frames d [];
              release_domain_heap t d;
              t.last_saved_image <- Some image;
              Hashtbl.replace t.saved (Domain.name d)
                { img_domain = d; img_image = image };
              Domain.set_state d Domain.Saved_to_disk;
              store_domain_state t d;
              k (Ok ()))))

let restore_domain_from_disk t ~name k =
  if t.vmm_state <> Vmm_running then k (Error Fault.Vmm_down)
  else
    match Hashtbl.find_opt t.saved name with
    | None -> k (Error (Fault.Image_lost name))
    | Some _ when injected t ~site:"xend.resume" ->
      (* Injected restore failure before anything is read back: the
         on-disk image is intact, so the caller may retry. *)
      k (Error (Fault.Resume_failed name))
    | Some img -> (
      let d = img.img_domain in
      match charge_domain_heap t d with
      | Error e -> k (Error e)
      | Ok () -> (
        match
          allocate_domain_memory ~mem_bytes:img.img_image.Image.resident_bytes
            t d
        with
        | Error e ->
          release_domain_heap t d;
          k (Error e)
        | Ok () ->
          Domain.set_state d Domain.Resuming;
          emit t (Hypercall (Hypercall.Domctl_create (Domain.id d)));
          Hashtbl.replace t.domains (Domain.id d) d;
          let image_bytes = Image.saved_bytes img.img_image in
          (* A streamed restore reads only the hot prefix (working set
             + execution state) before resuming; the cold remainder
             faults in from disk while the guest already serves. *)
          let hot_bytes =
            match Domain.mem_tracker d with
            | Some ps when Mem.Memdyn.stream_enabled t.memdyn ->
              Mem.Pagestate.refresh ps ~now:(Simkit.Engine.now (engine t));
              Image.hot_bytes img.img_image
                ~working_set_bytes:(Mem.Pagestate.working_set_bytes ps)
            | _ -> image_bytes
          in
          let cold_bytes = image_bytes - hot_bytes in
          Hw.Disk.read t.hw.Hw.Host.disk ~bytes:hot_bytes (fun () ->
              Simkit.Process.delay (engine t)
                t.timing.Timing.restore_fixed_s (fun () ->
                  (match Domain.exec_state d with
                  | Some es ->
                    Event_channel.restore_snapshot t.chans
                      ~domid:(Domain.id d) es.Domain.channels;
                    List.iter (Domain.attach_device d) es.Domain.devices
                  | None -> ());
                  Domain.set_exec_state d None;
                  Hashtbl.remove t.saved name;
                  if cold_bytes = 0 then
                    (* The image file is deleted once the VM is back. *)
                    Hw.Disk.release_space t.hw.Hw.Host.disk
                      ~bytes:image_bytes;
                  Domain.resume_handler d (fun () ->
                      Domain.set_state d Domain.Running;
                      store_domain_entry t d;
                      if cold_bytes > 0 then begin
                        let s =
                          Mem.Stream.create ~memdyn:t.memdyn
                            ~cold_bytes
                        in
                        Domain.set_mem_stream d (Some s);
                        let resumed_at = Simkit.Engine.now (engine t) in
                        (* Background fault-in: demand-paged batches
                           charged as random reads; the image file
                           only goes away once the last one lands. *)
                        let rec pump () =
                          let batch = Mem.Stream.next_batch_bytes s in
                          if batch = 0 then begin
                            Domain.set_mem_stream d None;
                            t.last_restore_lag_s <-
                              Simkit.Engine.now (engine t) -. resumed_at;
                            Hw.Disk.release_space t.hw.Hw.Host.disk
                              ~bytes:image_bytes
                          end
                          else
                            Hw.Disk.read t.hw.Hw.Host.disk ~bytes:batch
                              ~random:true (fun () ->
                                Mem.Stream.note_paged_in s ~bytes_:batch;
                                pump ())
                        in
                        pump ()
                      end;
                      k (Ok d))))))

let saved_images t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.saved []
  |> List.sort String.compare

(* --- introspection ------------------------------------------------------ *)

let preserved_bytes t =
  List.fold_left
    (fun acc d ->
      if Domain.state d = Domain.Suspended then
        let exec =
          match Domain.exec_state d with
          | Some es ->
            Hw.Frame.extents_bytes es.Domain.state_frames
          | None -> 0
        in
        acc
        + P2m.mapped_bytes (Domain.p2m d)
        + Hw.Frame.extents_bytes (Domain.p2m_frames d)
        + exec
      else acc)
    0 (domus t)
