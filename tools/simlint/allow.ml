(* Per-directory allowlist: the places where a rule's target construct
   is the sanctioned implementation rather than a hazard. Inline
   `(* simlint: allow ... *)` comments are for one-off exceptions; an
   entry here blesses a whole directory (or a single file) and is the
   right tool when the exception *is* the module's job. *)

type entry = {
  rule : string;  (** e.g. ["D001"] *)
  prefix : string;
      (** repo-relative path prefix, ['/']-separated; a trailing ['/']
          makes it a directory, otherwise it names a file *)
  reason : string;
}

let entries =
  [
    {
      rule = "D001";
      prefix = "lib/runner/";
      reason = "sweep metrics measure real elapsed wall time per run";
    };
    {
      rule = "D001";
      prefix = "bench/";
      reason = "benchmarks exist to report wall time";
    };
    {
      rule = "D004";
      prefix = "lib/runner/";
      reason = "the multicore pool is the sanctioned Domain.spawn user";
    };
    {
      rule = "D004";
      prefix = "lib/simkit/engine.ml";
      reason = "per-domain event counters live in Domain.DLS";
    };
    {
      rule = "D004";
      prefix = "lib/simkit/par_engine.ml";
      reason =
        "the quantum-synchronous executor is the sanctioned shard-worker \
         spawner; its round barrier is what keeps every other module \
         domain-free";
    };
    {
      rule = "D004";
      prefix = "lib/obs/obs.ml";
      reason = "ambient registry is Domain.DLS so sweep workers never share state";
    };
    {
      rule = "D002";
      prefix = "lib/simkit/rng.ml";
      reason = "the one sanctioned RNG; everything else draws through it";
    };
    {
      rule = "D011";
      prefix = "lib/obs/obs.ml";
      reason =
        "the ambient registry is deliberately Domain.DLS: each sweep \
         worker gets its own registry, reset per run by with_fresh";
    };
    {
      rule = "D011";
      prefix = "lib/simkit/engine.ml";
      reason =
        "only the per-domain event counters live in Domain.DLS, by design; \
         they are read through delta accessors";
    };
  ]

(* D012 keeps: exported lib/ values that no production root reaches
   but that stay, keyed by canonical value name. The kind says why;
   pretty-printers ([pp], [pp_*]) need no entry. A keep whose value no
   lib/ interface exports any more is itself a D012 finding. *)
type kind =
  | Test_observer
      (** a read-only accessor or invariant check through which a test
          asserts something about code a root runs *)
  | Paper_reference
      (** a paper constant or equation a test checks a claim against *)
  | Roadmap_hook  (** an open ROADMAP item will call it *)

type keep = { value : string; kind : kind; why : string }

let keeps =
  let observer why value = { value; kind = Test_observer; why } in
  let frames = "frame-conservation and allocator tests" in
  let grants = "grant-table tests of the rings boot and suspend set up" in
  let store = "xenstore and toolstack-registration tests" in
  List.map (observer frames)
    [
      "Hw.Frame.extent_bytes";
      "Hw.Frame.extents_bytes";
      "Hw.Frame.extents_frames";
      "Hw.Frame.total_frames";
      "Hw.Frame.free_frames";
      "Hw.Frame.used_frames";
      "Hw.Frame.is_free";
    ]
  @ List.map (observer grants)
      [
        "Guest.Kernel.io_ring_grants";
        "Xenvmm.Grant_table.is_mapped";
        "Xenvmm.Grant_table.grants_owned_by";
        "Xenvmm.Grant_table.mappings_held_by";
      ]
  @ List.map (observer store)
      [
        "Xenvmm.Vmm.xenstore";
        "Xenvmm.Xenstore.read";
        "Xenvmm.Xenstore.directory";
        "Xenvmm.Xenstore.transactions";
        "Xenvmm.Xenstore.entries";
        "Xenvmm.Xenstore.memory_bytes";
      ]
  @ List.map
      (fun (value, why) -> observer why value)
      [
        ("Guest.Page_cache.resident_blocks", "LRU eviction tests");
        ("Guest.Page_cache.mem", "LRU tests: a lookup that counts nothing");
        ("Guest.Service.state", "service lifecycle tests");
        ("Mem.Stream.cold_bytes", "streamed-restore tests");
        ("Mem.Stream.complete", "streamed-restore tests");
        ("Rejuv.Cluster.throughput_at", "Section 6 timeline tests");
        ("Rejuv.Policy.os_rejuvenation_count", "Figure 2 schedule tests");
        ("Rejuv.Policy.vmm_rejuvenation_count", "Figure 2 schedule tests");
        ("Rejuv.Policy.Load.level_at", "load-profile tests");
        ("Simkit.Fault.Plan.calls", "injection-plan trigger tests");
        ("Simkit.Fault.Plan.fired", "injection-plan trigger tests");
        ("Simkit.Fault.Plan.armed_sites", "injection-plan arming test");
        ("Simkit.Resource.total_work_done", "processor-sharing accounting test");
        ("Simkit.Trace.find_span", "span-recording tests");
        ("Xenvmm.Aging.heap_history", "aging reboot-resets-history test");
        ("Xenvmm.Aging.leaked_since_boot", "aging leak tests");
        ("Xenvmm.Domain.devices", "device attach/detach and suspend tests");
        ("Xenvmm.P2m.mapped_bytes", "P2M and memory-conservation tests");
        ("Xenvmm.P2m.fold", "P2M table tests");
        ("Xenvmm.P2m.lookup", "P2M lookup tests");
        ("Xenvmm.Scheduler.utilization", "credit-scheduler cap tests");
        ("Xenvmm.Vmm.saved_images", "save/restore and disk-full tests");
        ("Xenvmm.Vmm.staged_image", "xexec staging tests");
        ("Xenvmm.Vmm.preserved_bytes", "warm-reboot preservation test");
        ("Xenvmm.Vmm_heap.allocation_bytes", "VMM heap allocation test");
        ("Xenvmm.Vmm_heap.usage_by_tag", "VMM heap per-tag accounting test");
      ]
  @ List.map
      (fun value ->
        {
          value;
          kind = Paper_reference;
          why =
            "the Section 3.2/5.6 downtime model that tests check the \
             paper's claims against; ROADMAP items 6 and 7 will call it";
        })
      [
        "Rejuv.Downtime_model.paper_fits";
        "Rejuv.Downtime_model.d_warm";
        "Rejuv.Downtime_model.d_cold";
        "Rejuv.Downtime_model.reduction";
        "Rejuv.Downtime_model.always_positive";
      ]
  @ List.map
      (fun (value, why) -> { value; kind = Roadmap_hook; why })
      [
        ( "Guest.Service.on_transition",
          "ROADMAP item 10: incremental healthy-host counts per shard" );
        ( "Xenvmm.Domain.on_state_change",
          "ROADMAP item 10: the matching kernel-side transition hook" );
        ("Hw.Frame.check_invariants", "ROADMAP item 9: the invariant auditor");
        ("Xenvmm.P2m.check_invariants", "ROADMAP item 9: the invariant auditor");
        ( "Xenvmm.Grant_table.check_invariants",
          "ROADMAP item 9: the invariant auditor" );
      ]

let normalize path =
  let path = String.map (function '\\' -> '/' | c -> c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m > 0 && at 0

(* Matches both repo-relative paths (as the CLI passes them) and
   absolute paths (as the test suite passes them). *)
let under_prefix ~prefix path =
  let p = normalize path in
  String.starts_with ~prefix p || contains ~sub:("/" ^ prefix) p

let allowed ~rule ~path =
  List.exists (fun e -> e.rule = rule && under_prefix ~prefix:e.prefix path)
    entries
