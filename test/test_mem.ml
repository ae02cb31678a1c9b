(* The memory-dynamics subsystem: mode enum, the Image.saved sizing
   math, determinism of the lazy page-state tracker, balloon policy,
   stream bookkeeping, and the end-to-end properties the ISSUE gates —
   off-mode is byte-identical to the static model, ballooning shrinks
   the saved image, streaming cuts saved-reboot downtime, and streamed
   restore with an infinitely fast disk is equivalent to
   stop-and-copy. *)
open Helpers
module Memdyn = Mem.Memdyn
module Pagestate = Mem.Pagestate
module Balloon = Mem.Balloon
module Stream = Mem.Stream
module Image = Xenvmm.Image
module Units = Simkit.Units
module Experiment = Rejuv.Experiment
module Strategy = Rejuv.Strategy

let invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* --- mode enum ----------------------------------------------------------- *)

let test_mode_enum () =
  List.iter
    (fun (name, mode) ->
      (match Simkit.Enum.of_string Memdyn.mode_enum name with
      | Ok m -> check_true ("parses " ^ name) (m = mode)
      | Error (`Msg m) -> Alcotest.fail m);
      Alcotest.(check string)
        ("round-trips " ^ name) name
        (Simkit.Enum.name Memdyn.mode_enum mode))
    [
      ("off", Memdyn.Off);
      ("balloon", Memdyn.Balloon);
      ("stream", Memdyn.Stream);
      ("balloon_stream", Memdyn.Balloon_stream);
    ];
  (match Simkit.Enum.of_string Memdyn.mode_enum "none" with
  | Ok m -> check_true "alias none = off" (m = Memdyn.Off)
  | Error _ -> Alcotest.fail "alias none rejected");
  (match Simkit.Enum.of_string Memdyn.mode_enum "full" with
  | Ok m -> check_true "alias full = balloon_stream" (m = Memdyn.Balloon_stream)
  | Error _ -> Alcotest.fail "alias full rejected");
  (match Simkit.Enum.of_string Memdyn.mode_enum "bogus" with
  | Error (`Msg _) -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  check_false "off disabled" (Memdyn.enabled Memdyn.off);
  check_true "stream enabled" (Memdyn.enabled (Memdyn.default Memdyn.Stream));
  check_false "stream does not balloon"
    (Memdyn.balloon_enabled (Memdyn.default Memdyn.Stream));
  check_true "balloon_stream does both"
    (Memdyn.balloon_enabled (Memdyn.default Memdyn.Balloon_stream)
    && Memdyn.stream_enabled (Memdyn.default Memdyn.Balloon_stream))

let test_memdyn_validate () =
  let d = Memdyn.default Memdyn.Balloon in
  check_true "default validates" (Memdyn.validate d == d);
  check_true "working set > 1 rejected"
    (invalid (fun () ->
         Memdyn.validate { d with Memdyn.working_set_fraction = 1.5 }));
  check_true "zero interval rejected"
    (invalid (fun () ->
         Memdyn.validate { d with Memdyn.sample_interval_s = 0.0 }));
  check_true "negative batch rejected"
    (invalid (fun () ->
         Memdyn.validate { d with Memdyn.stream_batch_bytes = -1 }))

(* --- Image.saved sizing (satellite 1) ------------------------------------ *)

let test_image_saved_math () =
  let s =
    Image.saved ~resident_bytes:(Units.mib 300)
      ~exec_state_bytes:(Units.mib 2)
      ~total_ram_bytes:(Units.gib 1)
  in
  check_int "saved = resident + exec" (Units.mib 302) (Image.saved_bytes s);
  check_int "hot clamps to saved" (Units.mib 302)
    (Image.hot_bytes s ~working_set_bytes:(Units.gib 2));
  check_int "hot = ws + exec" (Units.mib 102)
    (Image.hot_bytes s ~working_set_bytes:(Units.mib 100));
  check_int "hot floor is exec state" (Units.mib 2)
    (Image.hot_bytes s ~working_set_bytes:(-5));
  check_true "resident > total rejected"
    (invalid (fun () ->
         Image.saved ~resident_bytes:2 ~exec_state_bytes:0 ~total_ram_bytes:1));
  check_true "zero resident rejected"
    (invalid (fun () ->
         Image.saved ~resident_bytes:0 ~exec_state_bytes:0 ~total_ram_bytes:1))

(* With memdyn off the saved image is exactly the old stub's size —
   full RAM plus execution state — pinning pre-memdyn behaviour. *)
let test_image_off_mode_pin () =
  let vm_mem_bytes = Units.mib 512 in
  let r =
    Experiment.run_reboot ~strategy:Strategy.Saved ~vm_count:1 ~vm_mem_bytes ()
  in
  let exec =
    Rejuv.Calibration.default.Rejuv.Calibration.vmm_timing
      .Xenvmm.Timing.exec_state_bytes
  in
  check_float ~eps:1e-9 "image = RAM + exec state"
    (Units.bytes_to_mib (vm_mem_bytes + exec))
    r.Experiment.saved_image_mib;
  check_float ~eps:1e-9 "no streaming tail when off" 0.0
    r.Experiment.restore_lag_s

(* --- page-state tracker -------------------------------------------------- *)

let tracker ?(seed = 7) ?(mode = Memdyn.Balloon_stream) ?(mib = 256) name =
  Pagestate.create
    ~memdyn:{ (Memdyn.default mode) with Memdyn.seed }
    ~name ~total_bytes:(Units.mib mib) ~now:0.0

(* The tracker state at time t is a pure function of (seed, name, t):
   one refresh to t=50 equals fifty one-second refreshes, so gauges
   and save paths can observe it in any pattern without perturbing
   the process. *)
let test_pagestate_call_pattern_invariance () =
  let a = tracker "vm3" and b = tracker "vm3" in
  Pagestate.refresh a ~now:50.0;
  for i = 1 to 50 do
    Pagestate.refresh b ~now:(float_of_int i)
  done;
  check_int "working set" (Pagestate.working_set_pages a)
    (Pagestate.working_set_pages b);
  check_float ~eps:0.0 "rate factor" (Pagestate.dirty_rate_factor a)
    (Pagestate.dirty_rate_factor b);
  (* Creation order of other trackers cannot perturb a stream: the RNG
     is private, seeded from (memdyn.seed, name). *)
  let c = tracker "other" in
  Pagestate.refresh c ~now:123.0;
  let d = tracker "vm3" in
  Pagestate.refresh d ~now:50.0;
  check_int "order-invariant working set" (Pagestate.working_set_pages a)
    (Pagestate.working_set_pages d);
  check_float ~eps:0.0 "order-invariant rate factor"
    (Pagestate.dirty_rate_factor a)
    (Pagestate.dirty_rate_factor d)

(* The first ten epochs of one seeded stream. Each epoch makes three
   draws: the working set, the dirty rate and one whose value is
   discarded. Every later epoch depends on all three, so dropping or
   reordering a draw fails here before it moves a figure. *)
let test_pagestate_epoch_pin () =
  let t = tracker "vm3" in
  let epoch_s = (Pagestate.cfg t).Memdyn.sample_interval_s in
  List.iteri
    (fun i (ws, factor) ->
      let epoch = i + 1 in
      Pagestate.refresh t ~now:(float_of_int epoch *. epoch_s);
      check_int
        (Printf.sprintf "working set after epoch %d" epoch)
        ws (Pagestate.working_set_pages t);
      check_float ~eps:0.0
        (Printf.sprintf "rate factor after epoch %d" epoch)
        factor (Pagestate.dirty_rate_factor t))
    [
      (23145, 0x1.8277e2a5cf8bep-1);
      (22600, 0x1.e942097eee3fep-1);
      (19884, 0x1.ad4dd711e341p-1);
      (18114, 0x1.0d3cce084c794p+0);
      (18584, 0x1.e8f1dc3c21159p-1);
      (24236, 0x1.adabac06b7dfcp-1);
      (21535, 0x1.999b989143938p-1);
      (22994, 0x1.a7c9783ccd481p-1);
      (17074, 0x1.834d5c9a9e645p-1);
      (16260, 0x1.1a1a3593eba25p+0);
    ]

let test_pagestate_balloon_accounting () =
  let t = tracker ~mib:64 "vm0" in
  let total = Pagestate.total_pages t in
  check_int "all resident at start" total (Pagestate.resident_pages t);
  Pagestate.refresh t ~now:10.0;
  Pagestate.set_ballooned t ~pages:(total / 2);
  check_int "resident shrinks" (total - (total / 2))
    (Pagestate.resident_pages t);
  check_true "ws clamped to resident"
    (Pagestate.working_set_pages t <= Pagestate.resident_pages t);
  check_true "ballooning everything rejected"
    (invalid (fun () -> Pagestate.set_ballooned t ~pages:total));
  check_true "negative balloon rejected"
    (invalid (fun () -> Pagestate.set_ballooned t ~pages:(-1)))

let test_balloon_policy () =
  let t = tracker ~mib:256 "vm1" in
  Pagestate.refresh t ~now:5.0;
  let keep = Balloon.keep_pages t in
  let floor_pages =
    Units.pages_of_bytes (Pagestate.cfg t).Memdyn.balloon_floor_bytes
  in
  check_true "keep >= floor" (keep >= floor_pages);
  check_true "keep <= total" (keep <= Pagestate.total_pages t);
  let reclaim = Balloon.reclaim_target t in
  check_true "reclaim in [0, resident)"
    (reclaim >= 0 && reclaim < Pagestate.resident_pages t);
  if reclaim > 0 then begin
    Pagestate.set_ballooned t ~pages:(Pagestate.ballooned_pages t + reclaim);
    check_int "at target, nothing further to reclaim" 0
      (Balloon.reclaim_target t)
  end

(* QCheck law (b): however the working-set process lands, the
   post-balloon image never exceeds the pre-balloon resident size, and
   residency never drops below the keep target (or one page). *)
let qcheck_balloon_image_bounded =
  qtest ~count:150 "balloon image <= resident pages (law b)"
    QCheck.(
      triple (int_range 0 9999) (float_range 0.05 0.9) (int_range 80 2000))
    (fun (seed, ws, mib) ->
      let t =
        Pagestate.create
          ~memdyn:
            {
              (Memdyn.default Memdyn.Balloon) with
              Memdyn.seed;
              working_set_fraction = ws;
            }
          ~name:(Printf.sprintf "vm%d" seed)
          ~total_bytes:(Units.mib mib) ~now:0.0
      in
      Pagestate.refresh t ~now:(float_of_int (seed mod 97) *. 5.0);
      let resident = Pagestate.resident_pages t in
      let reclaim = Balloon.reclaim_target t in
      let after = resident - reclaim in
      let exec = Units.mib 2 in
      let img =
        Image.saved
          ~resident_bytes:(after * Units.page_bytes)
          ~exec_state_bytes:exec
          ~total_ram_bytes:(Units.mib mib)
      in
      reclaim >= 0
      && after >= 1
      && after >= Stdlib.min (Balloon.keep_pages t) resident
      && Image.saved_bytes img <= (resident * Units.page_bytes) + exec)

(* --- stream bookkeeping -------------------------------------------------- *)

let test_stream_bookkeeping () =
  let md = Memdyn.default Memdyn.Stream in
  let s = Stream.create ~memdyn:md ~cold_bytes:(Units.mib 5) in
  check_int "cold" (Units.mib 5) (Stream.cold_bytes s);
  check_int "3 batches of 2 MiB" 3 (Stream.batches_outstanding s);
  check_int "first batch" (Units.mib 2) (Stream.next_batch_bytes s);
  check_float ~eps:1e-12 "full tax at start" md.Memdyn.fault_tax_s
    (Stream.fault_tax_s s);
  Stream.note_paged_in s ~bytes_:(Units.mib 2);
  Stream.note_paged_in s ~bytes_:(Units.mib 2);
  check_int "last batch is the remainder" (Units.mib 1)
    (Stream.next_batch_bytes s);
  check_float ~eps:1e-12 "tax decays linearly"
    (md.Memdyn.fault_tax_s /. 5.0)
    (Stream.fault_tax_s s);
  Stream.note_paged_in s ~bytes_:(Units.mib 9);
  check_true "complete" (Stream.complete s);
  check_int "no further batches" 0 (Stream.next_batch_bytes s);
  check_float ~eps:1e-12 "no tax when complete" 0.0 (Stream.fault_tax_s s);
  let empty = Stream.create ~memdyn:md ~cold_bytes:0 in
  check_true "zero cold set born complete" (Stream.complete empty);
  check_float ~eps:1e-12 "zero cold set taxes nothing" 0.0
    (Stream.fault_tax_s empty);
  check_true "negative cold rejected"
    (invalid (fun () -> Stream.create ~memdyn:md ~cold_bytes:(-1)))

(* --- end-to-end gates ---------------------------------------------------- *)

let run ?calibration ?memdyn () =
  Experiment.run_reboot ?calibration ?memdyn ~strategy:Strategy.Saved
    ~vm_count:1
    ~vm_mem_bytes:(Units.mib 512)
    ()

let test_balloon_shrinks_image () =
  let off = run () in
  let ballooned = run ~memdyn:(Memdyn.default Memdyn.Balloon) () in
  check_true "ballooned image strictly smaller"
    (ballooned.Experiment.saved_image_mib < off.Experiment.saved_image_mib);
  check_true "image still holds the working set"
    (ballooned.Experiment.saved_image_mib
    >= 0.35 *. Units.bytes_to_mib (Units.mib 512))

let test_stream_cuts_downtime () =
  let off = run () in
  let streamed = run ~memdyn:(Memdyn.default Memdyn.Stream) () in
  check_true "streamed restore resumes earlier on 2007 spindles"
    (streamed.Experiment.downtime_max_s < off.Experiment.downtime_max_s);
  check_true "cold pages keep arriving after resume"
    (streamed.Experiment.restore_lag_s > 0.0)

(* QCheck law (a): with an infinitely fast disk the streamed restore is
   indistinguishable from stop-and-copy — the hot/cold split only
   matters because cold reads take time. Seeks must be zero too: the
   streamed path issues extra random reads that otherwise each pay a
   seek. *)
let instant_disk =
  let c = Rejuv.Calibration.default in
  {
    c with
    Rejuv.Calibration.host =
      {
        c.Rejuv.Calibration.host with
        Hw.Host.disk_read_mib_per_s = 1e12;
        disk_write_mib_per_s = 1e12;
        disk_seek_ms = 0.0;
        disk_random_penalty = 1.0;
      };
  }

let qcheck_stream_equals_stop_and_copy =
  qtest ~count:3 "infinite-bandwidth stream = stop-and-copy (law a)"
    QCheck.(int_range 0 999)
    (fun seed ->
      let run memdyn =
        Experiment.run_reboot ~calibration:instant_disk ~seed ?memdyn
          ~strategy:Strategy.Saved ~vm_count:1
          ~vm_mem_bytes:(Units.mib 256)
          ()
      in
      let off = run None in
      let streamed = run (Some (Memdyn.default Memdyn.Stream)) in
      Float.abs
        (off.Experiment.downtime_max_s -. streamed.Experiment.downtime_max_s)
      < 1e-6
      && Float.abs
           (off.Experiment.downtime_mean_s
           -. streamed.Experiment.downtime_mean_s)
         < 1e-6)

(* Golden: the seeded memdyn runs, pinned byte for byte. The tracker
   sizes every balloon target and streamed hot set in them, so a change
   to its draws, or to a path that reads it, moves a digest. *)
let test_memdyn_goldens () =
  let digest ?(memdyn = Memdyn.Off) id =
    let params = { Experiment.Spec.default_params with memdyn } in
    Digest.to_hex (Digest.string (experiment_json ~params id))
  in
  List.iter
    (fun (label, expected, actual) ->
      Alcotest.(check string) label expected (actual ()))
    [
      ( "elastic_restore",
        "242e36a694077583d82d6b4439b01529",
        fun () -> digest "elastic_restore" );
      ( "fig4 stream",
        "b17364edf27360340464b5906cafab32",
        fun () -> digest ~memdyn:Memdyn.Stream "fig4" );
      ( "fig5 balloon_stream",
        "d9faed6be4de9090f187c540b682ff2f",
        fun () -> digest ~memdyn:Memdyn.Balloon_stream "fig5" );
      ( "fig6 balloon_stream",
        "db241b9aef4620a2c1c4203162d92638",
        fun () -> digest ~memdyn:Memdyn.Balloon_stream "fig6" );
    ]

(* Golden: a seeded fleet cell with memdyn off is byte-identical across
   partition counts and matches its pinned digest — off-mode inertness
   at fleet scale. Passing [Memdyn.off] explicitly must also equal not
   passing memdyn at all. *)
let test_fleet_off_mode_golden () =
  let cell ?memdyn ~partitions () =
    Experiment.Result.to_json
      (Experiment.Result.Fleet
         [
           Experiment.fleet_cell ?memdyn ~partitions ~load_rate_per_s:20.0
             ~seed:11 ~hosts:6 ~width:2 ~slo:0.5
             ~strategy:(Rejuv.Wave.Reboot Strategy.Warm)
             ();
         ])
  in
  let one = cell ~memdyn:Memdyn.off ~partitions:1 () in
  Alcotest.(check string)
    "pinned digest" "00c9d9f78dcaab989cb2ad731f3a36b8"
    (Digest.to_hex (Digest.string one));
  Alcotest.(check string) "explicit off = absent" one (cell ~partitions:1 ());
  Alcotest.(check string)
    "partitions 1 = 2" one
    (cell ~memdyn:Memdyn.off ~partitions:2 ());
  Alcotest.(check string)
    "partitions 1 = 4" one
    (cell ~memdyn:Memdyn.off ~partitions:4 ())

let suite =
  ( "mem",
    [
      Alcotest.test_case "mode enum round-trips" `Quick test_mode_enum;
      Alcotest.test_case "memdyn validation" `Quick test_memdyn_validate;
      Alcotest.test_case "Image.saved sizing math" `Quick test_image_saved_math;
      Alcotest.test_case "off-mode image pins old stub" `Slow
        test_image_off_mode_pin;
      Alcotest.test_case "tracker call-pattern invariance" `Quick
        test_pagestate_call_pattern_invariance;
      Alcotest.test_case "tracker epoch pin" `Quick test_pagestate_epoch_pin;
      Alcotest.test_case "tracker balloon accounting" `Quick
        test_pagestate_balloon_accounting;
      Alcotest.test_case "balloon reclaim policy" `Quick test_balloon_policy;
      qcheck_balloon_image_bounded;
      Alcotest.test_case "stream bookkeeping and fault tax" `Quick
        test_stream_bookkeeping;
      Alcotest.test_case "balloon shrinks the saved image" `Slow
        test_balloon_shrinks_image;
      Alcotest.test_case "stream cuts saved-reboot downtime" `Slow
        test_stream_cuts_downtime;
      qcheck_stream_equals_stop_and_copy;
      Alcotest.test_case "memdyn output digests" `Slow test_memdyn_goldens;
      Alcotest.test_case "fleet off-mode golden across partitions" `Slow
        test_fleet_off_mode_golden;
    ] )
