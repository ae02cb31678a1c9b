open Helpers
module Vmm = Xenvmm.Vmm
module Aging = Xenvmm.Aging
module Engine = Simkit.Engine

let gib = Simkit.Units.gib

(* The error-path injector schedules events forever, so runs here must
   be bounded — an unbounded [Engine.run] would never drain. *)
let booted ?config () =
  let engine = Engine.create () in
  let host = Hw.Host.create engine in
  let vmm = Vmm.create host in
  let aging = Aging.attach ?config vmm in
  let flag = ref false in
  Vmm.power_on vmm (fun () -> flag := true);
  run_until engine ~flag ~deadline:200.0;
  (engine, vmm, aging)

let create_destroy engine vmm =
  let d = ref None in
  Vmm.create_domain vmm ~name:"churn" ~mem_bytes:(gib 1) (fun r ->
      d := Some r);
  Engine.run engine;
  match !d with
  | Some (Ok dom) -> run_task engine (Vmm.destroy_domain vmm dom)
  | _ -> Alcotest.fail "create failed"

let test_no_aging_config () =
  let engine, vmm, aging = booted ~config:no_aging () in
  create_destroy engine vmm;
  check_int "no leak" 0 (Aging.leaked_since_boot aging);
  check_true "no forecast" (Aging.predict_exhaustion aging = None)

let test_domain_reboot_leak () =
  (* Changeset 9392: every domain destroy loses heap. *)
  let engine, vmm, aging =
    booted
      ~config:{ Aging.xen_3_0_bugs with error_path_mean_interval_s = infinity }
      ()
  in
  for _ = 1 to 5 do create_destroy engine vmm done;
  check_int "5 x 64 KiB" (5 * 64 * 1024) (Aging.leaked_since_boot aging)

let test_error_path_leaks_over_time () =
  let engine, vmm, aging =
    booted
      ~config:
        {
          no_aging with
          leak_per_error_path_bytes = 16384;
          error_path_mean_interval_s = 100.0;
        }
      ()
  in
  ignore vmm;
  Engine.run ~until:(Engine.now engine +. 5000.0) engine;
  (* ~50 error paths expected; accept a broad band. *)
  let leaked = Aging.leaked_since_boot aging in
  check_in_band "stochastic leak total"
    ~lo:(10.0 *. 16384.0) ~hi:(150.0 *. 16384.0)
    (float_of_int leaked)

let test_xenstore_leak_wired () =
  let engine, vmm, _aging =
    booted
      ~config:{ no_aging with xenstore_leak_per_txn_bytes = 4096 }
      ()
  in
  ignore engine;
  match Vmm.xenstore vmm with
  | None -> Alcotest.fail "xenstore should be up"
  | Some store ->
    let before = Xenvmm.Xenstore.memory_bytes store in
    for i = 1 to 50 do
      Xenvmm.Xenstore.write store ~path:"/t" (string_of_int i)
    done;
    check_true "transactions leak"
      (Xenvmm.Xenstore.memory_bytes store - before >= 50 * 4096)

let test_prediction_converges () =
  let engine, vmm, aging = booted ~config:no_aging () in
  (* Deterministic 1 MiB leak every 100 s: with a 16 MiB heap minus the
     dom0 charge, exhaustion sits a bit under 1600 s of leaking. *)
  let heap = Vmm.heap vmm in
  for _ = 1 to 6 do
    Engine.run ~until:(Engine.now engine +. 100.0) engine;
    Xenvmm.Vmm_heap.leak heap ~bytes:(1024 * 1024);
    Aging.sample aging
  done;
  match Aging.predict_exhaustion aging with
  | None -> Alcotest.fail "expected forecast"
  | Some at ->
    let elapsed_start = Engine.now engine -. 600.0 in
    check_in_band "forecast in plausible window"
      ~lo:(elapsed_start +. 1000.0)
      ~hi:(elapsed_start +. 2200.0)
      at

let test_reboot_resets_history () =
  let engine, vmm, aging = booted ~config:no_aging () in
  Xenvmm.Vmm_heap.leak (Vmm.heap vmm) ~bytes:(8 * 1024 * 1024);
  Aging.sample aging;
  check_true "leaked" (Aging.leaked_since_boot aging > 0);
  run_task engine (Vmm.shutdown_dom0 vmm);
  let r = ref None in
  Vmm.quick_reload vmm (fun x -> r := Some x);
  Engine.run engine;
  check_true "reloaded" (!r = Some (Ok ()));
  check_int "rejuvenated" 0 (Aging.leaked_since_boot aging);
  check_true "history restarted" (List.length (Aging.heap_history aging) <= 1)

let suite =
  ( "aging",
    [
      Alcotest.test_case "no aging" `Quick test_no_aging_config;
      Alcotest.test_case "domain reboot leak (cs 9392)" `Quick
        test_domain_reboot_leak;
      Alcotest.test_case "error path leak (cs 11752)" `Quick
        test_error_path_leaks_over_time;
      Alcotest.test_case "xenstore leak (cs 8640)" `Quick
        test_xenstore_leak_wired;
      Alcotest.test_case "prediction converges" `Quick test_prediction_converges;
      Alcotest.test_case "reboot resets history" `Quick
        test_reboot_resets_history;
    ] )
