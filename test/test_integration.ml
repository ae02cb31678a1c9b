(* End-to-end reboot scenarios on the full stack: scenario -> strategies
   -> probers, checking the paper's headline behaviours. These are the
   slowest tests in the suite ([`Slow] where heavy). *)
open Helpers
module Scenario = Rejuv.Scenario
module Strategy = Rejuv.Strategy
module Experiment = Rejuv.Experiment
module Vmm = Xenvmm.Vmm

let gib = Simkit.Units.gib

let scenario vm_count =
  Scenario.create { Scenario.Config.default with vm_count }

let test_scenario_starts_all_vms () =
  let s =
    scenario 3
  in
  Rejuv.Roothammer.start_and_run s;
  check_int "three VMs" 3 (List.length (Scenario.vms s));
  List.iter
    (fun vm -> check_true (Scenario.vm_name vm ^ " up") (Scenario.vm_is_up vm))
    (Scenario.vms s);
  check_int "domains in VMM" 3 (List.length (Vmm.domus (Scenario.vmm s)))

let test_zero_vm_scenario () =
  let s =
    scenario 0
  in
  Rejuv.Roothammer.start_and_run s;
  check_int "no VMs" 0 (List.length (Scenario.vms s))

let run_one strategy ~vm_count =
  Experiment.run_reboot ~strategy ~vm_count ~vm_mem_bytes:(gib 1) ()

let test_warm_reboot_downtime_band () =
  let r = run_one Strategy.Warm ~vm_count:11 in
  (* Paper: 42 s at 11 VMs. *)
  check_in_band "warm downtime" ~lo:35.0 ~hi:48.0 r.Experiment.downtime_mean_s

let test_warm_downtime_flat_in_vm_count () =
  let r1 = run_one Strategy.Warm ~vm_count:1 in
  let r11 = run_one Strategy.Warm ~vm_count:11 in
  (* "Hardly depended on the number of VMs" — within a few seconds. *)
  check_true "flat"
    (Float.abs (r11.Experiment.downtime_mean_s -. r1.Experiment.downtime_mean_s)
    < 8.0)

let test_cold_reboot_downtime_band () =
  let r = run_one Strategy.Cold ~vm_count:11 in
  (* Paper: 157 s at 11 VMs with sshd. *)
  check_in_band "cold downtime" ~lo:135.0 ~hi:180.0
    r.Experiment.downtime_mean_s

let test_saved_reboot_downtime_band () =
  let r = run_one Strategy.Saved ~vm_count:11 in
  (* Paper: 429 s; our serial-restore measurement sits somewhat lower
     but the ranking and order of magnitude must hold. *)
  check_in_band "saved downtime" ~lo:330.0 ~hi:470.0
    r.Experiment.downtime_mean_s

let test_strategy_ranking () =
  (* The paper's central comparison at n = 5. *)
  let warm = run_one Strategy.Warm ~vm_count:5 in
  let cold = run_one Strategy.Cold ~vm_count:5 in
  let saved = run_one Strategy.Saved ~vm_count:5 in
  check_true "warm < cold"
    (warm.Experiment.downtime_mean_s < cold.Experiment.downtime_mean_s);
  check_true "cold < saved"
    (cold.Experiment.downtime_mean_s < saved.Experiment.downtime_mean_s);
  check_true "warm at least 3x better than cold"
    (cold.Experiment.downtime_mean_s
    > 3.0 *. warm.Experiment.downtime_mean_s)

let test_warm_preserves_cache_cold_does_not () =
  let check_cache strategy expected_fraction =
    let s =
  scenario 1
    in
    Rejuv.Roothammer.start_and_run s;
    let vm = List.hd (Scenario.vms s) in
    let fs = Guest.Kernel.filesystem (Scenario.vm_kernel vm) in
    let f = Guest.Filesystem.create_file fs ~bytes:(Simkit.Units.mib 64) () in
    Guest.Filesystem.warm_file fs f;
    ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy);
    (* After a cold reboot the VM has a fresh kernel and cache. *)
    let fs' = Guest.Kernel.filesystem (Scenario.vm_kernel vm) in
    let fraction =
      match
        List.find_opt
          (fun f' -> Guest.Filesystem.file_name f' = Guest.Filesystem.file_name f)
          (Guest.Filesystem.files fs')
      with
      | Some f' -> Guest.Filesystem.cached_fraction fs' f'
      | None -> 0.0
    in
    check_float
      (Rejuv.Strategy.name strategy ^ " cache fraction")
      expected_fraction fraction
  in
  check_cache Strategy.Warm 1.0;
  check_cache Strategy.Cold 0.0

let test_saved_reboot_preserves_cache () =
  let s =
    scenario 1
  in
  Rejuv.Roothammer.start_and_run s;
  let vm = List.hd (Scenario.vms s) in
  let fs = Guest.Kernel.filesystem (Scenario.vm_kernel vm) in
  let f = Guest.Filesystem.create_file fs ~bytes:(Simkit.Units.mib 64) () in
  Guest.Filesystem.warm_file fs f;
  ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy:Strategy.Saved);
  check_float "image preserved through disk" 1.0
    (Guest.Filesystem.cached_fraction fs f)

let test_warm_reboot_rejuvenates_vmm () =
  let s =
    scenario 2
  in
  Rejuv.Roothammer.start_and_run s;
  let vmm = Scenario.vmm s in
  Xenvmm.Vmm_heap.leak (Vmm.heap vmm) ~bytes:(8 * 1024 * 1024);
  let gen_before = Vmm.generation vmm in
  ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy:Strategy.Warm);
  check_int "generation bumped" (gen_before + 1) (Vmm.generation vmm);
  check_int "heap leaks cleared" 0 (Xenvmm.Vmm_heap.leaked_bytes (Vmm.heap vmm));
  List.iter
    (fun vm -> check_true "vm back up" (Scenario.vm_is_up vm))
    (Scenario.vms s)

let test_warm_services_survive_without_restart () =
  (* Watch the services through their transition hook: the warm path
     keeps the same service objects and never restarts them; the cold
     path re-provisions fresh ones, which come back up. *)
  let reboot strategy =
    let s = scenario 1 in
    Rejuv.Roothammer.start_and_run s;
    let vm = List.hd (Scenario.vms s) in
    let before = Scenario.vm_services vm in
    let starts = ref 0 in
    List.iter
      (fun svc ->
        Guest.Service.on_transition svc (fun st ->
            if st = Guest.Service.Starting then incr starts))
      before;
    ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy);
    (before, Scenario.vm_services vm, !starts)
  in
  let before, after, starts = reboot Strategy.Warm in
  check_true "warm: services provisioned" (before <> []);
  check_true "warm: same service objects"
    (List.length after = List.length before
    && List.for_all2 ( == ) after before);
  check_int "warm: no restart" 0 starts;
  let before, after, starts = reboot Strategy.Cold in
  check_int "cold: the old services never restart" 0 starts;
  check_true "cold: fresh service objects"
    (after <> []
    && List.for_all (fun svc -> not (List.memq svc before)) after);
  check_true "cold: fresh services up" (List.for_all Guest.Service.is_up after)

let test_ssh_session_survival_matches_paper () =
  let outage strategy =
    (run_one strategy ~vm_count:11).Experiment.downtime_mean_s
  in
  let warm = outage Strategy.Warm in
  let saved = outage Strategy.Saved in
  check_true "session survives warm reboot (60 s client timeout)"
    (Netsim.Tcp.survives ~outage_s:warm ~client_timeout_s:60.0 ());
  check_false "session dies during saved reboot"
    (Netsim.Tcp.survives ~outage_s:saved ~client_timeout_s:60.0 ())

let test_consecutive_rejuvenations () =
  (* The system must survive repeated warm reboots (the steady-state
     usage pattern). *)
  let s =
    scenario 2
  in
  Rejuv.Roothammer.start_and_run s;
  for i = 1 to 3 do
    ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy:Strategy.Warm);
    List.iter
      (fun vm ->
        check_true
          (Printf.sprintf "round %d: %s up" i (Scenario.vm_name vm))
          (Scenario.vm_is_up vm))
      (Scenario.vms s)
  done;
  check_int "four generations" 4 (Vmm.generation (Scenario.vmm s))

let test_mixed_strategies_in_sequence () =
  let s =
    scenario 2
  in
  Rejuv.Roothammer.start_and_run s;
  List.iter
    (fun strategy ->
      ignore (Rejuv.Roothammer.rejuvenate_blocking s ~strategy);
      List.iter
        (fun vm ->
          check_true
            (Rejuv.Strategy.name strategy ^ ": " ^ Scenario.vm_name vm ^ " up")
            (Scenario.vm_is_up vm))
        (Scenario.vms s))
    [ Strategy.Warm; Strategy.Cold; Strategy.Saved; Strategy.Warm ]

let test_aging_triggered_warm_reboot () =
  (* Proactive rejuvenation end-to-end: leaks accumulate, the trigger
     fires, a warm reboot clears them, services stay mostly up. *)
  let s =
    scenario 2
  in
  let vmm = Scenario.vmm s in
  let aging = Xenvmm.Aging.attach ~config:no_aging vmm in
  Rejuv.Roothammer.start_and_run s;
  let engine = Scenario.engine s in
  (* Fast deterministic leak: 2 MiB every 50 s. *)
  let rejuvenated = ref false in
  let rec leak_loop () =
    if not !rejuvenated then begin
      Xenvmm.Vmm_heap.leak (Vmm.heap vmm) ~bytes:(2 * 1024 * 1024);
      Xenvmm.Aging.sample aging;
      (match
         Rejuv.Policy.Trigger.evaluate aging ~now:(Simkit.Engine.now engine)
           ~lead_time_s:200.0
       with
      | Rejuv.Policy.Trigger.Rejuvenate_now ->
        rejuvenated := true;
        Rejuv.Roothammer.rejuvenate s ~strategy:Strategy.Warm (fun _ -> ())
      | _ -> ());
      if not !rejuvenated then
        ignore (Simkit.Engine.schedule engine ~delay:50.0 leak_loop)
    end
  in
  leak_loop ();
  Simkit.Engine.run engine;
  check_true "trigger fired" !rejuvenated;
  check_false "never exhausted" (Xenvmm.Vmm_heap.exhausted (Vmm.heap vmm));
  check_int "leaks cleared" 0 (Xenvmm.Vmm_heap.leaked_bytes (Vmm.heap vmm));
  List.iter
    (fun vm -> check_true "vm up after proactive reboot" (Scenario.vm_is_up vm))
    (Scenario.vms s)

let test_run_os_rejuvenation_band () =
  (* Paper: 33.6 s for one JBoss VM. *)
  let d = Experiment.run_os_rejuvenation () in
  check_in_band "OS rejuvenation downtime" ~lo:28.0 ~hi:40.0 d

let test_quick_reload_vs_reset_times () =
  let r = Experiment.quick_reload_effect () in
  check_in_band "quick (paper: 11 s)" ~lo:9.0 ~hi:13.0 r.Experiment.quick_reload_s;
  check_in_band "reset (paper: 59 s)" ~lo:53.0 ~hi:65.0
    r.Experiment.hardware_reset_s

let test_jboss_cold_worse_than_ssh_cold () =
  let ssh = run_one Strategy.Cold ~vm_count:5 in
  let jboss =
    Experiment.run_reboot ~workload:Scenario.Jboss ~strategy:Strategy.Cold
      ~vm_count:5 ~vm_mem_bytes:(gib 1) ()
  in
  check_true "jboss adds downtime"
    (jboss.Experiment.downtime_mean_s
    > ssh.Experiment.downtime_mean_s +. 10.0)

let test_jboss_warm_same_as_ssh_warm () =
  (* Figure 6b: warm downtime is workload-independent (no restart). *)
  let ssh = run_one Strategy.Warm ~vm_count:5 in
  let jboss =
    Experiment.run_reboot ~workload:Scenario.Jboss ~strategy:Strategy.Warm
      ~vm_count:5 ~vm_mem_bytes:(gib 1) ()
  in
  check_true "within 2 s"
    (Float.abs
       (jboss.Experiment.downtime_mean_s -. ssh.Experiment.downtime_mean_s)
    < 2.0)

let test_report_holds_at_small_scale () =
  (* The full 11-VM report is the bench's job; the report machinery and
     the scale-independent bands are checked here at n=3. *)
  let r = Rejuv.Report.run ~vm_count:3 () in
  check_int "entries" 8 (List.length r.Rejuv.Report.entries);
  List.iter
    (fun e ->
      check_true (e.Rejuv.Report.metric ^ " holds") e.Rejuv.Report.holds)
    r.Rejuv.Report.entries;
  check_true "verdict" (Rejuv.Report.all_hold r)

(* Each experiment's JSON, the bytes `run <id> --json` writes, matches
   its pinned digest. *)
let check_digests =
  List.iter (fun (id, expected) ->
      Alcotest.(check string) id expected
        (Digest.to_hex (Digest.string (experiment_json id))))

(* Golden: the web figures, which run every request through the guest
   page cache. *)
let test_web_figure_goldens () =
  check_digests
    [
      ("fig7", "b50edbe1e134090201e53a50966f86a3");
      ("fig8_file", "bbccd137f57315c14a302801b7071682");
      ("fig8_web", "522bb7891a78720295b875e5b423a7e6");
    ]

(* Golden: the side studies. *)
let test_side_study_goldens () =
  check_digests
    [
      ("fig2", "59c346dea4db0ecf3360d3eccaf517da");
      ("migration", "4dc45b0412cbaa21105750ad640a159e");
      ("ablation", "c35e30f435790c9887bba6ca8ec201ef");
      ("sensitivity", "559c3b78557d1d30354485de7e21f0db");
      ("cluster", "34e3ad4281d86dc6c3848d48f79438f4");
    ]

let suite =
  ( "integration",
    [
      Alcotest.test_case "reproduction report (n=3)" `Slow
        test_report_holds_at_small_scale;
      Alcotest.test_case "scenario starts all VMs" `Quick
        test_scenario_starts_all_vms;
      Alcotest.test_case "zero-VM scenario" `Quick test_zero_vm_scenario;
      Alcotest.test_case "warm downtime band" `Slow
        test_warm_reboot_downtime_band;
      Alcotest.test_case "warm downtime flat in n" `Slow
        test_warm_downtime_flat_in_vm_count;
      Alcotest.test_case "cold downtime band" `Slow
        test_cold_reboot_downtime_band;
      Alcotest.test_case "saved downtime band" `Slow
        test_saved_reboot_downtime_band;
      Alcotest.test_case "strategy ranking" `Slow test_strategy_ranking;
      Alcotest.test_case "cache across warm vs cold" `Slow
        test_warm_preserves_cache_cold_does_not;
      Alcotest.test_case "cache across saved" `Slow
        test_saved_reboot_preserves_cache;
      Alcotest.test_case "warm rejuvenates VMM" `Quick
        test_warm_reboot_rejuvenates_vmm;
      Alcotest.test_case "services not restarted (warm)" `Slow
        test_warm_services_survive_without_restart;
      Alcotest.test_case "ssh session survival" `Slow
        test_ssh_session_survival_matches_paper;
      Alcotest.test_case "consecutive rejuvenations" `Quick
        test_consecutive_rejuvenations;
      Alcotest.test_case "mixed strategies" `Slow
        test_mixed_strategies_in_sequence;
      Alcotest.test_case "aging-triggered reboot" `Quick
        test_aging_triggered_warm_reboot;
      Alcotest.test_case "OS rejuvenation band" `Quick
        test_run_os_rejuvenation_band;
      Alcotest.test_case "quick reload vs reset" `Quick
        test_quick_reload_vs_reset_times;
      Alcotest.test_case "jboss cold worse" `Slow
        test_jboss_cold_worse_than_ssh_cold;
      Alcotest.test_case "jboss warm same" `Slow test_jboss_warm_same_as_ssh_warm;
      Alcotest.test_case "web figure output digests" `Slow
        test_web_figure_goldens;
      Alcotest.test_case "side study output digests" `Slow
        test_side_study_goldens;
    ] )
