(* Shared test utilities. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let check_close ?(tolerance = 0.05) msg expected actual =
  (* Relative tolerance, for calibration-band checks. *)
  let bound = Float.abs expected *. tolerance in
  if Float.abs (expected -. actual) > bound then
    Alcotest.failf "%s: expected %.3f (+/-%.0f%%), got %.3f" msg expected
      (tolerance *. 100.0) actual

let check_in_band msg ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: expected within [%.3f, %.3f], got %.3f" msg lo hi
      actual

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg a b = Alcotest.(check int) msg a b

(* An aging config that leaks nothing: the baseline that aging tests
   switch one cause on at a time against. *)
let no_aging =
  {
    Xenvmm.Aging.leak_per_domain_destroy_bytes = 0;
    leak_per_error_path_bytes = 0;
    error_path_mean_interval_s = infinity;
    xenstore_leak_per_txn_bytes = 0;
  }

(* Counts, by name, the hypercalls [vmm] issues from now on, through
   its event stream: [let n = count_hypercalls vmm in ... n "xexec"]. *)
let count_hypercalls vmm =
  let counts = Hashtbl.create 8 in
  Xenvmm.Vmm.on_event vmm (function
    | Xenvmm.Vmm.Hypercall h ->
      let name = Xenvmm.Hypercall.name h in
      let n = Option.value (Hashtbl.find_opt counts name) ~default:0 in
      Hashtbl.replace counts name (n + 1)
    | _ -> ());
  fun name -> Option.value (Hashtbl.find_opt counts name) ~default:0

let qtest ?(count = 200) name arbitrary law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary law)

(* Drive the engine until the flag becomes true; fail the test if the
   event queue drains or the deadline passes first. *)
let run_until engine ~flag ~deadline =
  Simkit.Engine.run ~until:deadline engine;
  if not !flag then Alcotest.failf "did not complete by t=%.1f" deadline

let run_task engine task =
  let flag = ref false in
  task (fun () -> flag := true);
  Simkit.Engine.run engine;
  if not !flag then Alcotest.fail "task did not complete"

(* Duration of a CPS task under an otherwise idle engine. *)
let task_duration engine task =
  let t0 = Simkit.Engine.now engine in
  run_task engine task;
  Simkit.Engine.now engine -. t0
