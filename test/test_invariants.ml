(* Cross-module invariants checked under randomized drivers: memory
   conservation through random rejuvenation sequences and trace
   exporter well-formedness. *)
open Helpers
module Vmm = Xenvmm.Vmm
module Domain = Xenvmm.Domain
module Engine = Simkit.Engine
module Trace = Simkit.Trace

let gib = Simkit.Units.gib

let p2m_ok d = Xenvmm.P2m.check_invariants (Domain.p2m d) = Ok ()

(* Drive a random sequence of operations (create, destroy, balloon,
   warm reboot) and verify memory bookkeeping never drifts. *)
let prop_memory_conserved_under_churn =
  qtest ~count:25 "machine memory conserved under random lifecycle churn"
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 0 4))
    (fun ops ->
      let engine = Engine.create () in
      let host = Hw.Host.create engine in
      let vmm = Vmm.create host in
      let ok = ref true in
      run_task engine (Vmm.power_on vmm);
      let kernels = ref [] in
      let counter = ref 0 in
      let create () =
        incr counter;
        let r = ref None in
        Vmm.create_domain vmm
          ~name:(Printf.sprintf "vm%d" !counter)
          ~mem_bytes:(gib 1) (fun x -> r := Some x);
        Engine.run engine;
        match !r with
        | Some (Ok d) ->
          let k = Guest.Kernel.create vmm d () in
          run_task engine (Guest.Kernel.boot k);
          kernels := k :: !kernels
        | _ -> ()
      in
      let destroy () =
        match !kernels with
        | [] -> ()
        | k :: rest ->
          kernels := rest;
          run_task engine (Guest.Kernel.shutdown k);
          run_task engine (Vmm.destroy_domain vmm (Guest.Kernel.domain k))
      in
      let balloon () =
        match !kernels with
        | [] -> ()
        | k :: _ ->
          ignore
            (Vmm.balloon vmm (Guest.Kernel.domain k) ~delta_bytes:(-1048576))
      in
      let warm_reboot () =
        run_task engine (Vmm.shutdown_dom0 vmm);
        run_task engine (Vmm.suspend_all_on_memory vmm);
        let r = ref None in
        Vmm.quick_reload vmm (fun x -> r := Some x);
        Engine.run engine;
        if !r <> Some (Ok ()) then ok := false;
        run_task engine (Vmm.boot_dom0 vmm);
        List.iter
          (fun k ->
            let res = ref None in
            Vmm.resume_domain_on_memory vmm (Guest.Kernel.domain k)
              (fun x -> res := Some x);
            Engine.run engine;
            if !res <> Some (Ok ()) then ok := false)
          !kernels
      in
      List.iter
        (fun op ->
          match op with
          | 0 | 3 -> create ()
          | 1 -> destroy ()
          | 2 -> balloon ()
          | _ -> warm_reboot ())
        ops;
      let memory = host.Hw.Host.memory in
      let frames_ok =
        Hw.Frame.check_invariants (Hw.Memory.frames memory) = Ok ()
      in
      let live_footprint =
        List.fold_left
          (fun acc d ->
            acc
            + Xenvmm.P2m.mapped_bytes (Domain.p2m d)
            + Hw.Frame.extents_bytes (Domain.p2m_frames d)
            + (match Domain.exec_state d with
              | Some es -> Hw.Frame.extents_bytes es.Domain.state_frames
              | None -> 0))
          0
          ((match Vmm.dom0 vmm with Some d -> [ d ] | None -> [])
          @ Vmm.domus vmm)
      in
      let conserved =
        Hw.Memory.free_bytes memory + live_footprint
        = Hw.Memory.total_bytes memory
      in
      !ok && frames_ok && conserved
      && List.for_all (fun k -> p2m_ok (Guest.Kernel.domain k)) !kernels)

(* --- trace exporters ------------------------------------------------------ *)

let sample_trace () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let s = Trace.begin_span tr "boot \"dom0\"" in
  ignore
    (Engine.schedule e ~delay:2.5 (fun () ->
         Trace.end_span tr s;
         Trace.instant tr "mark,with comma"));
  Engine.run e;
  tr

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_chrome_json_shape () =
  let json = Trace.to_chrome_json (sample_trace ()) in
  check_true "array" (String.length json > 2 && json.[0] = '[');
  check_true "closes" (json.[String.length json - 1] = ']');
  check_true "span event" (contains ~needle:{|"ph":"X"|} json);
  check_true "instant event" (contains ~needle:{|"ph":"i"|} json);
  check_true "quotes escaped" (contains ~needle:{|boot \"dom0\"|} json)

let test_empty_trace_exports () =
  let e = Engine.create () in
  let tr = Trace.create e in
  check_true "empty json" (Trace.to_chrome_json tr = "[]")

let suite =
  ( "invariants",
    [
      prop_memory_conserved_under_churn;
      Alcotest.test_case "chrome trace json" `Quick test_chrome_json_shape;
      Alcotest.test_case "empty trace" `Quick test_empty_trace_exports;
    ] )
