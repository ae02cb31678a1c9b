type 'a task = { key : string; cache_key : string option; run : unit -> 'a }

type metrics = { wall_s : float; sim_events : int }

type 'a outcome = {
  key : string;
  value : ('a, Simkit.Fault.t) result;
  metrics : metrics;
}

(* A run that dies on a typed fault is a result, not a crash: the rest
   of the sweep proceeds and the caller sees the fault in its outcome.
   Any other exception still aborts the whole sweep via Pool. *)
let guarded run =
  match run () with
  | v -> Ok v
  | exception Simkit.Fault.Error f -> Error f

let execute (t : 'a task) =
  let t0 = Unix.gettimeofday () in
  let ev0 = Simkit.Engine.domain_events_processed () in
  let value = guarded t.run in
  let sim_events = Simkit.Engine.domain_events_processed () - ev0 in
  {
    key = t.key;
    value;
    metrics = { wall_s = Unix.gettimeofday () -. t0; sim_events };
  }

let run ?jobs ?(verify_isolation = false) (tasks : 'a task list) =
  let tasks =
    List.sort (fun (a : 'a task) b -> String.compare a.key b.key) tasks
    |> Array.of_list
  in
  let outcomes = Pool.parallel_map ?jobs execute tasks in
  if verify_isolation && Array.length tasks > 0 then begin
    (* Replay the first task on this domain; a deterministic run can
       only differ if some mutable state was shared across domains
       during the parallel pass. *)
    let bytes (r : ('a, Simkit.Fault.t) result) = Marshal.to_string r [] in
    let replay = bytes (guarded tasks.(0).run) in
    if not (String.equal replay (bytes outcomes.(0).value)) then
      Simkit.Fault.fail
        (Simkit.Fault.Invariant
           (Printf.sprintf
              "Sweep.run: task %S is not reproducible — parallel and \
               sequential results differ (shared mutable state leaked \
               between domains?)"
              tasks.(0).key))
  end;
  Array.to_list outcomes

let total_wall_s outcomes =
  List.fold_left (fun acc o -> acc +. o.metrics.wall_s) 0.0 outcomes

let observe ?(prefix = "runner.sweep") ?elapsed_s reg outcomes =
  let wall = Obs.Registry.histogram reg (prefix ^ ".run_wall_s") in
  let faulted = ref 0 and sim_events = ref 0 in
  List.iter
    (fun o ->
      Obs.Metric.Histogram.observe wall o.metrics.wall_s;
      sim_events := !sim_events + o.metrics.sim_events;
      match o.value with Error _ -> incr faulted | Ok _ -> ())
    outcomes;
  let g field v = Obs.Registry.set_gauge reg (prefix ^ "." ^ field) v in
  g "runs" (float_of_int (List.length outcomes));
  g "faulted_runs" (float_of_int !faulted);
  g "sim_events" (float_of_int !sim_events);
  g "total_wall_s" (total_wall_s outcomes);
  Option.iter
    (fun elapsed ->
      g "elapsed_s" elapsed;
      (* Sequential-equivalent cost over real elapsed time: how many
         cores the batch kept busy on average. *)
      if elapsed > 0.0 then
        g "shard_utilization" (total_wall_s outcomes /. elapsed))
    elapsed_s
