(* The quantum-synchronous executor: round/barrier unit tests,
   partition-count invariance as a QCheck law, and the golden
   byte-identity of the fleet_rolling grid across partition counts and
   both Eventq backends. *)
open Helpers
module Par = Simkit.Par_engine
module Engine = Simkit.Engine
module Wave = Rejuv.Wave
module Strategy = Rejuv.Strategy

let invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* --- construction and the round protocol --------------------------------- *)

let test_create_validation () =
  check_true "shards must be >= 1"
    (invalid (fun () -> Par.create ~quantum:1.0 ~shards:0 ()));
  check_true "quantum must be positive"
    (invalid (fun () -> Par.create ~quantum:0.0 ~shards:2 ()));
  let p = Par.create ~quantum:1.0 ~shards:3 () in
  check_int "shard count" 3 (Par.shards p);
  check_true "shard index below range rejected"
    (invalid (fun () -> Par.shard p (-1)));
  check_true "shard index past range rejected"
    (invalid (fun () -> Par.shard p 3))

(* The guarantee the control plane rests on: when [on_quantum q] runs,
   every shard has drained everything below [q] and none has run past
   it, so a message the coordinator schedules at [q] never lands in a
   shard's past. Shard 1 has a dense schedule (every 0.1 s up to
   t = 5) that would run past a grid point if it were ever released
   beyond one. *)
let test_no_shard_outruns_a_barrier () =
  let p = Par.create ~quantum:1.0 ~shards:2 () in
  ignore (Engine.schedule_at (Par.shard p 0) ~time:2.5 ignore);
  for i = 1 to 50 do
    ignore
      (Engine.schedule_at (Par.shard p 1) ~time:(0.1 *. float_of_int i) ignore)
  done;
  let delivered = Atomic.make 0 in
  Par.run p ~on_quantum:(fun q ->
      for i = 0 to Par.shards p - 1 do
        let e = Par.shard p i in
        check_true (Printf.sprintf "q=%g: shard %d clock below q" q i)
          (Engine.now e < q);
        check_true (Printf.sprintf "q=%g: shard %d has nothing below q" q i)
          (Option.fold ~none:true
             ~some:(fun t -> t >= q)
             (Engine.next_event_time e))
      done;
      ignore
        (Engine.schedule_at (Par.shard p 1) ~time:q (fun () ->
             Atomic.incr delivered));
      if q >= 5.0 then `Stop else `Continue);
  check_int "one round per quantum window" 5 (Par.stats p).Par.par_rounds;
  Par.run p;
  check_int "every barrier-time message delivered" 5 (Atomic.get delivered);
  check_true "drained" (Par.idle p)

let test_quantum_grid_is_absolute_and_persistent () =
  let p = Par.create ~quantum:1.0 ~shards:2 () in
  ignore (Engine.schedule_at (Par.shard p 0) ~time:2.5 ignore);
  let qs = ref [] in
  let tick stop_at q =
    qs := q :: !qs;
    if q >= stop_at then `Stop else `Continue
  in
  Par.run p ~on_quantum:(tick 3.0);
  Alcotest.(check (list (float 1e-9)))
    "barriers on the absolute grid" [ 1.0; 2.0; 3.0 ] (List.rev !qs);
  check_int "ticks counted" 3 (Par.stats p).Par.par_quantum_ticks;
  (* A later run call continues the same grid — it never restarts. *)
  qs := [];
  ignore (Engine.schedule_at (Par.shard p 0) ~time:4.2 ignore);
  Par.run p ~on_quantum:(tick 5.0);
  Alcotest.(check (list (float 1e-9)))
    "grid persists across run calls" [ 4.0; 5.0 ] (List.rev !qs);
  check_true "last_quantum tracks the grid" (Par.last_quantum p = 5.0)

let test_until_is_inclusive_and_leaves_the_future () =
  let p = Par.create ~quantum:1.0 ~shards:2 () in
  let ran = Array.make 3 false in
  let e = Par.shard p 0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> ran.(0) <- true));
  ignore (Engine.schedule_at e ~time:2.0 (fun () -> ran.(1) <- true));
  ignore (Engine.schedule_at e ~time:3.0 (fun () -> ran.(2) <- true));
  Par.run p ~until:2.0;
  check_true "below until ran" ran.(0);
  check_true "exactly at until ran (inclusive)" ran.(1);
  check_true "beyond until still pending" (not ran.(2));
  check_true "not idle: the future remains" (not (Par.idle p));
  Par.run p;
  check_true "finished on the unbounded run" (ran.(2) && Par.idle p)

(* --- partition invariance ------------------------------------------------- *)

let fleet_json ~partitions ~seed ~hosts ~width =
  let r =
    Rejuv.Experiment.fleet_cell ~partitions ~load_rate_per_s:20.0 ~seed ~hosts
      ~width ~slo:0.5
      ~strategy:(Wave.Reboot Strategy.Warm)
      ()
  in
  Rejuv.Experiment.Result.to_json (Rejuv.Experiment.Result.Fleet [ r ])

(* QCheck law: a fleet cell's report is a function of its parameters
   alone — never of how many shards carried it. *)
let qcheck_partition_invariance =
  qtest ~count:4 "fleet cell is partition-invariant"
    QCheck.(triple (int_range 1 1000) (int_range 4 7) (int_range 1 2))
    (fun (seed, hosts, width) ->
      let run partitions = fleet_json ~partitions ~seed ~hosts ~width in
      let one = run 1 in
      String.length one > 100 && one = run 2 && one = run 4)

(* Golden: the fleet_rolling smoke cell, via the registry exactly as
   the sweep runner drives it, is byte-identical for partitions 1/2/4
   under both event-queue backends. This is the identity the sweep
   cache relies on when it serves a cell computed at a different
   partitioning (partitions is deliberately absent from params_key). *)
let test_fleet_rolling_golden_across_backends () =
  let module E = Rejuv.Experiment in
  let spec = E.Spec.find_exn "fleet_rolling" in
  let rolling ~partitions =
    let params = { E.Spec.default_params with smoke = true; partitions } in
    check_true "smoke grid is non-empty" (spec.E.Spec.cells params <> []);
    E.Result.to_json (E.run ~params "fleet_rolling")
  in
  List.iter
    (fun backend ->
      let name = Simkit.Eventq.backend_name backend in
      Engine.with_default_queue backend (fun () ->
          let one = rolling ~partitions:1 in
          check_true (name ^ ": non-trivial payload") (String.length one > 100);
          Alcotest.(check string) (name ^ ": partitions 1 = 2") one
            (rolling ~partitions:2);
          Alcotest.(check string) (name ^ ": partitions 1 = 4") one
            (rolling ~partitions:4)))
    [ Simkit.Eventq.Heap; Simkit.Eventq.Calendar ]

let suite =
  ( "par_engine",
    [
      Alcotest.test_case "create/connect validation" `Quick
        test_create_validation;
      Alcotest.test_case "no shard outruns a message" `Quick
        test_no_shard_outruns_a_barrier;
      Alcotest.test_case "absolute persistent quantum grid" `Quick
        test_quantum_grid_is_absolute_and_persistent;
      Alcotest.test_case "until is inclusive" `Quick
        test_until_is_inclusive_and_leaves_the_future;
      qcheck_partition_invariance;
      Alcotest.test_case "fleet_rolling golden across backends" `Slow
        test_fleet_rolling_golden_across_backends;
    ] )
