(* The parallel sweep runner: work-stealing pool semantics, key-ordered
   deterministic outcomes, the isolation check, and the guarantee that
   every registered experiment serializes through Result.to_json and
   merges to the same bytes under [Experiment.sweep] at any [jobs]. *)
open Helpers
module Experiment = Rejuv.Experiment
module Result = Rejuv.Experiment.Result
module Spec = Rejuv.Experiment.Spec
module Pool = Runner.Pool
module Sweep = Runner.Sweep

(* --- Pool ----------------------------------------------------------------- *)

let test_pool_order_and_domains () =
  (* 40 short tasks on 4 workers: results must come back in input
     order, and the work must actually have spread over >= 2 domains
     (jobs > 1 spawns workers even on a single-core host). *)
  let tasks = Array.init 40 Fun.id in
  let results =
    Pool.parallel_map ~jobs:4
      (fun i ->
        Unix.sleepf 0.002;
        (i * i, (Domain.self () :> int)))
      tasks
  in
  Array.iteri
    (fun i (sq, _) -> check_int (Printf.sprintf "result %d in place" i) (i * i) sq)
    results;
  let domains =
    Array.fold_left
      (fun acc (_, d) -> if List.mem d acc then acc else d :: acc)
      [] results
  in
  check_true "used at least 2 domains" (List.length domains >= 2)

let test_pool_jobs1_inline () =
  let self = (Domain.self () :> int) in
  let results =
    Pool.parallel_map ~jobs:1 (fun _ -> (Domain.self () :> int)) [| 0; 1; 2 |]
  in
  Array.iter (check_int "ran on the calling domain" self) results

let test_pool_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:3
           (fun i -> if i = 17 then failwith "task 17 exploded" else i)
           (Array.init 32 Fun.id));
      false
    with Failure msg -> String.equal msg "task 17 exploded"
  in
  check_true "worker exception re-raised on the caller" raised

(* --- Sweep ---------------------------------------------------------------- *)

let test_sweep_key_order () =
  (* Tasks handed over unsorted, with the lexicographically-last key
     finishing first: outcomes must still come back in key order. *)
  let task key delay =
    { Sweep.key; cache_key = None; run = (fun () -> Unix.sleepf delay; key) }
  in
  let outcomes =
    Sweep.run ~jobs:3
      [ task "c" 0.0; task "a" 0.02; task "b" 0.01 ]
  in
  let keys = List.map (fun (o : _ Sweep.outcome) -> o.key) outcomes in
  Alcotest.(check (list string)) "ascending key order" [ "a"; "b"; "c" ] keys;
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_true "value matches key" (o.value = Ok o.key);
      check_true "wall clock measured" (o.metrics.wall_s >= 0.0))
    outcomes

let cheap_params =
  {
    Spec.default_params with
    vm_counts = Some [ 1; 2 ];
    smoke = true;
  }

let merged_bytes ~jobs ids =
  let merged, _ = Experiment.sweep ~jobs ~params:cheap_params ids in
  Marshal.to_string (List.map snd merged) []

let test_sweep_parallel_equals_sequential () =
  (* The acceptance bar: fig4 and fig6 shards fanned across 4 domains
     must merge to bytes identical to the jobs=1 path. *)
  let seq = merged_bytes ~jobs:1 [ "fig4"; "fig6" ] in
  let par = merged_bytes ~jobs:4 [ "fig4"; "fig6" ] in
  check_true "parallel merge byte-identical to sequential" (String.equal seq par)

let test_sweep_isolation_check_passes () =
  let _, outcomes =
    Experiment.sweep ~jobs:2 ~verify_isolation:true ~params:cheap_params
      [ "fig4" ]
  in
  check_int "one outcome per fig4 cell" 6 (List.length outcomes);
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_true "simulated events attributed" (o.metrics.sim_events > 0))
    outcomes

(* Tasks that read and bump one shared counter leak state between
   runs. The replay of the first task comes after every task has
   bumped the counter, so it always reads a value no parallel run
   read, whatever the scheduling. *)
let test_sweep_isolation_check_catches_a_leak () =
  let shared = Atomic.make 0 in
  let task key =
    {
      Sweep.key;
      cache_key = None;
      run = (fun () -> Atomic.fetch_and_add shared 1);
    }
  in
  match
    Sweep.run ~jobs:2 ~verify_isolation:true
      (List.map task [ "a"; "b"; "c"; "d" ])
  with
  | _ -> Alcotest.fail "a task reading shared state passed the isolation check"
  | exception Simkit.Fault.Error (Simkit.Fault.Invariant _) ->
    check_int "every task ran, then the replay" 5 (Atomic.get shared)

(* --- Result.to_json ------------------------------------------------------- *)

(* A strict little JSON reader — enough to reject anything malformed
   without pulling in a parsing dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Exit in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c = if peek () = c then advance () else raise Exit in
  let literal w = String.iter expect w in
  let digits () =
    if not (match peek () with '0' .. '9' -> true | _ -> false) then raise Exit;
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        advance ();
        go ()
      | _ ->
        advance ();
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          if peek () = ',' then (advance (); members ()) else expect '}'
        in
        members ()
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then advance ()
      else
        let rec elems () =
          value ();
          skip_ws ();
          if peek () = ',' then (advance (); elems ()) else expect ']'
        in
        elems ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ ->
      if peek () = '-' then advance ();
      digits ();
      if !pos < n && s.[!pos] = '.' then (advance (); digits ());
      if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
        advance ();
        if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
        digits ()
      end
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_validator_sanity () =
  check_true "object" (json_valid {|{"a":[1,-2.5e3,null,true],"b":"x\"y"}|});
  check_false "trailing garbage" (json_valid {|{"a":1} junk|});
  check_false "bare word" (json_valid "nonsense");
  check_false "unterminated" (json_valid {|{"a":|})

let test_every_experiment_round_trips_json () =
  (* Run every registered spec end-to-end (cheap sweep points where the
     experiment is parameterized, plus the full fault_matrix and
     elastic_restore grids) and check its merged Result renders as
     well-formed JSON with the right envelope, byte-identical at
     --jobs 1 and --jobs 2. *)
  let check params ids =
    let merged, _ = Experiment.sweep ~jobs:2 ~params ids in
    let sequential, _ = Experiment.sweep ~jobs:1 ~params ids in
    check_int "one result per id" (List.length ids) (List.length merged);
    check_true "ids in request order" (List.map fst merged = ids);
    List.iter2
      (fun (id, sequential) (id', result) ->
        check_true "id preserved" (String.equal id id');
        match result with
        | Ok result ->
          let json = Result.to_json result in
          check_true (id ^ ": valid JSON") (json_valid json);
          let prefix =
            Printf.sprintf {|{"kind":"%s"|} (Result.kind result)
          in
          check_true (id ^ ": kind envelope")
            (String.length json >= String.length prefix
            && String.equal (String.sub json 0 (String.length prefix)) prefix);
          Alcotest.(check string)
            (id ^ ": jobs 1 = jobs 2")
            (match sequential with
            | Ok r -> Result.to_json r
            | Error f -> Simkit.Fault.to_string f)
            json
        | Error f -> Alcotest.failf "%s: %s" id (Simkit.Fault.to_string f))
      sequential merged
  in
  check cheap_params (Spec.ids ());
  check { cheap_params with smoke = false } [ "fault_matrix"; "elastic_restore" ]

let test_cell_keys_unique_and_prefixed () =
  (* Listing cells runs nothing, so every grid is checked at full size. *)
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun params ->
          let keys = List.map fst (spec.cells params) in
          check_true (spec.id ^ ": has cells") (keys <> []);
          check_int (spec.id ^ ": keys unique") (List.length keys)
            (List.length (List.sort_uniq String.compare keys));
          List.iter
            (fun key ->
              check_true
                (key ^ " starts with " ^ spec.id)
                (String.equal key spec.id
                || String.starts_with ~prefix:(spec.id ^ "/") key))
            keys)
        [ Spec.default_params; { Spec.default_params with smoke = true } ])
    (Spec.all ())

let test_sweep_rejects_repeated_id () =
  let events = Simkit.Engine.domain_events_processed () in
  (match Experiment.sweep ~jobs:1 [ "fig4"; "fig4" ] with
  | _ -> Alcotest.fail "a repeated id was accepted"
  | exception Invalid_argument _ -> ());
  check_int "nothing ran" events (Simkit.Engine.domain_events_processed ())

let suite =
  ( "runner",
    [
      Alcotest.test_case "pool: input order, >=2 domains" `Quick
        test_pool_order_and_domains;
      Alcotest.test_case "pool: jobs=1 runs inline" `Quick
        test_pool_jobs1_inline;
      Alcotest.test_case "pool: exception propagates" `Quick
        test_pool_exception_propagates;
      Alcotest.test_case "sweep: outcomes in key order" `Quick
        test_sweep_key_order;
      Alcotest.test_case "sweep: parallel = sequential bytes" `Slow
        test_sweep_parallel_equals_sequential;
      Alcotest.test_case "sweep: isolation check and metrics" `Quick
        test_sweep_isolation_check_passes;
      Alcotest.test_case "sweep: isolation check catches a leak" `Quick
        test_sweep_isolation_check_catches_a_leak;
      Alcotest.test_case "json validator sanity" `Quick
        test_json_validator_sanity;
      Alcotest.test_case "every experiment -> valid JSON" `Slow
        test_every_experiment_round_trips_json;
      Alcotest.test_case "cell keys unique, prefixed by the id" `Quick
        test_cell_keys_unique_and_prefixed;
      Alcotest.test_case "sweep rejects a repeated id" `Quick
        test_sweep_rejects_repeated_id;
    ] )
