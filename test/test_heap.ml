open Helpers
module Heap = Simkit.Heap

let test_empty () =
  let h = Heap.create ~dummy:() in
  check_true "empty" (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_true "min None" (Heap.min h = None);
  check_true "pop None" (Heap.pop h = None)

let test_single () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~key:1.5 "a";
  check_int "length" 1 (Heap.length h);
  check_true "min" (Heap.min h = Some (1.5, "a"));
  check_true "pop" (Heap.pop h = Some (1.5, "a"));
  check_true "empty after" (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun k -> Heap.add h ~key:k (string_of_float k))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      order := k :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let test_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun v -> Heap.add h ~key:1.0 v) [ "first"; "second"; "third" ];
  Heap.add h ~key:0.5 "early";
  check_true "early first" (Heap.pop h = Some (0.5, "early"));
  check_true "tie 1" (Heap.pop h = Some (1.0, "first"));
  check_true "tie 2" (Heap.pop h = Some (1.0, "second"));
  check_true "tie 3" (Heap.pop h = Some (1.0, "third"))

let test_interleaved_ties () =
  (* FIFO must hold even when equal keys are interleaved with pops. *)
  let h = Heap.create ~dummy:"" in
  Heap.add h ~key:1.0 "a";
  Heap.add h ~key:1.0 "b";
  check_true "a" (Heap.pop h = Some (1.0, "a"));
  Heap.add h ~key:1.0 "c";
  check_true "b" (Heap.pop h = Some (1.0, "b"));
  check_true "c" (Heap.pop h = Some (1.0, "c"))

let test_min_does_not_remove () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~key:2.0 "x";
  check_true "min" (Heap.min h = Some (2.0, "x"));
  check_int "still there" 1 (Heap.length h)

let test_growth () =
  let h = Heap.create ~dummy:0 in
  for i = 1000 downto 1 do
    Heap.add h ~key:(float_of_int i) i
  done;
  check_int "length" 1000 (Heap.length h);
  check_true "min is 1" (Heap.min h = Some (1.0, 1))

let test_negative_keys () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~key:(-5.0) "neg";
  Heap.add h ~key:0.0 "zero";
  check_true "negative first" (Heap.pop h = Some (-5.0, "neg"))

let test_filter_inplace () =
  let h = Heap.create ~dummy:0 in
  for i = 1 to 100 do
    Heap.add h ~key:(float_of_int (i mod 10)) i
  done;
  let dropped = Heap.filter_inplace h ~keep:(fun v -> v mod 3 = 0) in
  check_int "dropped" 67 dropped;
  check_int "kept" 33 (Heap.length h);
  (* Survivors keep their original keys and FIFO rank among ties. *)
  let rec drain acc =
    match Heap.pop h with Some kv -> drain (kv :: acc) | None -> List.rev acc
  in
  let expected =
    List.init 100 (fun i -> (float_of_int ((i + 1) mod 10), i + 1))
    |> List.filter (fun (_, v) -> v mod 3 = 0)
    |> List.stable_sort (fun (k1, _) (k2, _) -> Float.compare k1 k2)
  in
  check_true "order preserved" (drain [] = expected)

let test_filter_inplace_all_and_none () =
  let h = Heap.create ~dummy:0 in
  for i = 1 to 10 do
    Heap.add h ~key:(float_of_int i) i
  done;
  check_int "keep all drops none" 0
    (Heap.filter_inplace h ~keep:(fun _ -> true));
  check_int "length intact" 10 (Heap.length h);
  check_int "keep none drops all" 10
    (Heap.filter_inplace h ~keep:(fun _ -> false));
  check_true "empty" (Heap.is_empty h)

(* Values the heap has popped or filtered out must not stay reachable
   through its array: every slot past [length] holds the sentinel. *)
let test_removed_values_released () =
  let h = Heap.create ~dummy:(ref (-1)) in
  let tracked = Weak.create 4 in
  let add i =
    let v = ref i in
    Weak.set tracked i (Some v);
    Heap.add h ~key:(float_of_int i) v
  in
  add 0;
  add 1;
  ignore (Heap.pop h);
  ignore (Heap.pop h);
  add 2;
  add 3;
  check_int "filtered" 1 (Heap.filter_inplace h ~keep:(fun v -> !v = 2));
  ignore (Heap.pop h);
  Gc.full_major ();
  for i = 0 to 3 do
    check_false (Printf.sprintf "value %d collected" i) (Weak.check tracked i)
  done;
  (* keeps [h] itself alive across the collection *)
  check_true "empty" (Heap.is_empty h)

let prop_pop_sorted =
  qtest "pop yields sorted keys"
    QCheck.(list (float_bound_inclusive 1000.0))
    @@ fun keys ->
    let h = Heap.create ~dummy:0.0 in
    List.iter (fun k -> Heap.add h ~key:k k) keys;
    let rec drain acc =
      match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
    in
    let popped = drain [] in
    popped = List.sort Float.compare keys

let prop_length =
  qtest "length tracks adds and pops"
    QCheck.(list (float_bound_inclusive 100.0))
    @@ fun keys ->
    let h = Heap.create ~dummy:() in
    List.iter (fun k -> Heap.add h ~key:k ()) keys;
    let n = List.length keys in
    Heap.length h = n
    &&
    (ignore (Heap.pop h);
     Heap.length h = Stdlib.max 0 (n - 1))

let suite =
  ( "heap",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "single element" `Quick test_single;
      Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
      Alcotest.test_case "interleaved ties" `Quick test_interleaved_ties;
      Alcotest.test_case "min does not remove" `Quick test_min_does_not_remove;
      Alcotest.test_case "growth to 1000" `Quick test_growth;
      Alcotest.test_case "negative keys" `Quick test_negative_keys;
      Alcotest.test_case "filter_inplace" `Quick test_filter_inplace;
      Alcotest.test_case "filter_inplace edge cases" `Quick
        test_filter_inplace_all_and_none;
      Alcotest.test_case "removed values are released" `Quick
        test_removed_values_released;
      prop_pop_sorted;
      prop_length;
    ] )
