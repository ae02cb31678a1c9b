module Int_map = Map.Make (Int)

type t = {
  (* keyed by first PFN of the run; value = backing machine extent *)
  mutable runs : Hw.Frame.extent Int_map.t;
  mutable page_count : int;
}

let create () = { runs = Int_map.empty; page_count = 0 }

let overlaps_existing t ~pfn_first ~count =
  (* A run [p, p+c) overlaps if the predecessor extends past p or the
     successor starts before p + c. *)
  let pred_overlaps =
    match Int_map.find_last_opt (fun k -> k <= pfn_first) t.runs with
    | Some (k, ext) -> k + ext.Hw.Frame.count > pfn_first
    | None -> false
  in
  let succ_overlaps =
    match Int_map.find_first_opt (fun k -> k > pfn_first) t.runs with
    | Some (k, _) -> k < pfn_first + count
    | None -> false
  in
  pred_overlaps || succ_overlaps

let add_extent t ~pfn_first ~mfns =
  let count = mfns.Hw.Frame.count in
  if count <= 0 then invalid_arg "P2m.add_extent: empty extent";
  if pfn_first < 0 then invalid_arg "P2m.add_extent: negative PFN";
  if overlaps_existing t ~pfn_first ~count then
    invalid_arg "P2m.add_extent: PFN range already mapped";
  t.runs <- Int_map.add pfn_first mfns t.runs;
  t.page_count <- t.page_count + count

(* Runs covering any part of [pfn_first, pfn_first + count), in
   ascending key order. Runs are disjoint and keyed by first PFN, so
   the candidates are the predecessor run (if it extends into the
   window) plus the in-order walk from [pfn_first] up to the window
   end — O(log n + hits) instead of a fold over every run, which
   matters because this sits on the suspend/resume path of every
   domain. *)
let runs_in_range t ~pfn_first ~count =
  let hi = pfn_first + count in
  let pred =
    match Int_map.find_last_opt (fun k -> k < pfn_first) t.runs with
    | Some (k, ext) when k + ext.Hw.Frame.count > pfn_first -> [ (k, ext) ]
    | Some _ | None -> []
  in
  let inside =
    Int_map.to_seq_from pfn_first t.runs
    |> Seq.take_while (fun (k, _) -> k < hi)
    |> List.of_seq
  in
  pred @ inside

let remove_range t ~pfn_first ~count =
  if count <= 0 then invalid_arg "P2m.remove_range: empty range";
  let covering = runs_in_range t ~pfn_first ~count in
  let covered =
    List.fold_left
      (fun acc (k, ext) ->
        let lo = Stdlib.max k pfn_first in
        let hi = Stdlib.min (k + ext.Hw.Frame.count) (pfn_first + count) in
        acc + (hi - lo))
      0 covering
  in
  if covered <> count then
    invalid_arg "P2m.remove_range: range not entirely mapped";
  let released = ref [] in
  List.iter
    (fun (k, ext) ->
      let ext_count = ext.Hw.Frame.count in
      let lo = Stdlib.max k pfn_first in
      let hi = Stdlib.min (k + ext_count) (pfn_first + count) in
      t.runs <- Int_map.remove k t.runs;
      (* Keep the parts of the run outside the removed window. *)
      if k < lo then
        t.runs <-
          Int_map.add k
            { ext with Hw.Frame.count = lo - k }
            t.runs;
      if hi < k + ext_count then
        t.runs <-
          Int_map.add hi
            {
              Hw.Frame.first = ext.Hw.Frame.first + (hi - k);
              count = k + ext_count - hi;
            }
            t.runs;
      released :=
        { Hw.Frame.first = ext.Hw.Frame.first + (lo - k); count = hi - lo }
        :: !released;
      t.page_count <- t.page_count - (hi - lo))
    covering;
  List.rev !released

let lookup t ~pfn =
  match Int_map.find_last_opt (fun k -> k <= pfn) t.runs with
  | Some (k, ext) when pfn < k + ext.Hw.Frame.count ->
    Some (ext.Hw.Frame.first + (pfn - k))
  | Some _ | None -> None

let pages t = t.page_count

let mapped_bytes t = t.page_count * Simkit.Units.page_bytes

let machine_extents t =
  Int_map.fold (fun _ ext acc -> ext :: acc) t.runs [] |> List.rev

let fold t ~init ~f =
  Int_map.fold (fun pfn_first mfns acc -> f acc ~pfn_first ~mfns) t.runs init

let remove_all t =
  let extents = machine_extents t in
  t.runs <- Int_map.empty;
  t.page_count <- 0;
  extents

let check_invariants t =
  (* PFN runs disjoint & sorted comes from the map; re-verify counts and
     that backing machine extents do not overlap each other. *)
  let runs = Int_map.bindings t.runs in
  let rec check_pfns = function
    | (k1, e1) :: ((k2, _) :: _ as rest) ->
      if k1 + e1.Hw.Frame.count > k2 then Error "PFN runs overlap"
      else check_pfns rest
    | _ -> Ok ()
  in
  let total = List.fold_left (fun a (_, e) -> a + e.Hw.Frame.count) 0 runs in
  if total <> t.page_count then Error "page_count mismatch"
  else
    match check_pfns runs with
    | Error _ as e -> e
    | Ok () ->
      let mfn_sorted =
        List.sort
          (fun e1 e2 -> compare e1.Hw.Frame.first e2.Hw.Frame.first)
          (List.map snd runs)
      in
      let rec check_mfns = function
        | e1 :: (e2 :: _ as rest) ->
          if e1.Hw.Frame.first + e1.Hw.Frame.count > e2.Hw.Frame.first then
            Error "machine extents overlap"
          else check_mfns rest
        | _ -> Ok ()
      in
      check_mfns mfn_sorted
