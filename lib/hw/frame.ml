type extent = { first : int; count : int }

type t = {
  total : int;
  mutable free_list : extent list; (* sorted by [first], coalesced *)
  mutable free_count : int;
}

let pp_extent ppf { first; count } =
  Format.fprintf ppf "[%#x..%#x)" first (first + count)

let extent_bytes { count; _ } = count * Simkit.Units.page_bytes

let extents_bytes extents =
  List.fold_left (fun acc e -> acc + extent_bytes e) 0 extents

let extents_frames extents =
  List.fold_left (fun acc e -> acc + e.count) 0 extents

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame.create: total_frames <= 0";
  {
    total = total_frames;
    free_list = [ { first = 0; count = total_frames } ];
    free_count = total_frames;
  }

let of_bytes ~total_bytes =
  create ~total_frames:(Simkit.Units.pages_of_bytes total_bytes)

let total_frames t = t.total
let free_frames t = t.free_count
let used_frames t = t.total - t.free_count
let free_bytes t = t.free_count * Simkit.Units.page_bytes

let alloc t ~frames =
  if frames <= 0 then invalid_arg "Frame.alloc: frames <= 0";
  if frames > t.free_count then None
  else begin
    let rec take needed acc = function
      | [] ->
        (* free_count guaranteed enough frames exist *)
        assert false
      | e :: rest ->
        if e.count <= needed then
          if e.count = needed then (List.rev (e :: acc), rest)
          else take (needed - e.count) (e :: acc) rest
        else
          let taken = { first = e.first; count = needed } in
          let left = { first = e.first + needed; count = e.count - needed } in
          (List.rev (taken :: acc), left :: rest)
    in
    let allocated, remaining = take frames [] t.free_list in
    t.free_list <- remaining;
    t.free_count <- t.free_count - frames;
    Some allocated
  end

let alloc_bytes t ~bytes =
  alloc t ~frames:(Simkit.Units.pages_of_bytes bytes)

(* Insert one extent into the sorted free list, coalescing with
   neighbours; fails on any overlap (double free). *)
let insert_free t e =
  if e.first < 0 || e.first + e.count > t.total then
    invalid_arg "Frame.free: extent out of range";
  let rec go = function
    | [] -> [ e ]
    | cur :: rest ->
      if e.first + e.count < cur.first then e :: cur :: rest
      else if e.first + e.count = cur.first then
        { first = e.first; count = e.count + cur.count } :: rest
      else if cur.first + cur.count < e.first then cur :: go rest
      else if cur.first + cur.count = e.first then begin
        (* coalesce left, may further coalesce right *)
        match rest with
        | next :: rest' when e.first + e.count = next.first ->
          { first = cur.first; count = cur.count + e.count + next.count }
          :: rest'
        | _ -> { first = cur.first; count = cur.count + e.count } :: rest
      end
      else invalid_arg "Frame.free: frame already free (double free?)"
  in
  t.free_list <- go t.free_list;
  t.free_count <- t.free_count + e.count

let free t extents =
  List.iter
    (fun e ->
      if e.count <= 0 then invalid_arg "Frame.free: empty extent";
      insert_free t e)
    extents

let reserve t e =
  if e.count <= 0 then Error "Frame.reserve: empty extent"
  else if e.first < 0 || e.first + e.count > t.total then
    Error
      (Format.asprintf "Frame.reserve: %a out of range" pp_extent e)
  else begin
    (* Find the free extent fully containing [e]. The free list is
       sorted and coalesced, so the only candidate is the last extent
       starting at or before [e.first]: once [cur.first] passes it we
       can fail without walking the rest, and an extent that contains
       [e.first] but ends short cannot be continued by a neighbour. *)
    let not_free =
      Error (Format.asprintf "Frame.reserve: %a not entirely free" pp_extent e)
    in
    let rec go acc = function
      | [] -> not_free
      | cur :: rest ->
        if cur.first > e.first then not_free
        else if cur.first + cur.count <= e.first then go (cur :: acc) rest
        else if e.first + e.count <= cur.first + cur.count then begin
          let before =
            if cur.first < e.first then
              [ { first = cur.first; count = e.first - cur.first } ]
            else []
          in
          let after_first = e.first + e.count in
          let after =
            if after_first < cur.first + cur.count then
              [ { first = after_first;
                  count = cur.first + cur.count - after_first } ]
            else []
          in
          t.free_list <- List.rev_append acc (before @ after @ rest);
          t.free_count <- t.free_count - e.count;
          Ok ()
        end
        else not_free
    in
    go [] t.free_list
  end

(* The free list is sorted by [first], so stop as soon as an extent
   starts past [mfn] instead of scanning every extent. *)
let rec free_in_sorted mfn = function
  | [] -> false
  | e :: rest ->
    if mfn < e.first then false
    else mfn < e.first + e.count || free_in_sorted mfn rest

let is_free t ~mfn = free_in_sorted mfn t.free_list

let check_invariants t =
  let rec go count = function
    | [] ->
      if count <> t.free_count then
        Error
          (Printf.sprintf "free_count mismatch: recorded %d, actual %d"
             t.free_count count)
      else Ok ()
    | e :: rest ->
      if e.count <= 0 then Error "empty extent in free list"
      else if e.first < 0 || e.first + e.count > t.total then
        Error "extent out of range"
      else begin
        match rest with
        | next :: _ when e.first + e.count >= next.first ->
          Error "free list not sorted/coalesced"
        | _ -> go (count + e.count) rest
      end
  in
  go 0 t.free_list
