type grant_ref = int

type access = Read_only | Read_write

type error = [ `Bad_ref | `Wrong_domain | `Still_mapped ]

let error_message = function
  | `Bad_ref -> "no such grant reference"
  | `Wrong_domain -> "domain is neither owner nor grantee of this grant"
  | `Still_mapped -> "grant is still mapped"

type entry = {
  owner : Domain.id;
  grantee : Domain.id;
  pfn : int;
  access : access;
  mutable mapped : bool;
}

type t = { mutable next_ref : grant_ref; table : (grant_ref, entry) Hashtbl.t }

let create () = { next_ref = 1; table = Hashtbl.create 64 }

let grant t ~owner ~grantee ~pfn ?(access = Read_write) () =
  if owner = grantee then invalid_arg "Grant_table.grant: self-grant";
  if pfn < 0 then invalid_arg "Grant_table.grant: negative pfn";
  let r = t.next_ref in
  t.next_ref <- r + 1;
  Hashtbl.replace t.table r
    { owner; grantee; pfn; access; mapped = false };
  r

let find t r = Hashtbl.find_opt t.table r

let map t r ~by =
  match find t r with
  | None -> Error `Bad_ref
  | Some e ->
    if e.grantee <> by then Error `Wrong_domain
    else if e.mapped then Error `Still_mapped
    else begin
      e.mapped <- true;
      Ok ()
    end

let is_mapped t r =
  match find t r with Some e -> e.mapped | None -> false

let grants_owned_by t domid =
  Hashtbl.fold
    (fun r e acc -> if e.owner = domid then r :: acc else acc)
    t.table []
  |> List.sort compare

let mappings_held_by t domid =
  Hashtbl.fold
    (fun r e acc -> if e.grantee = domid && e.mapped then r :: acc else acc)
    t.table []
  |> List.sort compare

let foreign_mappings_of t domid =
  Hashtbl.fold
    (fun _ e acc -> if e.owner = domid && e.mapped then acc + 1 else acc)
    t.table 0

let release_domain t domid =
  (* Unmap everything the domain holds... *)
  Hashtbl.iter (* simlint: allow D003 independent per-entry unmap flags commute *)
    (fun _ e -> if e.grantee = domid && e.mapped then e.mapped <- false)
    t.table;
  (* ...then drop every grant it owns (force-unmapping stragglers, as
     the toolstack's teardown does). *)
  let owned =
    Hashtbl.fold (* simlint: allow D003 removing a grant set commutes *)
      (fun r e acc -> if e.owner = domid then r :: acc else acc)
      t.table []
  in
  List.iter
    (fun r ->
      (match find t r with Some e -> e.mapped <- false | None -> ());
      Hashtbl.remove t.table r)
    owned

let check_invariants t =
  Hashtbl.fold (* simlint: allow D003 any violation fails the check; which one is reported is immaterial *)
    (fun _ e acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if e.owner = e.grantee then Error "self-grant in table" else Ok ())
    t.table (Ok ())
