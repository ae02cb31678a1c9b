type 'a t = {
  what : string;
  entries : (string * 'a) list;  (* canonical names, declaration order *)
  aliases : (string * 'a) list;
}

let is_lowercase s = String.equal s (String.lowercase_ascii s)

let make ~what ?(aliases = []) entries =
  if entries = [] then invalid_arg "Enum.make: no entries";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      if not (is_lowercase name) then
        invalid_arg ("Enum.make: name not lowercase: " ^ name);
      if Hashtbl.mem seen name then
        invalid_arg ("Enum.make: duplicate name " ^ name);
      Hashtbl.replace seen name ())
    (entries @ aliases);
  { what; entries; aliases }

let names e = List.map fst e.entries

let name e v =
  match List.find_opt (fun (_, v') -> v' = v) e.entries with
  | Some (n, _) -> n
  | None -> invalid_arg ("Enum.name: unregistered " ^ e.what ^ " value")

let expecting e = "expected one of " ^ String.concat ", " (names e)

let of_string e s =
  let key = String.lowercase_ascii s in
  match List.assoc_opt key e.entries with
  | Some v -> Ok v
  | None -> (
    match List.assoc_opt key e.aliases with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown %s %S; %s" e.what s (expecting e))))

let of_string_opt e s =
  match of_string e s with Ok v -> Some v | Error _ -> None

let pp e ppf v = Format.pp_print_string ppf (name e v)
