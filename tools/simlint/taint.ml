(* D009: interprocedural determinism taint.

   Seeds are the D001/D002 primitives (wall-clock reads, ambient RNG)
   at their resolved names, so wrappers and aliases cannot hide them.
   The directory allowlist and inline suppressions are applied at the
   *source* of taint: a wall-clock read that D001 sanctions (lib/runner,
   bench) or that carries a reasoned suppression does not poison its
   callers. Taint then propagates up the call graph across modules; any
   function defined under lib/ whose body does not itself touch a
   primitive (that is direct use — D001/D002's job) but transitively
   reaches one is reported, with the full call chain retained for
   [--why]. Anonymous toplevel items ([let () = ...]) take part as
   definitions that nothing calls, so one is reported at the item. *)

type chain_step = { s_what : string; s_file : string; s_line : int }

type finding = { f : Rules.finding; chain : chain_step list }

let seed_rule target =
  match target with
  | "Unix.gettimeofday" | "Unix.time" | "Sys.time" -> Some ("D001", "wall-clock")
  | t
    when String.starts_with ~prefix:"Random." t
         && not (String.starts_with ~prefix:"Random.State" t) ->
    (* Random.State draws are explicit-state; only the ambient global
       generator defeats seeded replay. *)
    Some ("D002", "ambient RNG")
  | t when String.equal t "Random.self_init" -> Some ("D002", "ambient RNG")
  | _ -> None

(* How a definition became tainted. *)
type trace =
  | Primitive of string * Location.t  (* directly touches the primitive *)
  | Via of string * Location.t  (* calls a tainted definition *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let analyze ~(units : Callgraph.unit_info list)
    ~(suppressed : file:string -> line:int -> rule:string -> bool) =
  let defs : (string, Callgraph.def * Callgraph.unit_info) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      List.iter
        (fun (d : Callgraph.def) ->
          if not (Hashtbl.mem defs d.key) then Hashtbl.add defs d.key (d, u))
        (u.defs @ u.inits))
    units;

  (* Reverse edges: callee key -> (caller key, call site). *)
  let callers : (string, (string * Location.t) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let add_caller callee caller loc =
    match Hashtbl.find_opt callers callee with
    | Some l -> l := (caller, loc) :: !l
    | None -> Hashtbl.add callers callee (ref [ (caller, loc) ])
  in

  let tainted : (string, trace) Hashtbl.t = Hashtbl.create 64 in
  let seeds = ref [] in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      List.iter
        (fun (d : Callgraph.def) ->
          List.iter
            (fun (r : Callgraph.ref_site) ->
              (match Hashtbl.mem defs r.target with
              | true -> add_caller r.target d.key r.rloc
              | false -> ());
              match seed_rule r.target with
              | Some (rule, _) ->
                let waived =
                  Allow.allowed ~rule ~path:u.src
                  || suppressed ~file:u.src ~line:(line_of r.rloc) ~rule
                in
                if (not waived) && not (Hashtbl.mem tainted d.key) then begin
                  Hashtbl.replace tainted d.key (Primitive (r.target, r.rloc));
                  seeds := d.key :: !seeds
                end
              | None -> ())
            d.refs)
        (u.defs @ u.inits))
    units;

  (* Breadth-first propagation along reverse call edges; deterministic
     because the frontier starts sorted and expansions are sorted. *)
  let queue = Queue.create () in
  List.iter (fun k -> Queue.add k queue) (List.sort String.compare !seeds);
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    let cs =
      match Hashtbl.find_opt callers g with
      | Some l -> List.sort compare !l
      | None -> []
    in
    List.iter
      (fun (caller, loc) ->
        if not (Hashtbl.mem tainted caller) then begin
          Hashtbl.replace tainted caller (Via (g, loc));
          Queue.add caller queue
        end)
      cs
  done;

  let rec chain_of key =
    match Hashtbl.find_opt defs key with
    | None -> []
    | Some (d, u) -> (
      let step = { s_what = key; s_file = u.src; s_line = line_of d.dloc } in
      match Hashtbl.find_opt tainted key with
      | Some (Via (callee, _)) -> step :: chain_of callee
      | Some (Primitive (prim, loc)) ->
        [ step; { s_what = prim; s_file = u.src; s_line = line_of loc } ]
      | None -> [ step ])
  in

  (* Report indirectly tainted definitions under lib/: direct uses are
     D001/D002 findings of the Parsetree pass, not D009's. *)
  Hashtbl.fold
    (fun key trace acc ->
      match trace with
      | Primitive _ -> acc
      | Via (callee, _) ->
        let d, u = Hashtbl.find defs key in
        if not (Allow.under_prefix ~prefix:"lib/" u.src) then acc
        else
          let chain = chain_of key in
          let prim =
            match List.rev chain with last :: _ -> last.s_what | [] -> "?"
          in
          let kind =
            match seed_rule prim with Some (_, k) -> k | None -> "primitive"
          in
          let loc = d.dloc.Location.loc_start in
          {
            f =
              {
                Rules.file = u.src;
                line = loc.pos_lnum;
                col = loc.pos_cnum - loc.pos_bol;
                rule = "D009";
                message =
                  Printf.sprintf
                    "%s transitively reaches %s (%s) via %s: simulation \
                     code must take time from the engine clock and \
                     randomness from Simkit.Rng; use --why for the full \
                     call chain"
                    key prim kind callee;
              };
            chain;
          }
          :: acc)
    tainted []
