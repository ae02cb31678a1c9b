(* Distills compiled .cmt files (the typedtree dumps dune produces for
   every module it builds) into the facts the interprocedural passes
   need: per-unit toplevel value definitions with the canonicalized
   list of values each one references (the call graph), the unit's
   anonymous module-initialization items ([let () = ...], [let _ = ...],
   [;;]-style evals), module aliases, type declarations (for the
   mutability oracle), domain-boundary closure sites with their
   transitive capture sets, and toplevel globals. [read_exports] reads
   the matching .cmti: every [val] the interface exports.

   Unlike the Parsetree pass, everything here is name-resolved by the
   compiler itself: a one-line alias around [Random.int], an [open], or
   a [module R = Random] cannot hide the primitive, because the
   typedtree records the resolved [Path.t] of every identifier.

   Canonical names: a reference is rendered as a dot-separated path
   with dune's module mangling undone — unit [Runner__Pool] becomes
   [Runner.Pool], a [Stdlib.] head is dropped, and the generated alias
   module head [Obs__] collapses into [Obs]. Definitions use the same
   scheme, so cross-unit references and definitions meet on equal
   strings regardless of how the source spelled the access. *)

open Typedtree

type ref_site = { target : string; rloc : Location.t }

type def = {
  key : string;  (** canonical, e.g. ["Runner.Pool.parallel_map"] *)
  dloc : Location.t;
  refs : ref_site list;  (** every value reference in the body *)
}

type capture = {
  cap_name : string;
  cap_ty : Types.type_expr;
  cap_loc : Location.t;
}

type spawn_site = {
  spawn_what : string;  (** e.g. ["Domain.spawn"] *)
  spawn_loc : Location.t;
  captures : capture list;  (** transitive free variables of the closure *)
}

type global = { g_key : string; g_ty : Types.type_expr; g_loc : Location.t }

type export = { e_key : string; e_loc : Location.t }

type unit_info = {
  modname : string;
  canon : string list;
  src : string;  (** logical '/'-separated repo-relative source path *)
  defs : def list;
  inits : def list;
      (** anonymous toplevel items, which run when the module is
          initialized; each key is ["<Unit>.<init:LINE>"], which no
          reference can name *)
  aliases : (string * string) list;
      (** toplevel [module X = P] items, canonical name to canonical
          target *)
  exports : export list;  (** the [val]s of the unit's interface *)
  spawns : spawn_site list;
  globals : global list;
  decls : (string * Types.type_declaration) list;
  canon_of_path : Path.t -> string;
      (** canonicalize a [Path.t] (e.g. a type constructor inside one of
          this unit's [type_expr]s) with this unit's alias table *)
}

(* --- canonical names ----------------------------------------------------- *)

(* "Runner__Pool" -> ["Runner"; "Pool"]; "Obs__" -> ["Obs"] (dune's
   generated alias module); plain "Obs" -> ["Obs"]. *)
let split_mangled m =
  let n = String.length m in
  let rec go acc start i =
    if i + 1 >= n then
      let last = String.sub m start (n - start) in
      List.rev (if last = "" then acc else last :: acc)
    else if m.[i] = '_' && m.[i + 1] = '_' then
      go (String.sub m start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if n = 0 then [] else go [] 0 0

(* --- reading ------------------------------------------------------------- *)

type raw = {
  r_modname : string;
  r_src : string;
  r_str : structure;
  r_exports : export list;  (** from the .cmti beside the .cmt, if any *)
}

(* Every [val] of an interface, nested module signatures included,
   keyed [prefix.name] ([prefix] is the unit's canonical path). Module
   aliases ([module Metric = Metric]) are skipped: the aliased unit's
   own interface exports those values. *)
let rec sig_exports prefix sg =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        [
          {
            e_key = String.concat "." (prefix @ [ vd.val_name.txt ]);
            e_loc = vd.val_loc;
          };
        ]
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
        match md_type.mty_desc with
        | Tmty_signature sg -> sig_exports (prefix @ [ name ]) sg
        | _ -> [])
      | _ -> [])
    sg.sig_items

let read_exports ~canon path =
  if not (Sys.file_exists path) then []
  else
    match Cmt_format.read_cmt path with
    | exception _ -> []
    | { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } ->
      sig_exports canon sg
    | _ -> []

(* [as_path] serves the same purpose as in [Lint.lint_file]: the test
   fixtures are compiled under test/ but must be analyzed as if they
   lived under lib/, since the deep rules are directory-scoped. *)
let read ?as_path path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let src =
        match as_path with
        | Some p -> p
        | None ->
          Option.value cmt.Cmt_format.cmt_sourcefile
            ~default:(Filename.basename path)
      in
      Some
        {
          r_modname = cmt.Cmt_format.cmt_modname;
          r_src = Allow.normalize src;
          r_str = str;
          r_exports =
            read_exports
              ~canon:(split_mangled cmt.Cmt_format.cmt_modname)
              (path ^ "i");
        }
    | _ -> None)

let is_arrow ty =
  let rec go ty =
    match Types.get_desc ty with
    | Types.Tarrow _ -> true
    | Types.Tpoly (t, _) -> go t
    | _ -> false
  in
  go ty

(* --- distilling one unit ------------------------------------------------- *)

let distill ~units raw =
  let canon = split_mangled raw.r_modname in
  let lib = match canon with l :: _ -> l | [] -> raw.r_modname in
  (* Local [module X = Path] aliases, so references through them still
     canonicalize to the aliased module. *)
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  (* Type idents declared in nested modules are referenced as bare
     [Pident]s from inside their module; resolve them by identity so
     [Config.t] never collides with a toplevel [t]. *)
  let tydecls_by_ident : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let rec mod_path p =
    match p with
    | Path.Pident id ->
      let n = Ident.name id in
      if Ident.is_predef id then [ n ]
      else if Ident.global id then if n = "Stdlib" then [] else split_mangled n
      else (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some c -> c
        | None ->
        match Hashtbl.find_opt tydecls_by_ident (Ident.unique_name id) with
        | Some c -> c
        | None ->
          (* A sibling unit of the same library, or a module defined
             locally in this unit (canonical under the unit's path). *)
          if List.mem (lib ^ "__" ^ n) units then [ lib; n ] else canon @ [ n ])
    | Path.Pdot (p, s) -> mod_path p @ [ s ]
    | Path.Papply _ -> [ "<functor>" ]
    | Path.Pextra_ty (p, _) -> mod_path p
  in
  let canon_of_path p = String.concat "." (mod_path p) in

  (* Pass A: walk the structure (into nested modules) collecting
     toplevel value definitions, type declarations, module aliases and
     anonymous items: a [let] whose pattern binds no name ([let () =],
     [let _ =]) or a [;;]-style eval. *)
  let defs_by_ident : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let def_sites = ref [] in
  let inits = ref [] in
  let init_site (loc : Location.t) e =
    let key =
      Printf.sprintf "%s.<init:%d>" (String.concat "." canon)
        loc.loc_start.pos_lnum
    in
    inits := (key, loc, e) :: !inits
  in
  let mod_aliases = ref [] in
  let globals = ref [] in
  let decls = ref [] in
  let rec unwrap_mod me =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> unwrap_mod me
    | d -> d
  in
  let rec items prefix strl =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
                let key = String.concat "." (prefix @ [ Ident.name id ]) in
                Hashtbl.replace defs_by_ident (Ident.unique_name id) key;
                def_sites := (key, vb.vb_pat.pat_loc, vb.vb_expr) :: !def_sites;
                globals :=
                  {
                    g_key = key;
                    g_ty = vb.vb_pat.pat_type;
                    g_loc = vb.vb_pat.pat_loc;
                  }
                  :: !globals
              | _ when pat_bound_idents vb.vb_pat = [] ->
                init_site item.str_loc vb.vb_expr
              | _ -> ())
            vbs
        | Tstr_type (_, tds) ->
          List.iter
            (fun td ->
              let path = prefix @ [ Ident.name td.typ_id ] in
              Hashtbl.replace tydecls_by_ident (Ident.unique_name td.typ_id)
                path;
              decls := (String.concat "." path, td.typ_type) :: !decls)
            tds
        | Tstr_module mb -> mod_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (mod_binding prefix) mbs
        | Tstr_eval (e, _) -> init_site item.str_loc e
        | _ -> ())
      strl
  and mod_binding prefix mb =
    match (mb.mb_id, mb.mb_name.txt) with
    | Some id, Some name -> (
      match unwrap_mod mb.mb_expr with
      | Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.unique_name id) (mod_path p);
        mod_aliases :=
          (String.concat "." (prefix @ [ name ]), canon_of_path p)
          :: !mod_aliases
      | Tmod_structure s -> items (prefix @ [ name ]) s.str_items
      | _ -> ())
    | _ -> ()
  in
  items canon raw.r_str.str_items;

  (* [let module H = Metric.Histogram in ...] aliases, registered
     before any pass reads a body, so [H.add] canonicalizes to the
     aliased module's value. *)
  let letmodule_aliases =
    let super = Tast_iterator.default_iterator in
    let expr sub e =
      (match e.exp_desc with
      | Texp_letmodule (Some id, _, _, me, _) -> (
        match unwrap_mod me with
        | Tmod_ident (p, _) ->
          Hashtbl.replace aliases (Ident.unique_name id) (mod_path p)
        | _ -> ())
      | _ -> ());
      super.expr sub e
    in
    { super with Tast_iterator.expr }
  in
  List.iter
    (fun (_, _, e) -> letmodule_aliases.expr letmodule_aliases e)
    (!def_sites @ !inits);

  (* The canonical name of a value reference, if it has one: a dotted
     path, or a bare ident that resolves to one of this unit's own
     toplevel definitions. Plain locals return [None]. *)
  let ref_target e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id when (not (Ident.global id)) && not (Ident.is_predef id)
        ->
        Hashtbl.find_opt defs_by_ident (Ident.unique_name id)
      | Path.Pident _ -> None
      | _ -> Some (canon_of_path p))
    | _ -> None
  in

  (* Pass B: reference lists per definition. *)
  let refs_of_expr e0 =
    let acc = ref [] in
    let super = Tast_iterator.default_iterator in
    let expr sub e =
      (match ref_target e with
      | Some t -> acc := { target = t; rloc = e.exp_loc } :: !acc
      | None -> ());
      super.expr sub e
    in
    let it = { super with Tast_iterator.expr } in
    it.expr it e0;
    List.rev !acc
  in

  (* Pass C: domain-boundary closure sites. A "boundary" is a literal
     argument position whose value will run on (or be shared with)
     another domain: closures handed to Domain.spawn or
     Runner.Pool.parallel_map, and the [run] field of a
     Runner.Sweep.task record (the pool's task submission format). *)
  let spawn_fns = [ "Domain.spawn"; "Runner.Pool.parallel_map" ] in
  let is_task_type ty =
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> String.equal (canon_of_path p) "Runner.Sweep.task"
    | _ -> false
  in
  let spawns = ref [] in
  let scan_item item_expr =
    (* All let-bindings inside this item, so a closure's free variables
       can be chased through locally-defined helper functions (the
       spawned closure [fun () -> worker w] really captures everything
       [worker] touches). *)
    let local_bindings : (string, expression) Hashtbl.t = Hashtbl.create 16 in
    let super = Tast_iterator.default_iterator in
    let collect_vb sub vb =
      (match vb.vb_pat.pat_desc with
      | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
        if not (Hashtbl.mem defs_by_ident (Ident.unique_name id)) then
          Hashtbl.replace local_bindings (Ident.unique_name id) vb.vb_expr
      | _ -> ());
      super.value_binding sub vb
    in
    let it = { super with Tast_iterator.value_binding = collect_vb } in
    it.expr it item_expr;

    (* Transitive free variables of [closure]: identifiers referenced
       but not bound within the closure or within any locally-bound
       function it (transitively) calls. Values allocated inside the
       closure are bound there, so fresh-per-task state never counts as
       captured. *)
    let free_vars closure =
      let refs : (string, capture) Hashtbl.t = Hashtbl.create 32 in
      let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
      let expanded : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let scan e0 =
        let expr sub e =
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when (not (Ident.global id))
                 && (not (Ident.is_predef id))
                 && not (Hashtbl.mem defs_by_ident (Ident.unique_name id)) ->
            if not (Hashtbl.mem refs (Ident.unique_name id)) then
              Hashtbl.replace refs (Ident.unique_name id)
                {
                  cap_name = Ident.name id;
                  cap_ty = e.exp_type;
                  cap_loc = e.exp_loc;
                }
          | Texp_function { param; _ } ->
            Hashtbl.replace bound (Ident.unique_name param) ()
          | Texp_for (id, _, _, _, _, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          super.expr sub e
        in
        let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
         fun sub p ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
          | Tpat_alias (_, id, _) ->
            Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          super.pat sub p
        in
        let it = { super with Tast_iterator.expr; pat } in
        it.expr it e0
      in
      let rec loop = function
        | [] -> ()
        | e :: rest ->
          scan e;
          let more =
            Hashtbl.fold
              (fun un cap acc ->
                if Hashtbl.mem expanded un then acc
                else
                  match Hashtbl.find_opt local_bindings un with
                  | Some be when is_arrow cap.cap_ty ->
                    Hashtbl.replace expanded un ();
                    be :: acc
                  | _ -> acc)
              refs []
          in
          loop (more @ rest)
      in
      loop [ closure ];
      Hashtbl.fold
        (fun un cap acc ->
          if Hashtbl.mem bound un || Hashtbl.mem expanded un then acc
          else cap :: acc)
        refs []
      |> List.sort (fun a b -> String.compare a.cap_name b.cap_name)
    in
    let site_expr sub e =
      (match e.exp_desc with
      | Texp_apply (f, args) -> (
        match ref_target f with
        | Some fp when List.mem fp spawn_fns ->
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some a when is_arrow a.exp_type ->
                spawns :=
                  {
                    spawn_what = fp;
                    spawn_loc = e.exp_loc;
                    captures = free_vars a;
                  }
                  :: !spawns
              | _ -> ())
            args
        | _ -> ())
      | Texp_record { fields; _ } when is_task_type e.exp_type ->
        Array.iter
          (fun (lbl, rdef) ->
            match rdef with
            | Overridden (_, a) when String.equal lbl.Types.lbl_name "run" ->
              spawns :=
                {
                  spawn_what = "Runner.Sweep.task";
                  spawn_loc = e.exp_loc;
                  captures = free_vars a;
                }
                :: !spawns
            | _ -> ())
          fields
      | _ -> ());
      super.expr sub e
    in
    let it = { super with Tast_iterator.expr = site_expr } in
    it.expr it item_expr
  in
  List.iter (fun (_, _, e) -> scan_item e) (!def_sites @ !inits);

  let to_defs sites =
    List.rev_map
      (fun (key, loc, expr) -> { key; dloc = loc; refs = refs_of_expr expr })
      sites
  in
  {
    modname = raw.r_modname;
    canon;
    src = raw.r_src;
    defs = to_defs !def_sites;
    inits = to_defs !inits;
    aliases = List.rev !mod_aliases;
    exports = raw.r_exports;
    spawns = List.rev !spawns;
    globals = List.rev !globals;
    decls = List.rev !decls;
    canon_of_path;
  }

let load ~units_raw =
  let names = List.map (fun r -> r.r_modname) units_raw in
  List.map (distill ~units:names) units_raw
