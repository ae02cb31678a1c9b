(* D012: library code without a production caller.

   The roots are everything the shipped programs run: every item of
   every unit under bin/, bench/, examples/, perfbench/ and tools/, and
   the anonymous module-initialization items of lib/ units (a registry
   built by [let () = ...] runs whenever the library is linked). Tests
   are never roots. From the roots the rule follows Callgraph's
   definition -> reference edges, with module aliases resolved, and
   reports every [val] of a lib/ interface that no root reaches, at its
   .mli line.

   Aliases: a reference is canonicalized by the unit that makes it, so
   a local [module H = Metric.Histogram] (toplevel or [let module]) is
   already resolved there. An alias another unit defines ([module Api =
   Lfx_api.Inner] in Lfx_alias, used as [Lfx_alias.Api.f]) is not:
   [resolve] rewrites the longest aliased prefix of a name until none
   is left (a bounded number of times, in case aliases form a cycle).

   A finding survives only with a reason: pretty-printers ([pp],
   [pp_*]) by name, everything else through an allow.ml keep whose
   kind says why a value with no production caller stays. A keep that
   names a value no analyzed lib/ interface exports is stale
   ([stale_keeps]): the value was deleted or renamed, and the keep
   must follow. *)

let root_prefixes = [ "bin/"; "bench/"; "examples/"; "perfbench/"; "tools/" ]

let is_root src =
  List.exists (fun prefix -> Allow.under_prefix ~prefix src) root_prefixes

let is_pretty_printer key =
  let name =
    match String.rindex_opt key '.' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  name = "pp" || String.starts_with ~prefix:"pp_" name

let resolver (units : Callgraph.unit_info list) =
  let aliases = Hashtbl.create 64 in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      List.iter
        (fun (a, t) -> if a <> t then Hashtbl.replace aliases a t)
        u.aliases)
    units;
  let rec resolve fuel name =
    let parts = String.split_on_char '.' name in
    let rec longest k =
      if k = 0 then None
      else
        let prefix = String.concat "." (List.filteri (fun i _ -> i < k) parts) in
        match Hashtbl.find_opt aliases prefix with
        | Some target ->
          let rest = List.filteri (fun i _ -> i >= k) parts in
          Some (String.concat "." (target :: rest))
        | None -> longest (k - 1)
    in
    match longest (List.length parts - 1) with
    | Some name' when fuel > 0 -> resolve (fuel - 1) name'
    | _ -> name
  in
  resolve 16

let analyze ~(units : Callgraph.unit_info list) ~report
    ~(keeps : Allow.keep list) =
  let kept key =
    List.exists (fun (k : Allow.keep) -> String.equal k.value key) keeps
  in
  let resolve = resolver units in
  let defs = Hashtbl.create 512 in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      List.iter
        (fun (d : Callgraph.def) ->
          if not (Hashtbl.mem defs d.key) then Hashtbl.add defs d.key d.refs)
        u.defs)
    units;
  let reached = Hashtbl.create 512 in
  let queue = Queue.create () in
  let visit (r : Callgraph.ref_site) =
    let key = resolve r.target in
    if not (Hashtbl.mem reached key) then begin
      Hashtbl.add reached key ();
      Queue.add key queue
    end
  in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      let roots =
        if is_root u.src then u.defs @ u.inits
        else if Allow.under_prefix ~prefix:"lib/" u.src then u.inits
        else []
      in
      List.iter (fun (d : Callgraph.def) -> List.iter visit d.refs) roots)
    units;
  while not (Queue.is_empty queue) do
    match Hashtbl.find_opt defs (Queue.pop queue) with
    | Some refs -> List.iter visit refs
    | None -> ()
  done;
  List.concat_map
    (fun (u : Callgraph.unit_info) ->
      if not (report u && Allow.under_prefix ~prefix:"lib/" u.src) then []
      else
        let mli = Filename.remove_extension u.src ^ ".mli" in
        List.filter_map
          (fun (e : Callgraph.export) ->
            if Hashtbl.mem reached (resolve e.e_key)
               || is_pretty_printer e.e_key
               || kept e.e_key
            then None
            else
              let p = e.e_loc.loc_start in
              Some
                {
                  Rules.file = mli;
                  line = p.pos_lnum;
                  col = p.pos_cnum - p.pos_bol;
                  rule = "D012";
                  message =
                    Printf.sprintf
                      "%s is exported but nothing under %s reaches it: \
                       delete it with what only it keeps alive, or keep \
                       it in allow.ml as a test observer, paper reference \
                       or ROADMAP hook"
                      e.e_key
                      (String.concat ", " root_prefixes);
                })
          u.exports)
    units

let stale_keeps ~(units : Callgraph.unit_info list) (keeps : Allow.keep list)
    =
  let exported = Hashtbl.create 512 in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      if Allow.under_prefix ~prefix:"lib/" u.src then
        List.iter
          (fun (e : Callgraph.export) -> Hashtbl.replace exported e.e_key ())
          u.exports)
    units;
  List.filter (fun (k : Allow.keep) -> not (Hashtbl.mem exported k.value)) keeps
