(* Driver for the deep (typedtree) pass: discover .cmt files under the
   dune build directory, distill them (Callgraph), run the
   interprocedural analyses (Taint for D009, Races for D010/D011, Reach
   for D012), then subtract inline suppressions and allow.ml entries exactly like
   the Parsetree pass does.

   The pass runs from the `@lint-deep` alias, whose rule depends on
   `(alias_rec check)` so every cmt exists before we look, and executes
   with the build directory as cwd — sources are copied there, so
   suppression comments are read from the same tree the cmts were
   compiled from. The test suite instead feeds fixture cmts directly
   with an [as_path] override, the same trick [Lint.lint_file] uses. *)

type deep_finding = { df : Rules.finding; chain : Taint.chain_step list }

type unit_input = {
  cmt_path : string;
  as_path : string option;  (** analyze as if the source lived here *)
  source_path : string option;  (** real file to read suppressions from *)
}

(* --- discovery ----------------------------------------------------------- *)

let rec collect_cmts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc f -> collect_cmts acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let discover ~build = List.rev (collect_cmts [] build)

(* --- analysis ------------------------------------------------------------ *)

let under_any ~prefixes src =
  List.exists
    (fun p ->
      let p = Allow.normalize p in
      let p =
        if String.length p > 0 && p.[String.length p - 1] = '/' then p
        else p ^ "/"
      in
      String.starts_with ~prefix:p src)
    prefixes

(* Read cmts, dropping interface-only/partial ones and duplicate
   compilations of the same module (dune can leave byte and native
   objs dirs). Executables all mangle their modules under [Dune__exe],
   so a module is identified by its name and its source together.
   [pairs] carry the real path suppressions are read from. *)
let read_pairs inputs =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun i ->
      match Callgraph.read ?as_path:i.as_path i.cmt_path with
      | Some raw
        when not (Hashtbl.mem seen (raw.Callgraph.r_modname, raw.r_src)) ->
        Hashtbl.add seen (raw.Callgraph.r_modname, raw.r_src) ();
        Some (raw, Option.value i.source_path ~default:raw.Callgraph.r_src)
      | _ -> None)
    inputs

(* A stale keep is reported at the allow.ml line that names it when
   allow.ml is among the analyzed sources (a build scan), else at line 1. *)
let allow_ml = "tools/simlint/allow.ml"

let stale_keep_finding ~sources (k : Allow.keep) =
  let needle = Printf.sprintf "%S" k.value in
  let line =
    match List.assoc_opt allow_ml sources with
    | Some real when Sys.file_exists real ->
      let rec find n = function
        | [] -> 1
        | l :: rest ->
          if Allow.contains ~sub:needle l then n else find (n + 1) rest
      in
      find 1 (String.split_on_char '\n' (Lint.read_file real))
    | _ -> 1
  in
  {
    Rules.file = allow_ml;
    line;
    col = 0;
    rule = "D012";
    message =
      Printf.sprintf
        "allow.ml keeps %s, but no analyzed lib/ interface exports it: \
         delete the keep"
        k.value;
  }

(* D009-D011 run on the units [in_scope] accepts; D012 walks every
   unit given (its roots live outside lib/), reports the exports of
   the units in scope that neither a root reaches nor [keeps] names,
   and reports each keep that names no lib/ export. *)
let analyze_pairs ?(in_scope = fun _ -> true) ~keeps pairs =
  let sources = List.map (fun (r, sp) -> (r.Callgraph.r_src, sp)) pairs in
  let all_units = Callgraph.load ~units_raw:(List.map fst pairs) in
  let units =
    List.filter (fun (u : Callgraph.unit_info) -> in_scope u.src) all_units
  in
  (* Inline suppressions, read lazily per logical source file from the
     real file that was compiled. *)
  let supp_cache : (string, Lint.suppression list) Hashtbl.t =
    Hashtbl.create 16
  in
  let suppressions_of file =
    match Hashtbl.find_opt supp_cache file with
    | Some s -> s
    | None ->
      let s =
        match List.assoc_opt file sources with
        | Some real when Sys.file_exists real ->
          fst (Lint.scan_suppressions ~file (Lint.read_file real))
        | _ -> []
      in
      Hashtbl.add supp_cache file s;
      s
  in
  let suppressed ~file ~line ~rule =
    List.exists
      (fun (s : Lint.suppression) -> s.on_line = line && s.srule = rule)
      (suppressions_of file)
  in
  let d009 =
    Taint.analyze ~units ~suppressed
    |> List.map (fun (t : Taint.finding) -> { df = t.f; chain = t.chain })
  in
  let d010_11 =
    Races.analyze ~units
    |> List.filter (fun (f : Rules.finding) ->
           (not (suppressed ~file:f.file ~line:f.line ~rule:f.rule))
           && not (Allow.allowed ~rule:f.rule ~path:f.file))
    |> List.map (fun f -> { df = f; chain = [] })
  in
  let d012 =
    Reach.analyze ~units:all_units ~report:(fun u -> in_scope u.src) ~keeps
    @ List.map (stale_keep_finding ~sources)
        (Reach.stale_keeps ~units:all_units keeps)
    |> List.map (fun f -> { df = f; chain = [] })
  in
  List.sort
    (fun a b ->
      compare
        (a.df.file, a.df.line, a.df.col, a.df.rule, a.df.message)
        (b.df.file, b.df.line, b.df.col, b.df.rule, b.df.message))
    (d009 @ d010_11 @ d012)

(* Fixture analyses: D012 applies only the keeps given. *)
let analyze_units ?(keeps = []) inputs =
  analyze_pairs ~keeps (read_pairs inputs)

(* Whole-build scan: every cmt is read, but only units whose source
   sits under one of the requested prefixes are checked, so fixture
   libraries under test/ and executables under bin/ never pollute a
   lib/ scan. The rest of lib/ and the production roots are loaded too,
   for D012's reachability; test/ units are not. *)
let analyze_build ~build ~prefixes =
  let inputs =
    discover ~build
    |> List.map (fun c -> { cmt_path = c; as_path = None; source_path = None })
  in
  let in_scope = under_any ~prefixes in
  let pairs =
    read_pairs inputs
    |> List.filter (fun (r, _) ->
           let src = r.Callgraph.r_src in
           in_scope src
           || Allow.under_prefix ~prefix:"lib/" src
           || Reach.is_root src)
    (* Sources are copied into the build tree next to the cmts;
       resolve them relative to it so suppressions are found no matter
       where the process itself is running. *)
    |> List.map (fun (r, _) -> (r, Filename.concat build r.Callgraph.r_src))
  in
  analyze_pairs ~in_scope ~keeps:Allow.keeps pairs

(* --- rendering ----------------------------------------------------------- *)

let pp_chain chain =
  List.mapi
    (fun i (s : Taint.chain_step) ->
      Printf.sprintf "    %s %s (%s:%d)"
        (if i = 0 then "why:" else "  ->")
        s.s_what s.s_file s.s_line)
    chain

let pp_deep ~why f =
  let head = Lint.pp_finding f.df in
  if why && f.chain <> [] then String.concat "\n" (head :: pp_chain f.chain)
  else head

let to_jsonx f =
  let base =
    match Lint.finding_to_jsonx f.df with
    | Simkit.Jsonx.Obj fields -> fields
    | j -> [ ("finding", j) ]
  in
  Simkit.Jsonx.Obj
    (base
    @
    if f.chain = [] then []
    else
      [
        ( "chain",
          Simkit.Jsonx.Arr
            (List.map
               (fun (s : Taint.chain_step) ->
                 Simkit.Jsonx.(
                   Obj
                     [
                       ("what", Str s.s_what);
                       ("file", Str s.s_file);
                       ("line", Int s.s_line);
                     ]))
               f.chain) );
      ])

let to_json findings =
  Simkit.Jsonx.(
    to_string
      (Obj
         [
           ("count", Int (List.length findings));
           ("findings", Arr (List.map to_jsonx findings));
         ]))

let to_sarif findings = Sarif.to_string (List.map (fun f -> f.df) findings)
