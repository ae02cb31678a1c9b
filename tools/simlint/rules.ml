(* The rule catalogue and the Parsetree walk that applies it.

   Everything here is purely syntactic: we parse each .ml with the
   host compiler's own parser (compiler-libs) and pattern-match on the
   Parsetree, so the checks survive code that does not typecheck (the
   test fixtures never do) and cost nothing at build time.

   Name resolution is approximated path-aware, not substring-grep:
   [Domain] in a file that aliases or opens the VM-domain module
   (lib/xenvmm siblings, `module Domain = Xenvmm.Domain`, `open
   Xenvmm`) is the simulated Xen domain, not Stdlib.Domain, and is
   never flagged there unless written [Stdlib.Domain.*] explicitly. *)

open Parsetree

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, like the compiler's own diagnostics *)
  rule : string;
  message : string;
}

let catalogue =
  [
    ("D001", "wall-clock read outside lib/runner/ and bench/");
    ("D002", "ambient randomness; draw through Simkit.Rng instead");
    ("D003", "order-sensitive Hashtbl traversal escapes unsorted");
    ("D004", "raw Domain primitive outside the sanctioned runner modules");
    ("D005", "unsafe cast or closure-admitting Marshal flags");
    ("D006", "direct stdout printing inside lib/; use Report/Trace");
    ("D007", "exception-swallowing wildcard handler");
    ("D008", "failwith/Failure raise inside lib/; report a typed Simkit.Fault");
    (* D009-D012 are produced by the typedtree (cmt) pass; they live in
       the same catalogue so inline suppressions validate uniformly. *)
    ("D009", "function transitively reaches wall-clock or ambient RNG");
    ("D010", "closure crossing a domain boundary captures mutable state");
    ("D011", "toplevel mutable global in lib/");
    ("D012", "exported lib/ value that no production root reaches");
  ]

let known_rule id = List.mem_assoc id catalogue

(* D000 is the checker's own "malformed suppression" diagnostic; it is
   deliberately not suppressible, hence not in the catalogue. *)
let rule_title id =
  if String.equal id "D000" then "malformed simlint suppression comment"
  else Option.value (List.assoc_opt id catalogue) ~default:id

(* --- small helpers ------------------------------------------------------ *)

let flatten lid = Longident.flatten lid
let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let mk ~file ~loc rule message =
  let p = loc.Location.loc_start in
  { file; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; message }

let rec unparen e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> unparen e
  | _ -> e

(* The function position of a (possibly partial) application:
   [List.sort cmp] and [List.sort] both resolve to List.sort. *)
let rec head_path e =
  match (unparen e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (flatten txt))
  | Pexp_apply (f, _) -> head_path f
  | _ -> None

let sort_family =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
  ]

let is_sorting e =
  match head_path e with Some p -> List.mem p sort_family | None -> false

(* --- D003: is a fold combiner order-insensitive? ------------------------ *)

(* [fun k v acc -> body]: the accumulator is the last parameter. *)
let rec split_fun params e =
  match (unparen e).pexp_desc with
  | Pexp_fun (_, _, pat, body) -> split_fun (pat :: params) body
  | Pexp_newtype (_, body) -> split_fun params body
  | _ -> (params, e)

let commutative_ops =
  [ "+"; "+."; "*"; "*."; "land"; "lor"; "lxor"; "max"; "min"; "&&"; "||" ]

(* The module-qualified spellings of min/max are just as commutative
   and associative as the bare operators. *)
let commutative_qualified =
  [
    [ "Float"; "min" ];
    [ "Float"; "max" ];
    [ "Int"; "min" ];
    [ "Int"; "max" ];
  ]

(* True when every path through the body either returns the accumulator
   unchanged or combines it with a commutative, associative operator —
   sums, counts, maxima — so the traversal order cannot be observed.
   Conses, appends, first/last-match selection are all order-sensitive
   and fall through to [false]. *)
let order_insensitive ~acc body =
  let rec ok e =
    match (unparen e).pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } -> v = acc
    | Pexp_ifthenelse (_, a, Some b) -> ok a && ok b
    | Pexp_match (_, cases) -> List.for_all (fun c -> ok c.pc_rhs) cases
    | Pexp_let (_, _, body) -> ok body
    | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
      match head_path f with
      | Some [ op ] when List.mem op commutative_ops -> ok a || ok b
      | Some p when List.mem p commutative_qualified -> ok a || ok b
      | _ -> false)
    | _ -> false
  in
  ok body

(* --- D004: Domain shadowing -------------------------------------------- *)

let shadows_domain ~path structure =
  Allow.contains ~sub:"lib/xenvmm/" (Allow.normalize path)
  || List.exists
       (fun item ->
         match item.pstr_desc with
         | Pstr_module { pmb_name = { txt = Some "Domain"; _ }; _ } -> true
         | Pstr_open
             { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } -> (
           match flatten txt with
           | [ "Xenvmm" ] | [ "Rejuv" ] -> true
           | _ -> false)
         | _ -> false)
       structure

let domain_primitives = [ "spawn"; "join" ]

(* --- D005: Marshal flag literals ---------------------------------------- *)

let rec list_literal e =
  match (unparen e).pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ( { txt = Longident.Lident "::"; _ },
        Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) ->
    Option.map (fun rest -> hd :: rest) (list_literal tl)
  | _ -> None

let is_closures_flag e =
  match (unparen e).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    match List.rev (flatten txt) with "Closures" :: _ -> true | _ -> false)
  | _ -> false

let marshal_writers = [ "to_string"; "to_bytes"; "to_channel"; "to_buffer" ]

(* --- D006 --------------------------------------------------------------- *)

let print_idents =
  [
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_char" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "Printf"; "printf" ];
    [ "Format"; "printf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_newline" ];
  ]

let in_lib path = Allow.under_prefix ~prefix:"lib/" path

(* --- the walk ----------------------------------------------------------- *)

let check ~path structure =
  let file = path in
  let findings = ref [] in
  let emit ~loc rule message = findings := mk ~file ~loc rule message :: !findings in
  let shadowed = shadows_domain ~path structure in
  (* > 0 while visiting the arguments of a List.sort-family call, i.e.
     where a Hashtbl fold's order is about to be normalized away. *)
  let sorted_depth = ref 0 in
  let in_sorted f =
    incr sorted_depth;
    Fun.protect ~finally:(fun () -> decr sorted_depth) f
  in

  let check_ident ~loc raw =
    let p = strip_stdlib raw in
    (match p with
    | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      emit ~loc "D001"
        (Printf.sprintf
           "wall-clock read (%s): simulation code must use the engine \
            clock; real time is allowed only in lib/runner/ and bench/"
           (String.concat "." p))
    | "Random" :: _ ->
      emit ~loc "D002"
        (Printf.sprintf
           "ambient randomness (%s): all stochastic draws must flow \
            through Simkit.Rng so runs replay bit-exactly from a seed"
           (String.concat "." p))
    | [ "Obj"; "magic" ] ->
      emit ~loc "D005" "Obj.magic defeats the type system"
    | "Domain" :: rest
      when (match rest with
           | prim :: _ when List.mem prim domain_primitives -> true
           | "DLS" :: _ -> true
           | _ -> false)
           (* Path-aware: in files where [Domain] is the VM-domain
              module, only an explicit Stdlib.Domain counts. *)
           && ((not shadowed) || List.hd raw = "Stdlib") ->
      emit ~loc "D004"
        (Printf.sprintf
           "%s: raw domains break run isolation; only lib/runner/ and \
            the engine's DLS counters may use them"
           (String.concat "." p))
    | _ -> ());
    if in_lib path && List.mem p print_idents then
      emit ~loc "D006"
        (Printf.sprintf
           "direct stdout output (%s) in lib/: route output through \
            Report or Trace"
           (String.concat "." p));
    if in_lib path && p = [ "failwith" ] then
      emit ~loc "D008"
        "failwith aborts the simulation with an untyped Failure; return \
         an [Error] carrying a Simkit.Fault.t (or Simkit.Fault.fail) so \
         recovery policies can handle it"
  in

  let is_failure_exn e =
    match (unparen e).pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
      match strip_stdlib (flatten txt) with
      | [ "Failure" ] -> true
      | _ -> false)
    | _ -> false
  in

  let check_apply ~loc fpath args =
    (match (fpath, args) with
    | [ "Hashtbl"; "iter" ], _ when !sorted_depth = 0 ->
      emit ~loc "D003"
        "Hashtbl.iter visits entries in hash order; iterate over sorted \
         keys or suppress with a reason if the effect provably commutes"
    | [ "Hashtbl"; "fold" ], (_, combiner) :: _ when !sorted_depth = 0 ->
      let flagged =
        match split_fun [] combiner with
        | acc_pat :: _, body -> (
          match acc_pat.ppat_desc with
          | Ppat_var { txt = acc; _ } -> not (order_insensitive ~acc body)
          | _ -> true)
        | [], _ -> true (* not a literal fun: cannot analyze *)
      in
      if flagged then
        emit ~loc "D003"
          "Hashtbl.fold result depends on hash order; sort it (|> \
           List.sort ...), accumulate commutatively, or suppress with a \
           reason"
    | "Marshal" :: [ writer ], _ when List.mem writer marshal_writers -> (
      match List.rev args with
      | (_, flags) :: _ -> (
        match list_literal flags with
        | Some l when List.exists is_closures_flag l ->
          emit ~loc "D005"
            "Marshal.Closures admits closures into serialized state; \
             marshalled results must be closed data"
        | Some _ -> ()
        | None ->
          emit ~loc "D005"
            "Marshal flags are not a literal list; cannot verify \
             Closures is absent")
      | [] -> ())
    | [ ("raise" | "raise_notrace") ], [ (_, arg) ]
      when in_lib path && is_failure_exn arg ->
      emit ~loc "D008"
        "raising Failure aborts the simulation with an untyped \
         exception; return an [Error] carrying a Simkit.Fault.t (or \
         Simkit.Fault.fail) so recovery policies can handle it"
    | _ -> ())
  in

  let super = Ast_iterator.default_iterator in
  let expr iter e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ~loc:e.pexp_loc (flatten txt)
    | Pexp_apply (f, args) -> (
      match (unparen f).pexp_desc with
      | Pexp_ident { txt; _ } ->
        check_apply ~loc:e.pexp_loc (strip_stdlib (flatten txt)) args
      | _ -> ())
    | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          match (c.pc_lhs.ppat_desc, c.pc_guard) with
          | Ppat_any, None ->
            emit ~loc:c.pc_lhs.ppat_loc "D007"
              "`with _ ->` swallows every exception, including the \
               engine's own invariant failures; match the exceptions you \
               mean to handle"
          | _ -> ())
        cases
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply (f, args) when is_sorting f ->
      iter.Ast_iterator.expr iter f;
      in_sorted (fun () ->
          List.iter (fun (_, a) -> iter.Ast_iterator.expr iter a) args)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "|>"; _ }; _ },
          [ (_, lhs); (_, rhs) ] )
      when is_sorting rhs ->
      in_sorted (fun () -> iter.Ast_iterator.expr iter lhs);
      iter.Ast_iterator.expr iter rhs
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "@@"; _ }; _ },
          [ (_, lhs); (_, rhs) ] )
      when is_sorting lhs ->
      iter.Ast_iterator.expr iter lhs;
      in_sorted (fun () -> iter.Ast_iterator.expr iter rhs)
    | _ -> super.Ast_iterator.expr iter e
  in
  let iterator = { super with Ast_iterator.expr } in
  iterator.Ast_iterator.structure iterator structure;
  List.rev !findings
