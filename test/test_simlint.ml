(* The simlint static checker: every rule fires on its known-bad
   fixture at the right location, clean code and well-formed
   suppressions pass, malformed suppressions are themselves findings,
   the repository lints clean, and the dynamic property the rules
   exist to protect holds — same seed, byte-identical results. *)
open Helpers
module Lint = Simlint.Lint
module Spec = Rejuv.Experiment.Spec

let fixture name = Filename.concat "lint_fixtures" name

(* (rule, line, col) triples, order-normalized. *)
let summarize findings =
  List.map (fun (f : Lint.finding) -> (f.rule, f.line, f.col)) findings

let check_findings msg expected actual =
  Alcotest.(check (list (triple string int int))) msg expected
    (summarize actual)

let test_d001 () =
  check_findings "wall-clock flagged"
    [ ("D001", 2, 22); ("D001", 3, 20) ]
    (Lint.lint_file (fixture "d001_wall_clock.ml"))

let test_d001_allowlisted_dir () =
  (* The same file linted as if under lib/runner/ is allowlisted. *)
  check_findings "lib/runner may read the clock" []
    (Lint.lint_file ~as_path:"lib/runner/fixture.ml"
       (fixture "d001_wall_clock.ml"))

let test_d002 () =
  check_findings "ambient randomness flagged"
    [ ("D002", 2, 22); ("D002", 3, 16) ]
    (Lint.lint_file (fixture "d002_random.ml"))

let test_d003_commutative () =
  (* min/max in every spelling is accepted; only the non-commutative
     combiner on the last line fires. *)
  check_findings "qualified min/max accepted"
    [ ("D003", 11, 22) ]
    (Lint.lint_file (fixture "d003_commutative.ml"))

let test_d003 () =
  (* Only the escaping fold and the iter fire; the sorted-keys idiom
     and the commutative count in the same file stay clean. *)
  check_findings "hash-order traversals flagged"
    [ ("D003", 2, 15); ("D003", 3, 15) ]
    (Lint.lint_file (fixture "d003_hashtbl.ml"))

let test_d004 () =
  check_findings "raw Domain primitives flagged"
    [ ("D004", 2, 13); ("D004", 3, 15); ("D004", 4, 14) ]
    (Lint.lint_file (fixture "d004_domain.ml"))

let test_d004_path_aware () =
  (* With [module Domain = Xenvmm.Domain] in scope, bare Domain.* is
     the VM-domain module: only the explicit Stdlib.Domain fires. *)
  check_findings "shadowed Domain not flagged"
    [ ("D004", 7, 18) ]
    (Lint.lint_file (fixture "d004_shadowed.ml"))

let test_d005 () =
  check_findings "Obj.magic and Marshal.Closures flagged"
    [ ("D005", 2, 13); ("D005", 3, 16) ]
    (Lint.lint_file (fixture "d005_unsafe.ml"))

let test_d006 () =
  check_findings "stdout printing flagged under lib/"
    [ ("D006", 2, 15); ("D006", 3, 14) ]
    (Lint.lint_file ~as_path:"lib/guest/fixture.ml" (fixture "d006_print.ml"));
  (* The rule is scoped to lib/: the same file elsewhere is fine. *)
  check_findings "printing outside lib/ not flagged" []
    (Lint.lint_file (fixture "d006_print.ml"))

let test_d007 () =
  check_findings "wildcard handler flagged"
    [ ("D007", 2, 30) ]
    (Lint.lint_file (fixture "d007_swallow.ml"))

let test_d008 () =
  (* Both the failwith and the explicit Failure raise fire (the
     suppressed one on line 4 does not); the rule is scoped to lib/. *)
  check_findings "untyped aborts flagged under lib/"
    [ ("D008", 2, 14); ("D008", 3, 14) ]
    (Lint.lint_file ~as_path:"lib/guest/fixture.ml"
       (fixture "d008_failwith.ml"));
  check_findings "failwith outside lib/ not flagged" []
    (Lint.lint_file (fixture "d008_failwith.ml"))

let test_clean () =
  check_findings "clean file passes" [] (Lint.lint_file (fixture "clean.ml"))

let test_suppression () =
  check_findings "well-formed suppression waives the finding" []
    (Lint.lint_file (fixture "suppressed.ml"))

let test_bad_suppression () =
  (* A malformed suppression is a D000 finding AND does not waive the
     violation it sits on. *)
  check_findings "malformed suppressions are findings"
    [ ("D003", 2, 12); ("D000", 2, 34); ("D003", 3, 12); ("D000", 3, 34) ]
    (Lint.lint_file (fixture "bad_suppression.ml"))

(* --- the deep (typedtree) pass ------------------------------------------- *)

module Typed = Simlint.Typed_lint

(* The lintdeep fixture library is linked into this test executable, so
   its cmts exist under the build tree by the time we run; tests execute
   with cwd = _build/default/test, making these paths relative. [dir]
   is where the unit is analyzed as living. *)
let deep_input ?(dir = "lib/lintdeep") name =
  {
    Typed.cmt_path =
      Filename.concat "lint_fixtures/deep/.lintdeep.objs/byte"
        ("lintdeep__" ^ String.capitalize_ascii name ^ ".cmt");
    as_path = Some (Printf.sprintf "%s/%s.ml" dir name);
    source_path = Some (fixture (Filename.concat "deep" (name ^ ".ml")));
  }

let deep_analyze names = Typed.analyze_units (List.map deep_input names)

let summarize_deep findings =
  List.map
    (fun (f : Typed.deep_finding) -> (f.df.rule, f.df.line, f.df.col))
    findings

let test_d009_taint_chain () =
  let findings = deep_analyze [ "lfx_clock"; "lfx_mid"; "lfx_sim" ] in
  (* Direct primitive uses in lfx_clock are D001/D002's findings, not
     D009's; the waived-at-source read poisons nobody (wrap_ok and
     healthy stay clean); both wrappers over the raw read, the two-deep
     chain in lfx_sim and lfx_sim's [let () =] item (reported at the
     item) fire. *)
  Alcotest.(check (list (triple string int int)))
    "indirect taint flagged at wrapper definitions"
    [ ("D009", 4, 4); ("D009", 8, 4); ("D009", 4, 4); ("D009", 8, 0) ]
    (summarize_deep findings);
  let step =
    List.find
      (fun (f : Typed.deep_finding) -> f.df.file = "lib/lintdeep/lfx_sim.ml")
      findings
  in
  Alcotest.(check (list string))
    "--why chain walks wrapper -> wrapper -> primitive"
    [
      "Lintdeep.Lfx_sim.step";
      "Lintdeep.Lfx_mid.wrap_bad";
      "Lintdeep.Lfx_clock.now_raw";
      "Unix.gettimeofday";
    ]
    (List.map (fun (s : Simlint.Taint.chain_step) -> s.s_what) step.chain);
  check_true "chain is rendered by --why"
    (Simlint.Typed_lint.pp_deep ~why:true step
    |> String.split_on_char '\n' |> List.length = 5)

let test_d010_captures () =
  (* Captured Hashtbl (directly, through a local helper, or in a
     toplevel [let () =] / [let _ =] item) fires; Atomic,
     fresh-alloc-inside-closure and Mutex-guarded cases do not. *)
  Alcotest.(check (list (triple string int int)))
    "only unsynchronized captures flagged"
    [ ("D010", 6, 10); ("D010", 40, 10); ("D010", 46, 14); ("D010", 50, 14) ]
    (summarize_deep (deep_analyze [ "lfx_races" ]))

let test_d011_globals () =
  (* Hashtbl, ref, DLS key and Atomic globals fire; immutable values
     and functions do not. *)
  Alcotest.(check (list (triple string int int)))
    "mutable toplevel globals flagged"
    [ ("D011", 4, 4); ("D011", 6, 4); ("D011", 8, 4); ("D011", 10, 4) ]
    (summarize_deep (deep_analyze [ "lfx_globals" ]))

let test_d012_reachability () =
  (* Lfx_main is analyzed as a bin/ root and Lfx_test as a test. The
     root reaches [direct] by name, [Inner.via_alias] only through
     Lfx_alias's [module Api = Lfx_api.Inner], [Inner.via_let_module]
     through a [let module], and [from_init] only from its [let () =]
     item; [from_lib_init] is reached from Lfx_api's own [let () =].
     [pp] is a pretty-printer. Only the export a test alone uses and
     the one nothing uses are flagged, at their .mli lines. *)
  let findings =
    Typed.analyze_units
      [
        deep_input "lfx_api";
        deep_input "lfx_alias";
        deep_input ~dir:"bin" "lfx_main";
        deep_input ~dir:"test" "lfx_test";
      ]
  in
  Alcotest.(check (list (triple string int int)))
    "test-only and unused exports flagged"
    [ ("D012", 21, 0); ("D012", 24, 0) ]
    (summarize_deep findings);
  check_true "reported against the interface"
    (List.for_all
       (fun (f : Typed.deep_finding) -> f.df.file = "lib/lintdeep/lfx_api.mli")
       findings)

let test_d012_stale_keep () =
  (* A keep silences the export it names. A keep that names a value no
     analyzed lib/ interface exports (deleted or renamed since) is
     itself a finding, so allow.ml cannot outlive the code it keeps. *)
  let keep value =
    { Simlint.Allow.value; kind = Simlint.Allow.Test_observer; why = "fixture" }
  in
  let findings =
    Typed.analyze_units
      ~keeps:
        [ keep "Lintdeep.Lfx_api.test_only"; keep "Lintdeep.Lfx_api.deleted" ]
      [
        deep_input "lfx_api";
        deep_input "lfx_alias";
        deep_input ~dir:"bin" "lfx_main";
        deep_input ~dir:"test" "lfx_test";
      ]
  in
  Alcotest.(check (list (pair string int)))
    "kept export silent; unused export and stale keep flagged"
    [ ("lib/lintdeep/lfx_api.mli", 24); ("tools/simlint/allow.ml", 1) ]
    (List.map
       (fun (f : Typed.deep_finding) -> (f.df.file, f.df.line))
       findings);
  check_true "the stale keep is named"
    (List.exists
       (fun (f : Typed.deep_finding) ->
         Simlint.Allow.contains ~sub:"Lintdeep.Lfx_api.deleted" f.df.message)
       findings)

let test_sarif_output () =
  let findings = deep_analyze [ "lfx_globals" ] in
  let sarif = Typed.to_sarif findings in
  List.iter
    (fun frag ->
      check_true (Printf.sprintf "sarif contains %s" frag)
        (Simlint.Allow.contains ~sub:frag sarif))
    [
      "\"version\":\"2.1.0\"";
      "\"ruleId\":\"D011\"";
      "\"uri\":\"lib/lintdeep/lfx_globals.ml\"";
      "\"startLine\":4";
      "toplevel mutable global in lib/";
    ]

let test_json_titles () =
  let json = Lint.to_json (Lint.lint_file (fixture "d001_wall_clock.ml")) in
  check_true "json findings carry rule titles"
    (Simlint.Allow.contains
       ~sub:"\"title\":\"wall-clock read outside lib/runner/ and bench/\""
       json)

(* --- the repository itself ---------------------------------------------- *)

(* Tests run under _build/default/test; the checked-out tree is
   everything above the _build component. *)
let repo_root () =
  let rec strip acc = function
    | [] -> None
    | "_build" :: _ -> Some (String.concat Filename.dir_sep (List.rev acc))
    | part :: rest -> strip (part :: acc) rest
  in
  strip [] (String.split_on_char '/' (Sys.getcwd ()))

let test_repo_lints_clean () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
    let dirs =
      List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "test" ]
    in
    let findings = Lint.lint_paths (List.filter Sys.file_exists dirs) in
    if findings <> [] then
      Alcotest.failf "repo has %d lint finding(s), first: %s"
        (List.length findings)
        (Lint.pp_finding (List.hd findings))

let test_repo_deep_lints_clean () =
  (* The audited tree under the interprocedural rules: lib/ carries no
     unwaived D009-D012 finding and allow.ml no stale keep — the same
     gate `dune build @lint-deep` applies in CI. *)
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
    let build = Filename.concat root (Filename.concat "_build" "default") in
    if not (Sys.file_exists build) then Alcotest.skip ()
    else
      let findings = Typed.analyze_build ~build ~prefixes:[ "lib" ] in
      if findings <> [] then
        Alcotest.failf "repo has %d deep lint finding(s), first: %s"
          (List.length findings)
          (Typed.pp_deep ~why:true (List.hd findings))

(* --- dynamic counterparts of the static rules ---------------------------- *)

let test_registry_listing_stable () =
  let ids = Spec.ids () in
  check_true "registry listing is sorted"
    (List.sort String.compare ids = ids);
  check_true "registry has experiments" (List.length ids >= 10)

let test_same_seed_byte_identical () =
  (* The property D001-D004 exist to protect: re-running a registered
     experiment with the same seed must reproduce the result down to
     the last byte of its JSON rendering. *)
  let params = { Spec.default_params with seed = 1234 } in
  let j1 = experiment_json ~params "fig4" in
  let j2 = experiment_json ~params "fig4" in
  check_true "json non-trivial" (String.length j1 > 2);
  check_true "same seed, byte-identical JSON" (String.equal j1 j2)

let suite =
  ( "simlint",
    [
      Alcotest.test_case "D001 wall clock" `Quick test_d001;
      Alcotest.test_case "D001 allowlisted dir" `Quick test_d001_allowlisted_dir;
      Alcotest.test_case "D002 ambient randomness" `Quick test_d002;
      Alcotest.test_case "D003 hash-order traversal" `Quick test_d003;
      Alcotest.test_case "D003 commutative min/max" `Quick test_d003_commutative;
      Alcotest.test_case "D004 raw domains" `Quick test_d004;
      Alcotest.test_case "D004 path-aware shadowing" `Quick test_d004_path_aware;
      Alcotest.test_case "D005 unsafe casts" `Quick test_d005;
      Alcotest.test_case "D006 stdout in lib" `Quick test_d006;
      Alcotest.test_case "D007 swallowed exceptions" `Quick test_d007;
      Alcotest.test_case "D008 untyped aborts in lib" `Quick test_d008;
      Alcotest.test_case "clean fixture passes" `Quick test_clean;
      Alcotest.test_case "suppression honored" `Quick test_suppression;
      Alcotest.test_case "bad suppression reported" `Quick test_bad_suppression;
      Alcotest.test_case "D009 taint through wrapper chain" `Quick
        test_d009_taint_chain;
      Alcotest.test_case "D010 domain-boundary captures" `Quick
        test_d010_captures;
      Alcotest.test_case "D011 toplevel mutable globals" `Quick
        test_d011_globals;
      Alcotest.test_case "D012 library code without a production caller"
        `Quick test_d012_reachability;
      Alcotest.test_case "D012 stale allow.ml keep" `Quick test_d012_stale_keep;
      Alcotest.test_case "SARIF output" `Quick test_sarif_output;
      Alcotest.test_case "JSON carries rule titles" `Quick test_json_titles;
      Alcotest.test_case "repo lints clean" `Quick test_repo_lints_clean;
      Alcotest.test_case "repo deep-lints clean" `Quick
        test_repo_deep_lints_clean;
      Alcotest.test_case "registry listing stable" `Quick
        test_registry_listing_stable;
      Alcotest.test_case "same seed -> byte-identical result" `Quick
        test_same_seed_byte_identical;
    ] )
