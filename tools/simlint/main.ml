(* simlint — determinism & simulation-hygiene checks for the tree.

   Two passes share this entry point:

     simlint [--json|--sarif] [PATH ...]
       the Parsetree pass: parse every .ml under the paths (default
       lib bin bench test) and run the syntactic rules D001-D008.

     simlint --deep [--build DIR] [--why] [--json|--sarif] [PREFIX ...]
       the typedtree pass: read every .cmt under the build directory
       (default _build/default; pass `.` when already running inside
       it, as the @lint-deep rule does), keep units whose source lives
       under one of the prefixes (default lib), and run the
       interprocedural rules D009-D012 (D012 also loads the production
       roots under bin/, bench/, examples/, perfbench/ and tools/).
       --why appends the full call chain to each D009 finding.

   Exit code 0 when clean, 1 with findings, 2 on usage/parse errors.
   The deep pass reports its wall time on stderr either way, so the CI
   step's cost stays visible. *)

let default_paths = [ "lib"; "bin"; "bench"; "test" ]
let default_prefixes = [ "lib" ]

let () =
  let json = ref false
  and sarif = ref false
  and list_rules = ref false
  and deep = ref false
  and why = ref false
  and build = ref "_build/default"
  and paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as JSON");
      ("--sarif", Arg.Set sarif, " emit findings as SARIF 2.1.0");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue");
      ("--deep", Arg.Set deep, " run the typedtree (.cmt) pass instead");
      ("--why", Arg.Set why, " with --deep: print full call chains (D009)");
      ( "--build",
        Arg.Set_string build,
        "DIR with --deep: dune build directory holding the .cmt files \
         (default _build/default)" );
    ]
  in
  let usage =
    "simlint [--json|--sarif] [--list-rules] [PATH ...]\n\
     simlint --deep [--build DIR] [--why] [--json|--sarif] [PREFIX ...]"
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (id, title) -> Printf.printf "%s %s\n" id title)
      Simlint.Rules.catalogue;
    exit 0
  end;
  if !json && !sarif then begin
    Printf.eprintf "simlint: --json and --sarif are mutually exclusive\n";
    exit 2
  end;
  if !deep then begin
    let prefixes =
      match List.rev !paths with [] -> default_prefixes | ps -> ps
    in
    if not (Sys.file_exists !build && Sys.is_directory !build) then begin
      Printf.eprintf "simlint: no such build directory: %s\n" !build;
      exit 2
    end;
    let t0 = Unix.gettimeofday () in
    let findings = Simlint.Typed_lint.analyze_build ~build:!build ~prefixes in
    let dt = Unix.gettimeofday () -. t0 in
    (if !json then print_string (Simlint.Typed_lint.to_json findings)
     else if !sarif then print_string (Simlint.Typed_lint.to_sarif findings)
     else
       List.iter
         (fun f -> print_endline (Simlint.Typed_lint.pp_deep ~why:!why f))
         findings);
    Printf.eprintf "simlint --deep: %d finding(s) in %.2fs\n"
      (List.length findings) dt;
    exit (if findings = [] then 0 else 1)
  end;
  let paths = match List.rev !paths with [] -> default_paths | ps -> ps in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  if missing <> [] then begin
    Printf.eprintf "simlint: no such path: %s\n" (String.concat ", " missing);
    exit 2
  end;
  match Simlint.Lint.lint_paths paths with
  | exception Simlint.Lint.Parse_error msg ->
    Printf.eprintf "simlint: %s\n" msg;
    exit 2
  | [] ->
    if !json then print_string (Simlint.Lint.to_json [])
    else if !sarif then print_string (Simlint.Sarif.to_string []);
    exit 0
  | findings ->
    if !json then print_string (Simlint.Lint.to_json findings)
    else if !sarif then print_string (Simlint.Sarif.to_string findings)
    else List.iter (fun f -> print_endline (Simlint.Lint.pp_finding f)) findings;
    Printf.eprintf "simlint: %d finding(s)\n" (List.length findings);
    exit 1
