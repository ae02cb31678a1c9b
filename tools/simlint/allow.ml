(* Per-directory allowlist: the places where a rule's target construct
   is the sanctioned implementation rather than a hazard. Inline
   `(* simlint: allow ... *)` comments are for one-off exceptions; an
   entry here blesses a whole directory (or a single file) and is the
   right tool when the exception *is* the module's job. *)

type entry = {
  rule : string;  (** e.g. ["D001"] *)
  prefix : string;
      (** repo-relative path prefix, ['/']-separated; a trailing ['/']
          makes it a directory, otherwise it names a file *)
  reason : string;
}

let entries =
  [
    {
      rule = "D001";
      prefix = "lib/runner/";
      reason = "sweep metrics measure real elapsed wall time per run";
    };
    {
      rule = "D001";
      prefix = "bench/";
      reason = "benchmarks exist to report wall time";
    };
    {
      rule = "D004";
      prefix = "lib/runner/";
      reason = "the multicore pool is the sanctioned Domain.spawn user";
    };
    {
      rule = "D004";
      prefix = "lib/simkit/engine.ml";
      reason = "per-domain event counters live in Domain.DLS";
    };
    {
      rule = "D004";
      prefix = "lib/simkit/par_engine.ml";
      reason =
        "the quantum-synchronous executor is the sanctioned shard-worker \
         spawner; its round barrier is what keeps every other module \
         domain-free";
    };
    {
      rule = "D004";
      prefix = "lib/obs/obs.ml";
      reason = "ambient registry is Domain.DLS so sweep workers never share state";
    };
    {
      rule = "D002";
      prefix = "lib/simkit/rng.ml";
      reason = "the one sanctioned RNG; everything else draws through it";
    };
    {
      rule = "D011";
      prefix = "lib/obs/obs.ml";
      reason =
        "the ambient registry is deliberately Domain.DLS: each sweep \
         worker gets its own registry, reset per run by with_fresh";
    };
    {
      rule = "D011";
      prefix = "lib/simkit/engine.ml";
      reason =
        "only the per-domain event counters live in Domain.DLS, by design; \
         they are read through delta accessors";
    };
  ]

let normalize path =
  let path = String.map (function '\\' -> '/' | c -> c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m > 0 && at 0

(* Matches both repo-relative paths (as the CLI passes them) and
   absolute paths (as the test suite passes them). *)
let under_prefix ~prefix path =
  let p = normalize path in
  String.starts_with ~prefix p || contains ~sub:("/" ^ prefix) p

let allowed ~rule ~path =
  List.exists (fun e -> e.rule = rule && under_prefix ~prefix:e.prefix path)
    entries
