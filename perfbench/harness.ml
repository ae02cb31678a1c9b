(* Shared machinery for the three workloads: statistics, the op ledger,
   timed regions, the round loop, exact counts at the benchmark's call
   boundaries and per-phase GC accounting. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (n - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

type metric = { name : string; unit_ : string; value : float }

let metric unit_ name value = { name; unit_; value }
let count name n = metric "count" name (float_of_int n)
let secs name s = metric "s" name s

(* --- ops --------------------------------------------------------------- *)

(* One op's simulated output, reduced to a digest, and the invariant it
   broke, if any. *)
type op = { digest : string; error : string option }

let digest_of s = Digest.to_hex (Digest.string s)
let ok summary = { digest = digest_of summary; error = None }
let bad summary why = { digest = digest_of summary; error = Some why }

(* Ops are checked as they finish and then dropped, so memory stays flat
   however many of them fit in the run: the digest goes to the digest
   file and is compared with its golden, if there is one, and a failure
   is counted. The main program fills in [golden] and [digests]. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : (int * string) list;  (** the first few, newest first *)
  mutable golden : string array;  (** digest prefixes of ops 0, 1, ... *)
  mutable digests : out_channel option;
}

let ledger =
  { attempted = 0; failed = 0; errors = []; golden = [||]; digests = None }

let fail i why =
  ledger.failed <- ledger.failed + 1;
  if List.length ledger.errors < 5 then ledger.errors <- (i, why) :: ledger.errors

(* The next op of the run's sequence. *)
let record op =
  let i = ledger.attempted in
  ledger.attempted <- i + 1;
  Option.iter (fun oc -> output_string oc (op.digest ^ "\n")) ledger.digests;
  match op.error with
  | Some e -> fail i e
  | None ->
    if
      i < Array.length ledger.golden
      && not (String.starts_with ~prefix:ledger.golden.(i) op.digest)
    then fail i "simulated output differs from the golden digest"

(* A check outside the op sequence: counted, but with no digest. *)
let check = function
  | None -> ledger.attempted <- ledger.attempted + 1
  | Some why ->
    ledger.attempted <- ledger.attempted + 1;
    fail (-1) why

(* --- exact counts at the benchmark's call boundaries ------------------- *)

(* Counters and host-time sums keyed by metric name, accumulated only
   while tracing is on — the same regions the spans cover. *)
let counts : (string, float ref) Hashtbl.t = Hashtbl.create 32

let add name v =
  if !Tracer.on then
    match Hashtbl.find_opt counts name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace counts name (ref v)

let addi name n = add name (float_of_int n)

let total name =
  match Hashtbl.find_opt counts name with Some r -> !r | None -> 0.0

(* Run [f] as one traced library call: a span named [name], plus the
   engine callbacks it executed on this domain under [name ^ ".events"]
   and its host time under [name ^ ".host_s"]. *)
let call name f =
  if not !Tracer.on then f ()
  else begin
    let e0 = Simkit.Engine.domain_events_processed () in
    let t0 = now () in
    let v = Tracer.span name f in
    add (name ^ ".host_s") (now () -. t0);
    addi (name ^ ".events") (Simkit.Engine.domain_events_processed () - e0);
    v
  end

(* Event-queue work of [engines] during [f]: the compactions and resizes
   it ran, and the cancelled events still pending after it. *)
let queue_around engines f =
  if not !Tracer.on then f ()
  else begin
    let sum field =
      List.fold_left
        (fun a e -> a + field (Simkit.Engine.queue_stats e))
        0 (engines ())
    in
    let compactions q = q.Simkit.Engine.qs_compactions in
    let resizes q = q.Simkit.Engine.qs_resizes in
    let c0 = sum compactions in
    let r0 = sum resizes in
    let v = f () in
    addi "simkit.queue.compactions" (sum compactions - c0);
    addi "simkit.queue.resizes" (sum resizes - r0);
    addi "simkit.queue.tombstones" (sum (fun q -> q.Simkit.Engine.qs_tombstones));
    v
  end

(* --- GC, split into set-up and run phases ------------------------------ *)

let gc_phase phase f =
  if not !Tracer.on then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let v = f () in
    let g1 = Gc.quick_stat () in
    let p = "gc." ^ phase ^ "." in
    add (p ^ "minor_words") (g1.Gc.minor_words -. g0.Gc.minor_words);
    add (p ^ "promoted_words") (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    addi (p ^ "major_collections")
      (g1.Gc.major_collections - g0.Gc.major_collections);
    v
  end

(* --- timed regions ----------------------------------------------------- *)

(* Run [f] as one timed region of GC phase ["setup"] or ["run"]; the
   region's host seconds come back with [f]'s value. *)
let timed ~phase f =
  let t0 = now () in
  let v = gc_phase phase f in
  let dt = now () -. t0 in
  if String.equal phase "setup" then addi "gc.setup.regions" 1;
  (v, dt)

(* Noise guard: no end-to-end timing may rest on a timed region shorter
   than this. Below it, timer resolution and scheduler jitter are a
   visible share of the number, which is how a set-up metric that timed
   half a millisecond of bookkeeping once made two runs of the same code
   disagree by 15%. *)
let min_region_s = 0.010

let guard name regions =
  if regions = [] then failwith (name ^ ": no timed region");
  List.iter
    (fun dt ->
      if dt < min_region_s then
        failwith
          (Printf.sprintf
             "noise guard: %s rests on a %.4f s timed region (minimum %.3f s)"
             name dt min_region_s))
    regions

(* --- timed rounds ------------------------------------------------------ *)

(* A round's timed phase is split into named regions (web: the steady
   window, the reboot and the recovery window of each op kind), each
   given in host seconds. *)
type round = { traced : bool; regions : (string * float) list }

(* In a traced run, rounds 1 and 3 are traced and every other round runs
   untraced, so the per-layer numbers always cover the same two rounds
   (their counts repeat exactly for a seed) and the tracing overhead is
   measured against untraced rounds of the same process. *)
let traced_rounds = [ 1; 3 ]

(* A total over the traced rounds, per round. *)
let per_round v = v /. float_of_int (List.length traced_rounds)

(* GC work per traced set-up and per traced round, and the heap's peak. *)
let gc_metrics () =
  let words_mib w =
    float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0
  in
  List.concat_map
    (fun (phase, per) ->
      let p = "gc." ^ phase ^ "." in
      [
        metric "words" (p ^ "minor_words") (total (p ^ "minor_words") /. per);
        metric "words" (p ^ "promoted_words")
          (total (p ^ "promoted_words") /. per);
        metric "count" (p ^ "major_collections")
          (total (p ^ "major_collections") /. per);
      ])
    [
      ("setup", total "gc.setup.regions");
      ("run", float_of_int (List.length traced_rounds));
    ]
  @ [
      metric "MiB" "gc.top_heap_mib"
        (words_mib (Gc.quick_stat ()).Gc.top_heap_words);
    ]

(* Run [f ~round ~traced] for round = 0, 1, ... until [seconds] of host
   time have passed since the first round began, and at least
   [min_rounds] (in a traced run, at least past the last traced round).
   [f] returns its timed regions: work it does outside them (a fleet's
   set-up) is not part of the round. *)
let run_rounds ~trace ~seconds ~min_rounds f =
  let min_rounds =
    if trace then max min_rounds (1 + List.fold_left max 0 traced_rounds)
    else min_rounds
  in
  let t_end = now () +. seconds in
  let rec go i acc =
    if i >= min_rounds && now () >= t_end then List.rev acc
    else begin
      let traced = trace && List.mem i traced_rounds in
      Tracer.on := traced;
      let regions = f ~round:i ~traced in
      Tracer.on := false;
      go (i + 1) ({ traced; regions } :: acc)
    end
  in
  go 0 []

let region_names rounds =
  List.sort_uniq String.compare
    (List.concat_map (fun r -> List.map fst r.regions) rounds)

let regions_named name rounds =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (n, x) -> if String.equal n name then Some x else None)
        r.regions)
    rounds

(* Host seconds of one round: for each region, the median over the
   chosen rounds, summed. The machine also slows down in bursts of about
   a second; a median over many short regions leaves them out, where
   the median of whole rounds would not once a round is as long as a
   burst. *)
let round_s ~traced rounds =
  let rounds = List.filter (fun r -> r.traced = traced) rounds in
  List.fold_left
    (fun acc name ->
      let xs = regions_named name rounds in
      guard ("run_s region " ^ name) xs;
      acc +. median xs)
    0.0 (region_names rounds)

(* Host seconds of one set-up: the median over the run's set-ups. *)
let setup_s setups =
  guard "setup_s" setups;
  median setups

(* --- result ------------------------------------------------------------ *)

type result = {
  setups : float list;  (** host seconds of each set-up *)
  rounds : round list;
  layers : metric list;  (** per-layer metrics (traced run only) *)
  not_applicable : string list;
      (** per-layer metrics of layers the workload has no call boundary
          into; reported as 0 *)
  info : (string * string) list;  (** printed, not part of the metrics *)
}

let rec repeat n f =
  if n <= 0 then []
  else
    let x = f () in
    x :: repeat (n - 1) f
