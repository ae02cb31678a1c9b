(* Host-time benchmark of the simulator.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--golden FILE] [--out DIR]

   Runs one workload for about S seconds of host time, checks every op's
   simulated output, and prints info lines ("# name: value") followed by
   one JSON line: {"correct", "attempted", "failed", "metrics",
   "not_applicable"}. With --trace 0 the metrics are the end-to-end ones
   (setup_s, run_s and peak_rss_mib); with --trace 1 they are the
   per-layer ones from the traced rounds, plus trace.overhead_pct, and
   "not_applicable" names the per-layer metrics of layers the workload
   has no call boundary into. Op digests go to
   DIR/<workload>-seed<N>-trace<T>.digests and, when traced, the spans
   to DIR/<workload>-seed<N>.spans.tsv. *)

let workloads =
  [
    ("web_reboot", Web_reboot.run);
    ("vmm_sweep", Vmm_sweep.run);
    ("fleet_roll", Fleet_roll.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (web_reboot|vmm_sweep|fleet_roll) --seed N \
     --seconds S --trace 0|1 [--golden FILE] [--out DIR]";
  exit 2

let args = Hashtbl.create 8

let arg name =
  match Hashtbl.find_opt args name with Some v -> v | None -> usage ()

let int_arg name =
  match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

(* VmHWM: the process's peak resident set. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The committed digests of the first ops' outputs at the golden seed:
   {"seed": N, "<workload>": ["<hex prefix>", ...], ...}. *)
let golden ~path ~workload ~seed =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let open Simkit.Jsonx in
    match of_string text with
    | Error e -> failwith (path ^ ": " ^ e)
    | Ok j -> (
      match (member "seed" j, member workload j) with
      | Some (Int s), Some (Arr ds) when s = seed ->
        Some
          (Array.of_list
             (List.map
                (function
                  | Str d when String.length d >= 8 -> d
                  | _ -> failwith (path ^ ": bad digest"))
                ds))
      | _ -> None)

let () =
  let rec parse = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = arg "workload" in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let golden_path =
    Option.value (Hashtbl.find_opt args "golden") ~default:"perfbench/golden.json"
  in
  let out = Option.value (Hashtbl.find_opt args "out") ~default:".bench_out" in
  let run =
    match List.assoc_opt workload workloads with Some r -> r | None -> usage ()
  in
  let golden = golden ~path:golden_path ~workload ~seed in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let stem = Printf.sprintf "%s/%s-seed%d" out workload seed in
  let digests =
    open_out (Printf.sprintf "%s-trace%d.digests" stem (Bool.to_int trace))
  in
  Harness.ledger.golden <- Option.value golden ~default:[||];
  Harness.ledger.digests <- Some digests;
  let res = run ~seed ~seconds ~trace in
  close_out digests;
  if trace then Tracer.write (stem ^ ".spans.tsv");
  let ledger = Harness.ledger in
  let metrics =
    if not trace then
      [
        Harness.secs "setup_s" (Harness.setup_s res.setups);
        Harness.secs "run_s" (Harness.round_s ~traced:false res.rounds);
        Harness.metric "MiB" "peak_rss_mib" (peak_rss_mib ());
      ]
    else
      let overhead =
        100.0
        *. ((Harness.round_s ~traced:true res.rounds
            /. Harness.round_s ~traced:false res.rounds)
           -. 1.0)
      in
      res.layers @ Harness.gc_metrics ()
      @ [ Harness.metric "%" "trace.overhead_pct" overhead ]
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) res.info;
  let spread xs =
    Printf.sprintf "%.4f / %.4f / %.4f" (Harness.quantile xs 0.0)
      (Harness.median xs) (Harness.quantile xs 1.0)
  in
  let untraced =
    List.filter (fun (r : Harness.round) -> not r.traced) res.rounds
  in
  Printf.printf "# rounds: %d, %d traced\n" (List.length res.rounds)
    (List.length res.rounds - List.length untraced);
  List.iter
    (fun name ->
      let xs = Harness.regions_named name untraced in
      Printf.printf "# region %s: %d untraced, host s min / median / max: %s\n"
        name (List.length xs) (spread xs))
    (Harness.region_names untraced);
  Printf.printf "# set-ups: %d, host s min / median / max: %s\n"
    (List.length res.setups) (spread res.setups);
  (match golden with
  | Some g ->
    Printf.printf "# golden: the first %d ops compared\n"
      (min (Array.length g) ledger.attempted)
  | None -> Printf.printf "# golden: none for seed %d, invariants only\n" seed);
  List.iter
    (fun (i, e) -> Printf.printf "# failed op %d: %s\n" i e)
    (List.rev ledger.errors);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let not_applicable = if trace then res.not_applicable else [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"not_applicable\": [%s]}\n"
    (ledger.failed = 0) ledger.attempted ledger.failed
    (String.concat ", "
       (List.map
          (fun (m : Harness.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics))
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") not_applicable))
