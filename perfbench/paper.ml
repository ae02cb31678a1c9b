(* Paper reference values for [paper_err_pct]. Each value is copied from
   a row of EXPERIMENTS.md, which quotes the paper, and is named after
   that row. fleet_roll has no entry: the paper has no fleet-scale
   experiment, so that workload is unvalidated and reports no error. *)

type reference = { row : string; paper : float }

let r row paper = { row; paper }

(* Figure 7: the reboot command is at t = 20 s, so the paper's "web
   stops" times are 14 s (warm, t = 34 s) and 7 s (cold, t = 27 s) after
   it. *)
let fig7_warm_stop = r "Figure 7 | warm: web stops | t = 34 s" 14.0
let fig7_cold_stop = r "Figure 7 | cold: web stops | t = 27 s" 7.0
let fig7_warm_outage = r "Figure 7 | warm: outage | ~42 s" 42.0

let fig4_suspend = r "Figure 4 | on-memory suspend | 0.08 s @ 11 GiB" 0.08
let fig4_resume = r "Figure 4 | on-memory resume | 0.9 s @ 11 GiB" 0.9
let fig4_save = r "Figure 4 | Xen save to disk | ~133 s @ 11 GiB" 133.0
let fig4_restore = r "Figure 4 | Xen restore | ~129 s @ 11 GiB" 129.0
let fig5_suspend = r "Figure 5 | on-memory suspend | 0.04 s @ 11 VMs" 0.04
let fig5_resume = r "Figure 5 | on-memory resume | 4.2 s @ 11 VMs" 4.2
let fig5_save = r "Figure 5 | Xen save (parallel, one disk) | ~200 s @ 11 VMs" 200.0
let fig5_restore = r "Figure 5 | Xen restore (serial) | ~156 s @ 11 VMs" 156.0
let fig5_boot = r "Figure 5 | boot | 3.4 n + 2.8 = 40.2 s @ 11 VMs" 40.2
let quick_reload = r "Section 5.2 | quick reload | 11 s" 11.0
let hardware_reset = r "Section 5.2 | hardware reset | 59 s" 59.0
let fig6a_warm = r "Figure 6a | warm (paper 42 @ 11)" 42.0
let fig6a_saved = r "Figure 6a | saved (429)" 429.0
let fig6a_cold = r "Figure 6a | cold (157)" 157.0
let fig6b_cold = r "Figure 6b | cold (paper 241 @ 11)" 241.0

(* Mean absolute relative error, in percent, as info lines: the
   headline, then one line per row. *)
let report pairs =
  let errs =
    List.map (fun (r, sim) -> Float.abs (sim -. r.paper) /. r.paper) pairs
  in
  let n = List.length errs in
  let mean = 100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int n in
  ("paper_err_pct", Printf.sprintf "%.6f %% (mean over %d rows)" mean n)
  :: List.map
       (fun (r, sim) ->
         ("paper_ref", Printf.sprintf "%s: paper %g, simulated %.4f" r.row r.paper sim))
       pairs

let web_reboot ~warm_stop_s ~cold_stop_s ~warm_outage_s =
  report
    [
      (fig7_warm_stop, warm_stop_s);
      (fig7_cold_stop, cold_stop_s);
      (fig7_warm_outage, warm_outage_s);
    ]

let unvalidated =
  [ ("paper_err_pct", "none: unvalidated, the paper has no fleet-scale reference") ]
