(** Every experiment of the paper's evaluation (Figures 2 and 4–9,
    Sections 5.2, 5.3 and 5.6) and of this reproduction's side studies,
    registered under a stable id as a list of cells (see {!Spec});
    {!sweep} runs them. The building blocks below ({!run_reboot},
    {!fleet_cell}, {!run_traffic_cell}, ...) serve the cells and the
    bench harness's synthetic checks.

    All runs are deterministic given the seed (default 42). *)

type reboot_run = {
  strategy : Strategy.t;
  vm_count : int;
  vm_mem_bytes : int;
  pre_task_s : float;  (** suspend / save / guest shutdown duration *)
  vmm_reboot_s : float;  (** VMM-only reboot portion *)
  post_task_s : float;  (** resume / restore / guest boot duration *)
  downtimes : float list;  (** per-VM longest service outage *)
  downtime_mean_s : float;
  downtime_max_s : float;
  spans : (string * float * float) list;  (** full trace *)
  saved_image_mib : float;
      (** size of the last saved VMM image (resident pages + execution
          state); 0 when the strategy never saved one *)
  restore_lag_s : float;
      (** how long after resume the last streamed restore kept paging
          cold pages in; 0 under stop-and-copy restore *)
}

val run_reboot :
  ?calibration:Calibration.t ->
  ?workload:Scenario.workload ->
  ?seed:int ->
  ?memdyn:Mem.Memdyn.t ->
  ?settle_s:float ->
  ?horizon_s:float ->
  strategy:Strategy.t ->
  vm_count:int ->
  vm_mem_bytes:int ->
  unit ->
  reboot_run
(** Boot the testbed, attach probers, run one VMM rejuvenation with the
    given strategy, and measure. [memdyn] (default off) enables the
    memory-dynamics subsystem — dirty-page tracking, pre-suspend
    ballooning, streamed restore — on every VM. Raises
    [Simkit.Fault.Error] if any VM fails to come back before the
    horizon ([Not_recovered]) or the run misses its deadline
    ([Timeout]). *)

(** {1 Figure 4/5: pre- and post-reboot task times} *)

type task_times = {
  x : int;  (** memory in GiB (fig 4) or VM count (fig 5) *)
  onmem_suspend_s : float;
  onmem_resume_s : float;
  xen_save_s : float;
  xen_restore_s : float;
  shutdown_s : float;
  boot_s : float;
}

(** {1 Section 5.2: effect of quick reload} *)

type reload_times = { quick_reload_s : float; hardware_reset_s : float }

val quick_reload_effect : unit -> reload_times
(** VMM reboot duration, dom0-shutdown-complete to reboot-complete,
    with no domain Us. *)

(** {1 Figure 6: downtime of networked services} *)

type fig6_row = {
  n : int;
  warm_downtime_s : float;
  saved_downtime_s : float;
  cold_downtime_s : float;
}

val fig6 :
  ?vm_counts:int list ->
  ?memdyn:Mem.Memdyn.t ->
  workload:Scenario.workload ->
  unit ->
  fig6_row list

(** {1 Section 5.3: availability} *)

val run_os_rejuvenation :
  ?workload:Scenario.workload -> unit -> float
(** Downtime of rebooting one guest OS (the paper's 33.6 s with
    JBoss). *)

val availability_table :
  ?os_downtime_s:float ->
  vmm_downtimes:(Strategy.t * float) list ->
  unit ->
  (Strategy.t * float) list
(** Section 5.3's availability figures from measured downtimes. *)

(** {1 Figure 7: downtime breakdown with a live web workload} *)

type fig7_result = {
  f7_strategy : Strategy.t;
  reboot_command_at : float;
  throughput : (float * float) list;
      (** mean throughput of consecutive 50-request windows *)
  f7_spans : (string * float * float) list;
  web_down_at : float option;
  web_up_at : float option;
  chrome_trace_json : string;
      (** the run's operation timeline in Chrome trace-event format
          (viewable at ui.perfetto.dev) *)
}

(** {1 Figure 8: throughput before/after the reboot} *)

type before_after = {
  first_before : float;
  second_before : float;
  first_after : float;
  second_after : float;
  degradation : float;
      (** 1 - first_after/first_before; the paper's 91 % / 69 % *)
}

val fig8_file : strategy:Strategy.t -> unit -> before_after
(** 512 MB file read throughput (MiB/s), 11 GiB VM. *)

(** {1 Elastic restore: memdyn mode x working set x disk} *)

type elastic_row = {
  er_mode : Mem.Memdyn.mode;
  er_working_set : float;  (** working-set fraction of RAM *)
  er_disk : string;  (** calibration name: "hdd2007" or "nvme" *)
  er_downtime_s : float;  (** longest service outage (saved reboot) *)
  er_image_mib : float;  (** saved VMM image size *)
  er_restore_lag_s : float;
      (** post-resume cold-page streaming duration *)
}

val fleet_cell :
  ?partitions:int ->
  ?load_rate_per_s:float ->
  ?memdyn:Mem.Memdyn.t ->
  ?traffic:Netsim.Fluid.config ->
  seed:int ->
  hosts:int ->
  width:int ->
  slo:float ->
  strategy:Wave.strategy ->
  unit ->
  Fleet.report
(** One cell of the ["fleet_rolling"] grid: build a fresh {!Fleet} on
    its own engine — spread over [partitions] shards/domains (default
    1; Migrate cells always pin to 1) — boot it, roll one full
    rejuvenation pass. The report is byte-identical for every
    [partitions] value, so partitioning is a performance knob, not a
    cache-key ingredient ([load_rate_per_s], default 50, {e is} one).
    [traffic] (default {!Netsim.Fluid.default_config}, i.e.
    [Per_request]) selects the client-stream model on every host — see
    {!Fleet.Config.t}. *)

(** {1 Elastic traffic: model mode x client population x strategy} *)

type traffic_row = {
  tw_mode : Netsim.Fluid.mode;
  tw_clients : int;  (** closed-loop client population *)
  tw_strategy : Strategy.t;
  tw_steady_rps : float;
      (** pre-reboot steady throughput (5 s .. 20 s after boot) *)
  tw_outage_s : float;  (** longest zero-throughput stall *)
  tw_completed : int;  (** modeled completions (scaled in hybrid) *)
  tw_failed : int;  (** modeled failures through the outage *)
  tw_tracer_requests : int;
      (** actual per-request completions simulated (0 in pure fluid) *)
}

val run_traffic_cell :
  ?seed:int -> Netsim.Fluid.mode * int * Strategy.t -> traffic_row
(** One ["elastic_traffic"] grid cell: a fig7-shaped scenario (Web
    workload, 500 x 512 KiB warm) whose client stream runs under the
    given {!Netsim.Fluid.mode}, rebooted at t=20 s with the given
    strategy. *)

(** {1 Uniform results}

    Every experiment's result, wrapped in one sum type so generic
    tooling — the CLI's [--csv]/[--json] exporters, the text printer,
    the sweep runner's isolation check — can handle all of them
    uniformly. *)

module Result : sig
  type t =
    | Task_times of task_times list  (** figures 4 and 5 *)
    | Reload of reload_times  (** section 5.2 *)
    | Fig6 of fig6_row list
    | Fig7 of fig7_result
    | Before_after of before_after  (** figure 8 *)
    | Availability of (Strategy.t * float) list  (** section 5.3 *)
    | Fits of Downtime_model.fits  (** section 5.6 *)
    | Timeline of (string * (float * float) list) list
        (** named (time, value) series — the figure 9 cluster model *)
    | Scalar of { label : string; value : float }
    | Fault_matrix of Fault_matrix.cell list
        (** the fault-injection campaign *)
    | Fleet of Fleet.report list
        (** the fleet-scale rolling-rejuvenation grid *)
    | Elastic of elastic_row list
        (** the memory-dynamics restore grid *)
    | Traffic of traffic_row list
        (** the traffic-model grid (["elastic_traffic"]) *)
    | Values of (string * float) list
        (** named values in order, names may repeat — the side studies
            (["fig2"], ["migration"], ["ablation"], ["sensitivity"]) *)

  val kind : t -> string
  (** Constructor name, for dispatch and the JSON envelope. *)

  val to_json : t -> string
  (** Compact JSON: [{"kind": ..., "data": ...}]. Hand-rolled, no
      external dependencies. *)

  val csv : t -> string list * string list list
  (** [(header, rows)] for the generic CSV exporter. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable text: a table for row lists, one line per value
      otherwise. Every line ends in a newline. *)

  val merge : t list -> t
  (** Combine the cell results of one experiment (concatenating row
      lists, in the given order). Raises [Invalid_argument] on an empty
      list or on structurally incompatible results. *)
end

(** {1 The experiment registry}

    Every experiment is registered as a {!Spec.t} under a stable id —
    ["fig2"], ["fig4"], ["fig5"], ["fig6"], ["quick_reload"],
    ["os_rejuvenation"], ["availability"], ["fig7"], ["fig8_file"],
    ["fig8_web"], ["section_5_6_fits"], ["fig9"], ["cluster"],
    ["migration"], ["ablation"], ["sensitivity"], ["fault_matrix"],
    ["fleet_rolling"], ["elastic_restore"], ["elastic_traffic"]. The
    CLI and the bench harness run them through {!sweep}. *)

module Spec : sig
  type params = {
    seed : int;  (** engine seed; all runs are deterministic given it *)
    workload : Scenario.workload;  (** used by fig6 / elastic_restore *)
    strategy : Strategy.t;  (** used by fig7 / fig8_file / fig8_web *)
    vm_counts : int list option;
        (** fig5 / fig6 / section_5_6_fits sweep points; [None] = the
            experiment's paper-default sweep *)
    smoke : bool;
        (** shrink each of the four grids — [fault_matrix],
            [fleet_rolling], [elastic_restore], [elastic_traffic] — to a
            single small cell (CI smoke runs) *)
    partitions : int;
        (** shards each [fleet_rolling] cell runs on; default 1. A
            performance knob only: a fleet cell is byte-identical for
            every partition count. *)
    memdyn : Mem.Memdyn.mode;
        (** memory-dynamics mode for [fig4] / [fig5] / [fig6] /
            [fleet_rolling]; default [Off], the exact pre-memdyn code
            path. The remaining memdyn knobs stay at
            [Mem.Memdyn.default]. *)
    traffic : Netsim.Fluid.mode option;
        (** traffic model for [elastic_traffic] (pins the mode axis)
            and [fleet_rolling] (selects the per-host stream model);
            [None] = the experiment default — the full mode axis for
            [elastic_traffic], [Per_request] for [fleet_rolling]. *)
    clients : int list option;
        (** [elastic_traffic] client populations;
            [None] = [[10; 1000; 100000]] (per-request cells cap at
            1000). *)
  }

  val default_params : params

  type t = {
    id : string;
    doc : string;
    cells : params -> (string * (unit -> Result.t)) list;
        (** The experiment under the given params, as independent,
            embarrassingly parallel cells — one per swept point, in
            the order their rows are merged. Each cell has a unique key
            that is the id (a single-cell experiment) or starts with
            the id and a slash, e.g. ["fig4/mem=07"]. Listing the cells
            runs nothing. A cell is self-contained: it builds its own
            engine and RNG from [params.seed], and is safe to run from
            any domain. *)
  }

  val register : t -> unit
  (** Raises [Invalid_argument] on duplicate ids. *)

  val find : string -> t option
  val find_exn : string -> t

  val all : unit -> t list
  (** All registered specs, sorted by id. *)

  val ids : unit -> string list
end

(** {1 Running experiments}

    A name is an experiment id, which stands for all its cells, or one
    cell's key (e.g. ["fleet_rolling/h=0200/w=016/s=warm"]), which
    stands for that cell alone. *)

val sweep_tasks :
  ?params:Spec.params -> string list -> Result.t Runner.Sweep.task list
(** Expand names into their cells as runner tasks, in cell order
    (their [cache_key] is [None]). Raises [Invalid_argument] on an
    unknown name or a cell named twice. *)

val sweep :
  ?jobs:int ->
  ?verify_isolation:bool ->
  ?params:Spec.params ->
  string list ->
  (string * (Result.t, Simkit.Fault.t) result) list
  * Result.t Runner.Sweep.outcome list
(** Run the named cells through {!Runner.Sweep.run} — across [jobs]
    domains, started in key order — and merge each name's cell results
    in cell-list order, into one value per name (in the order
    requested). A name whose cell faulted merges to [Error] (the first
    fault in cell order) instead of aborting the whole sweep; the other
    names still report [Ok]. Also returns the raw per-cell outcomes, in
    key order, with their wall-clock / simulated-event metrics. The
    merged results are byte-identical for every [jobs]. Raises
    [Invalid_argument] before running anything on an unknown name or a
    cell named twice. *)
