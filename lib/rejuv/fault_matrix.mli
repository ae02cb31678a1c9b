(** The fault-injection campaign: strategy × injection-site grid.

    For every (strategy, site) cell, boot a small consolidation testbed
    (two ordinary VMs plus one driver domain), measure a clean
    rejuvenation as the baseline, then re-run it with the site armed to
    fire on its first call and record what the recovery machinery did:
    whether the reboot still completed, which strategy finished it,
    how many retries it took, how many domains lost their memory state,
    and how much extra downtime the fault cost.

    Deterministic: both runs of a cell derive everything from [seed],
    so the same seed always produces byte-identical cells. *)

type cell = {
  fm_strategy : Strategy.t;  (** The strategy the campaign requested. *)
  fm_site : string;  (** The armed injection site. *)
  injected : int;  (** Times the site actually fired (0 = never hit). *)
  recovered : bool;  (** The reboot completed despite the fault. *)
  completed : Strategy.t;
      (** The strategy that finished (differs after a fallback). *)
  retries : int;  (** Retry attempts spent recovering. *)
  domains_lost : int;
      (** Domains abandoned — memory state lost, rebuilt fresh. *)
  baseline_downtime_s : float;  (** Clean-run rejuvenation duration. *)
  downtime_s : float;  (** Faulted-run rejuvenation duration. *)
  extra_downtime_s : float;  (** [downtime_s -. baseline_downtime_s]. *)
}

val grid : (Strategy.t * string) list
(** The full campaign: every strategy crossed with every
    {!Simkit.Fault.injection_sites} site, in stable order. *)

val smoke_grid : (Strategy.t * string) list
(** A one-cell grid (warm × ["xend.resume"]) for CI smoke runs. *)

val run_cell : ?seed:int -> strategy:Strategy.t -> site:string -> unit -> cell
(** Run one cell (baseline + faulted run). Raises [Simkit.Fault.Error]
    [(Invariant _)] on an unknown site. *)
