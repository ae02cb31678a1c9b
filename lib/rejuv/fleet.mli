(** Rolling rejuvenation across many hosts: the simulator's one
    multi-host model.

    A {e fleet} is any number of hosts — each a full {!Scenario} stack
    — in one simulation, plus one spare host kept empty as a migration
    target. {!Config.cluster} is the paper's Section 6 cluster (a few
    hosts rejuvenated one at a time); {!Config.default} is a
    consolidated fleet rolled in SLO-guarded waves. A {!Wave.plan}
    partitions the fleet into rolling waves; the control plane walks
    the waves, rejuvenating each wave's hosts concurrently (or
    migrating their guests away first), under an open-loop Poisson
    client stream dispatched across the fleet.

    {b Partitioned time.} Host stacks share no mutable simulation
    state, so the fleet can spread them over
    [Config.partitions] shards of a quantum-synchronous
    [Simkit.Par_engine] (host [i] on shard [i mod partitions]; the
    spare pinned to shard 0) and run them on as many domains. Shards
    exchange no events: all cross-host coupling — SLO admission,
    redirect freshness, task launches, capacity sampling — happens on
    the coordinator at a fixed 2-s barrier grid, and per-host load
    streams are seeded from (fleet seed, host index): together these
    make a seeded run {e byte-identical for every partition count}, 1
    included (which runs the same barrier loop inline). Migrate waves
    funnel through the shared spare, so they require
    [partitions = 1].

    The SLO guard is enforced twice. Statically, {!Wave.plan} caps the
    wave width at the capacity slack above the SLO floor. Dynamically,
    before each host is admitted into its wave the control plane checks
    that the {e projected} healthy-host count — current healthy hosts
    minus those the wave is about to take down — stays at or above the
    floor; a host that would breach it is deferred (bounded retries)
    and ultimately skipped rather than admitted.

    Instrumented through [Obs]: [fleet.healthy_hosts] and
    [fleet.capacity_fraction] pull gauges, a [fleet.wave_index] push
    gauge and a [fleet.hosts_rejuvenated] counter. The
    [min_healthy]/[mean_healthy] report fields come from healthy-host
    counts the control plane takes at its barriers, every
    [Config.sample_interval_s]. *)

module Config : sig
  type t = {
    hosts : int;  (** fleet size; default 16 *)
    host : Scenario.Config.t;
        (** per-host template; [name_prefix] is extended per host and
            [engine] overwritten with the host's shard engine *)
    wave_width : int;
        (** requested hosts per wave — clamped to the SLO slack by
            {!Wave.plan}; default 4 *)
    slo : float;
        (** fraction of hosts that must stay healthy; default 0.7 *)
    gap_s : float;  (** idle time between waves; default 10 s *)
    load_rate_per_s : float;
        (** client stream offered across the fleet; default 200 req/s.
            With [host.traffic] mode [Per_request] this is the
            historical per-host Poisson split. [Fluid]/[Hybrid] carry
            the bulk as epoch-integrated flow streams, one per host,
            held in one {!Netsim.Fluid.Open} value per shard: one
            engine event per shard per epoch advances all of a
            shard's streams, and no RNG is drawn, so a host can model
            1M+ flows. The engine event count therefore scales with
            shards × epochs and differs across partition counts,
            while the report does not. When [host.traffic] has a
            positive think time the per-host rate becomes
            [clients / think_time_s] (each closed-loop flow offers
            ~1/think req/s), otherwise this knob is split as before.
            [Hybrid] additionally keeps a tracer-sized Poisson cohort
            per-request, seeded exactly like the per-request
            streams. *)
    blind_dispatch : bool;
        (** Blind dispatch: each host is offered 1/[hosts] of the load,
            and a request sent to a down host is lost (the paper's
            Figure 9 lost-request model). Otherwise a down host's
            requests go to another host that was healthy at the last
            barrier, and are lost only when no other host was.
            Default [false]. *)
    sample_interval_s : float;  (** capacity sampling period; default 5 s *)
    partitions : int;
        (** shards the host stacks are spread over (clamped to the
            fleet size); default 1 — the classic single-domain run *)
  }

  val default : t

  val cluster : t
  (** The Section 6 cluster: 4 hosts of 3 VMs rejuvenated one at a
      time (wave width 1, SLO 0) with a 20-s gap, under 100 req/s of
      health-aware dispatched load. *)
end

type t

val create : Config.t -> t
(** Build the fleet (and its spare host) on a partitioned engine seeded
    from [host.seed], and register the fleet and [par.*] shard gauges
    into the ambient [Obs] registry. Raises [Invalid_argument], before
    any host is built, on a non-positive partition count, on a wave
    plan {!Wave.plan} rejects (fleet size, wave width or SLO), on a
    [load_rate_per_s] that is not positive, or on a [host.traffic]
    that {!Netsim.Fluid.validate_config} rejects. *)

val par : t -> Simkit.Par_engine.t
(** The partitioned engine; [Par_engine.shard] exposes the per-shard
    engines (shard 0 doubles as the control/spare shard). *)

val healthy_hosts : t -> int

val start : t -> unit
(** Boot every fleet host and the spare, driving the shards until all
    are up. *)

type wave_report = {
  wave_index : int;
  wave_hosts : int list;  (** hosts actually admitted *)
  started_at_s : float;
  wave_makespan_s : float;  (** admission start to last host recovered *)
  deferred : int;  (** admission retries taken by this wave *)
}

type report = {
  fr_strategy : Wave.strategy;
  hosts : int;
  wave_width : int;  (** effective width, after the SLO clamp *)
  slo : float;
  slo_floor : int;
  waves : wave_report list;
  makespan_s : float;  (** first wave start to last wave settled *)
  offered : int;
  lost : int;
  loss_ratio : float;
  min_healthy : int;  (** over capacity samples during the run *)
  mean_healthy : float;
  slo_met : bool;  (** [min_healthy >= slo_floor] *)
  skipped : int list;
      (** hosts never admitted — SLO guard exhausted its retries *)
}

val run : t -> strategy:Wave.strategy -> report
(** Execute one full rolling pass over a started fleet: start the
    per-host load streams, walk the waves {!create} planned one quantum
    barrier at a time (admission, launches and sampling all happen at
    barriers, on the coordinator, with every shard parked), settle,
    stop the load, and report. [Reboot] waves rejuvenate their hosts
    concurrently — across domains when partitioned; [Migrate] waves go
    host by host, because the spare's memory and the migration link are
    shared (and therefore fail with [Fault.Invariant] when
    [partitions > 1]). Per-host faults are traced and do not wedge the
    pass — an unrecovered host simply stays unhealthy (and counts
    against [min_healthy]). *)
