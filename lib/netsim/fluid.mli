(** Hybrid fluid-flow traffic model: O(flows) client aggregation.

    A client population is a piecewise-constant arrival-rate process and
    the server is a processor-sharing fluid queue: throughput, latency
    (via an M/G/1-PS approximation) and backlog evolve at rate-change
    {e epochs} and server state transitions, not per request. Driving a
    server with a million closed-loop clients costs O(epochs) engine
    events instead of O(requests) — the aggregation move that unlocks
    fleet scenarios with 1M+ modeled clients per host (doc/traffic.md).

    Three modes behind one interface:

    - {!Per_request} — today's {!Httperf} closed-loop generator,
      unchanged semantics (every request is a simulated event).
    - {!Fluid} — pure aggregate: no per-request events at all; the
      throughput timeline is reconstructed from the cumulative fluid
      completion curve.
    - {!Hybrid} — fluid bulk for [clients - tracers] flows plus a small
      per-request "tracer" cohort of [tracers] real {!Httperf}
      connections that preserves the Figure 7 throughput-timeline and
      retry-through-outage observables. The split is {e additive}: the
      bulk runs on the capacity the tracers measurably did not consume,
      and every observable is the sum of the two halves. With
      [tracers = clients] the bulk has zero flows, never schedules an
      event, contributes exact zeros — so every observable equals
      {!Per_request} bit-for-bit (the equivalence law in
      test/test_traffic.ml).

    The fluid path draws no random numbers and schedules only a fixed
    epoch tick, so seeded runs are byte-identical across fleet
    partition counts. *)

type mode = Per_request | Fluid | Hybrid

val mode_enum : mode Simkit.Enum.t
(** ["per-request"], ["fluid"], ["hybrid"] (alias ["per_request"]) —
    the [--traffic] CLI flag and config files parse through this. *)

val mode_name : mode -> string

(** The server side of the fluid queue, as draw-free closures so the
    model tracks live state (reboots, fault tax, NIC degradation)
    without being coupled to any particular guest stack. *)
type server = {
  srv_is_up : unit -> bool;  (** service reachable right now *)
  srv_capacity_rps : unit -> float;
      (** saturation throughput (requests/s) of the bottleneck
          resource; 0 while down. Must be finite. *)
  srv_service_time_s : unit -> float;
      (** no-contention service time of one request, including any
          current fault tax *)
}

val static_server :
  ?up:(unit -> bool) ->
  capacity_rps:float ->
  service_time_s:float ->
  unit ->
  server
(** Fixed-rate server; [up] defaults to always-up. For tests and
    benches that do not need a live guest behind the queue. *)

type config = {
  mode : mode;
  clients : int;  (** total modeled closed-loop clients (flows) *)
  tracers : int;
      (** per-request tracer cohort size in {!Hybrid}; ignored by the
          other modes. Must satisfy [1 <= tracers <= clients]. *)
  think_time_s : float;  (** per-flow think time between requests *)
  retry_backoff_s : float;
      (** retry delay after a failed request — also the fluid ramp
          length after an outage, matching {!Httperf}'s backoff *)
  epoch_s : float;  (** fluid integration step (simulated seconds) *)
}

val default_config : config
(** [Per_request], 10 clients (the paper's 10 httperf processes),
    4 tracers, zero think time, 0.5 s backoff, 0.1 s epochs. *)

val config_label : config -> string
(** Compact ["mode=hybrid clients=1000000 tracers=8"]-style tag for
    experiment params and cache keys. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on a non-positive [clients]/[epoch_s]/
    [retry_backoff_s], a negative [think_time_s], a NaN float, or a
    {!Hybrid} tracer count outside [1..clients]. {!create} and
    [Rejuv.Fleet.create] both check their traffic config with it. *)

type t

val create :
  Simkit.Engine.t ->
  ?name:string ->
  config:config ->
  request:((bool -> unit) -> unit) ->
  server:server ->
  unit ->
  t
(** [request] drives the per-request path ({!Per_request} fully, the
    tracer cohort in {!Hybrid}; unused by {!Fluid}); [server] drives
    the fluid path (unused by {!Per_request}). Raises
    [Invalid_argument] on a config {!validate_config} rejects. *)

val start : t -> unit
val stop : t -> unit
(** Stops the epoch tick (cancelling the pending event) and the tracer
    generator; in-flight tracer requests complete. *)

val mode : t -> mode
val clients : t -> int

val completed : t -> int
(** Population-scale successful requests: raw count in {!Per_request},
    rounded fluid integral in {!Fluid}, tracer count plus rounded bulk
    integral in {!Hybrid}. *)

val failed : t -> int
(** Population-scale failed attempts (one per flow per backoff while
    the server is down), same composition as {!completed}. *)

val flows : t -> float
(** Total modeled flows — [float_of_int clients] in every mode. *)

val offered_rps : t -> float
(** Instantaneous offered request rate actually being simulated: the
    fluid bulk rate plus the tracer generator's last completed
    1 s-window rate. O(1). *)

val backlog : t -> float
(** Flows whose request is blocked on the outage (or still ramping
    back through their retry backoff after recovery). 0 when healthy
    and in {!Per_request}. *)

val tracer_requests : t -> int
(** Requests simulated individually: all of them in {!Per_request},
    the tracer cohort's in {!Hybrid}, 0 in {!Fluid}. *)

val throughput_between : t -> lo:float -> hi:float -> float
(** Population-scale completed requests per second over a closed
    window. Fluid side interpolates the cumulative completion curve
    (two O(log epochs) searches); tracer side binary-searches
    completion timestamps; {!Hybrid} is their sum. Raises
    [Invalid_argument] when [hi <= lo]. *)

val mean_window_throughput : t -> every:int -> (float * float) list
(** Figure 7 reporting: average throughput of each consecutive block
    of [every] completed {e population-scale} requests, as (block end
    time, requests/s). {!Fluid} synthesizes block boundaries where the
    cumulative curve crosses multiples of [every]; {!Hybrid} walks the
    combined curve (tracer steps + fluid bulk), degrading to the
    per-request computation verbatim when the bulk is empty
    ([tracers = clients]). Empty generator yields [[]]; a trailing
    partial block is dropped (see
    {!Httperf.mean_window_throughput}). *)

val longest_stall_s : t -> float
(** Longest outage observed so far — the Figure 7 outage width.
    Per-request: the largest gap between consecutive completions (0
    with fewer than two completions). Fluid (and {!Hybrid} with a live
    bulk): the longest contiguous run of server-down epochs, including
    a still-open one. *)

val latency_mean_s : t -> float option
(** Mean response time. Per-request/hybrid: the (tracer) latency
    histogram. Fluid: M/G/1-PS [S / (1 - rho)] at the current
    utilisation; [None] while idle or down. *)

val latency_quantile_s : t -> p:float -> float option
(** [p]-quantile response time. Fluid mode uses the exponential
    sojourn approximation [T * ln (1 / (1 - p))]. *)

val tracer : t -> Httperf.t option
(** The underlying per-request generator ({!Per_request} and
    {!Hybrid}); [None] in {!Fluid}. *)

val observe : ?prefix:string -> Obs.Registry.t -> t -> unit
(** Attach the four traffic gauges under ["<prefix>.<name>."] (default
    prefix ["netsim.traffic"]): [flows], [offered_rps], [backlog] and
    [tracer_requests]. All readers are draw-free. *)

(** Open-loop fluid arrival streams for dispatchers: each stream is a
    constant offered rate split across servers by a served-fraction
    closure, integrated at epochs. [Rejuv.Fleet] uses this in place
    of per-request Poisson routing when traffic mode is not
    {!Per_request} — no RNG, so partition-invariant by construction. One value carries any number of streams on one
    engine and advances them all with one event per epoch (the fleet
    keeps one value per shard, one stream per host). *)
module Open : sig
  type t

  val create :
    Simkit.Engine.t ->
    rates_per_s:float array ->
    ?epoch_s:float ->
    served_fraction:(int -> float) ->
    unit ->
    t
  (** Stream [i] offers [rates_per_s.(i)] requests/s. At each epoch
      tick, [served_fraction i] is the instantaneous fraction of stream
      [i]'s load that reaches a healthy server, clamped to [0..1] (e.g.
      1 while stream [i]'s host is up and 0 while it is down). The
      tick reads the positive-rate streams in index order and never
      calls [served_fraction] for a zero-rate one. [epoch_s] defaults
      to 0.1 s. Raises [Invalid_argument] on a negative or NaN rate or
      a non-positive epoch. *)

  val start : t -> unit
  (** Schedules the first tick one epoch from now; a no-op when no
      stream has a positive rate. *)

  val stop : t -> unit

  val offered : t -> int
  (** Requests offered so far: the sum over streams of each stream's
      rounded fluid integral. *)

  val lost : t -> int
  (** Requests lost so far, summed like {!offered}. *)

  val loss_ratio : t -> float
  (** [lost / offered]; 0 before anything was offered. *)
end
