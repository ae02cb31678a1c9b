(** httperf-style closed-loop load generator.

    Runs a fixed number of concurrent connections; each issues a request,
    waits for the full response, and immediately issues the next. Failed
    requests (server unreachable) are retried after a short backoff, so
    the generator rides through reboots and the throughput series shows
    the outage and the post-reboot recovery — Figure 7's methodology. *)

type t

val create :
  Simkit.Engine.t ->
  ?name:string ->
  ?connections:int ->
  ?retry_backoff_s:float ->
  request:((bool -> unit) -> unit) ->
  unit ->
  t
(** [request k] must eventually call [k success]. [connections]
    defaults to 10 (the paper's 10 httperf processes). *)

val start : t -> unit
val stop : t -> unit
(** In-flight requests complete but no new ones are issued. *)

val completed : t -> int
val failed : t -> int

val counter : t -> Obs.Metric.Counter.t
(** Completion events, with their last-window rate. *)

val observe : ?prefix:string -> Obs.Registry.t -> t -> unit
(** Attach the latency histogram (response times of successful
    requests, in simulated seconds from issue to completion; a retried
    request restarts the clock after its backoff) and completed/failed
    gauges under ["<prefix>.<generator name>."] (default prefix
    ["netsim.httperf"]). *)

val completion_times : t -> Simkit.Fvec.t
(** Timestamps of successful completions in nondecreasing simulated
    time — one O(1) append per request. Read-only for callers (the
    fluid traffic layer measures outage gaps from it); mutating it
    corrupts the throughput queries. *)

val throughput_between : t -> lo:float -> hi:float -> float
(** Completed requests per second over the closed window
    [lo <= time <= hi]. Binary-searches the sorted completion
    timestamps for both endpoints, so each query is O(log
    completions) — repeated windowed queries (bench fig8, fleet
    sampling) no longer pay a full pass. Raises [Invalid_argument]
    when [hi <= lo]. *)

val mean_window_throughput :
  t -> every:int -> (float * float) list
(** Average throughput of each consecutive block of [every] completed
    requests, as (block end time, requests/s) — the paper's "average
    throughput of 50 requests" reporting. Completion timestamps are
    kept in a growable vector ([Simkit.Fvec]): recording is O(1) and a
    query is one pass, with no per-query list rebuild.

    Edge behaviour, by contract: an empty generator returns [[]] (no
    nan-prone sentinel sample), and a trailing {e partial} block
    (fewer than [every] completions since the last full block) is
    dropped — its average would be biased low while requests are
    still in flight. Raises [Invalid_argument] when [every <= 0]. *)
