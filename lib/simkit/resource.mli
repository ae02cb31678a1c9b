(** Processor-sharing resource.

    Models a contended capacity — a CPU complex, a disk's bandwidth, a
    network link — shared among concurrent jobs. Each active job receives
    a rate proportional to its weight:
    [rate(j) = capacity * weight(j) / sum of active weights].

    This is what makes the paper's contention effects emerge naturally:
    booting [n] guest kernels in parallel, each needing [W] units of
    shared work on a unit-capacity resource, completes at time [n * W] —
    the linear-in-[n] boot times of Figure 5. *)

type t

val create : Engine.t -> capacity:float -> t
(** A resource delivering [capacity] work units per simulated second.
    Raises [Invalid_argument] when capacity is not positive. *)

val capacity : t -> float

val set_capacity : t -> float -> unit
(** Change the delivered rate; in-flight jobs are re-paced from now on.
    Used e.g. to model transient NIC degradation. *)

val submit : t -> work:float -> ?weight:float -> (unit -> unit) -> unit
(** [submit t ~work k] enqueues a job needing [work] units and calls [k]
    when it completes. [weight] defaults to 1. Zero-work jobs complete on
    the next engine step. *)

val active_jobs : t -> int
val total_work_done : t -> float
(** Cumulative work units delivered to completed-or-running jobs. *)

val busy_time : t -> float
(** Total simulated time during which at least one job was active. *)
