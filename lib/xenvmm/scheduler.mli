(** Credit-scheduler model: weighted proportional sharing of the
    physical CPUs among domains, with optional caps.

    Xen's credit scheduler gives each domain CPU time proportional to
    its weight (default 256), optionally capped at a fixed fraction of
    one CPU. The model exposes the same semantics over the simulation's
    processor-sharing machinery: work submitted for a domain progresses
    at [capacity * weight_share], further limited by the domain's cap.

    This is the substrate behind "shutting down and booting multiple
    operating systems in parallel cause resource contention among
    them" — with non-default weights, that contention becomes
    controllable. *)

type t

type params = {
  weight : int;  (** relative share; Xen default 256 *)
  cap_percent : int option;
      (** hard ceiling as percent of one physical CPU; [None] = no cap *)
}

val default_params : params

val create : Simkit.Engine.t -> ?physical_cpus:int -> unit -> t
(** A scheduler over [physical_cpus] (default 4 — the paper's two
    dual-core Opterons). Total capacity is [physical_cpus] CPU-seconds
    per second. *)

val physical_cpus : t -> int

val set_params : t -> domid:Domain.id -> params -> unit
(** Configure a domain's weight/cap (like [xm sched-credit]). Takes
    effect for work submitted afterwards. *)

val params_of : t -> domid:Domain.id -> params

val run_work :
  t -> domid:Domain.id -> work:float -> (unit -> unit) -> unit
(** Execute [work] CPU-seconds on behalf of a domain; the continuation
    fires when it completes under the current contention. A capped
    domain progresses at most at [cap] even on an idle host. *)

val remove_domain : t -> domid:Domain.id -> unit
(** Drop a domain's parameters (its in-flight work still completes). *)

val utilization : t -> float
(** Fraction of total CPU-time delivered so far vs elapsed busy time
    (1.0 = fully busy whenever any work was pending). *)
