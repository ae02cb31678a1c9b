(** Rejuvenation scheduling policies.

    {!schedule} produces the event timeline of Figure 2: with the
    warm-VM reboot the VMM rejuvenation is independent of each OS's
    time-based rejuvenation; with the cold-VM reboot the VMM
    rejuvenation reboots every OS and restarts their clocks.

    {!Trigger} is the proactive side: decide when a VMM needs
    rejuvenating from the aging model's heap-exhaustion forecast,
    instead of (or in addition to) fixed intervals. *)

type event =
  | Os_rejuvenation of { vm : int; at : float }
  | Vmm_rejuvenation of { at : float }

val event_time : event -> float

val schedule :
  strategy:Strategy.t ->
  vm_count:int ->
  os_interval_s:float ->
  vmm_interval_s:float ->
  horizon_s:float ->
  event list
(** All rejuvenation events in [0, horizon), time-ordered. OS clocks
    start at 0 and, for strategies where the VMM rejuvenation includes
    an OS reboot (cold), restart at each VMM rejuvenation. *)

val os_rejuvenation_count : event list -> int
val vmm_rejuvenation_count : event list -> int

(** Load-aware scheduling: rejuvenation costs work proportional to the
    load it interrupts, so pick the quietest window (the "time and load
    based" policies of Garg et al. that the paper builds on). *)
module Load : sig
  type profile = (float * float) list
  (** Piecewise-constant forecast load: (from this time, load level),
      time-ordered, first breakpoint at 0. *)

  val level_at : profile -> float -> float

  val cost : profile -> start:float -> duration:float -> float
  (** Integral of the load over [start, start + duration] — the work
      displaced by rejuvenating there. *)

  val best_window :
    profile -> duration:float -> horizon:float -> float * float
  (** [(start, cost)] of the cheapest window of the given duration whose
      start lies in [0, horizon - duration]. Raises [Invalid_argument]
      when the horizon cannot fit the window. *)
end

(** Aging-driven proactive triggering. *)
module Trigger : sig
  type decision = Rejuvenate_now | Rejuvenate_within of float | No_action

  val evaluate :
    Xenvmm.Aging.t -> now:float -> lead_time_s:float -> decision
  (** [Rejuvenate_now] when the forecast exhaustion is within
      [lead_time_s] (or the heap is already exhausted);
      [Rejuvenate_within dt] when a trend exists but is further out;
      [No_action] when no upward trend is visible. *)
end
