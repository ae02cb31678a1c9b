(** Typed fault taxonomy and deterministic fault-injection plane.

    Every layer of the simulator reports failures as a [Fault.t] value
    carried on a [('a, Fault.t) result] CPS channel instead of aborting
    the process with an untyped [Failure].  Faults are plain immutable
    data:
    they marshal, compare structurally, and render to stable ids for
    CSV/JSON export.

    The {!Plan} sub-module is a seeded registry of named injection
    points ("vmm.suspend", "disk.write", ...) armed with per-site
    triggers.  Components consult their scenario's plan at each site;
    a fired trigger makes the component return the corresponding fault
    through its ordinary error channel, so recovery paths can be
    exercised deterministically. *)

type t =
  | Disk_full  (** Backing store has no room for a saved image. *)
  | Out_of_memory  (** Machine memory exhausted. *)
  | Heap_exhausted  (** VMM heap cannot hold the bookkeeping. *)
  | Vmm_down  (** Operation needs a running VMM. *)
  | Bad_domain_state of string  (** Domain is in the wrong state. *)
  | Image_lost of string  (** Preserved/saved image vanished across reboot. *)
  | No_image_staged  (** Quick reload with nothing staged. *)
  | Suspend_failed of string  (** Named domain failed to suspend. *)
  | Resume_failed of string  (** Named domain failed to resume/restore. *)
  | Reload_failed  (** The quick reload of the VMM image failed. *)
  | Driver_timeout of string  (** Driver VM did not reprovision in time. *)
  | Boot_failed of string  (** A boot step did not come back. *)
  | Not_recovered of string  (** Recovery policy exhausted; subject lost. *)
  | Stalled of string  (** Simulation drained with the step incomplete. *)
  | Timeout of { what : string; deadline_s : float }
      (** Step missed an explicit simulated-time deadline. *)
  | Invariant of string  (** Internal invariant violated (a bug). *)

exception Error of t
(** Escape hatch for contexts with no result channel (drivers, test
    harnesses).  Library code raises it only via {!fail}. *)

val fail : t -> 'a
(** [fail f] raises {!Error}. *)

val to_string : t -> string
(** Human-readable one-liner including the payload. *)

val pp : Format.formatter -> t -> unit

val injection_sites : (string * string) list
(** Canonical named injection points as [(site, doc)] pairs, in stable
    (sorted) order:
    ["disk.write"], ["driver.reprovision"], ["vmm.reload"],
    ["vmm.suspend"], ["xend.resume"]. *)

val is_injection_site : string -> bool

(** A deterministic, seeded schedule of faults to inject. *)
module Plan : sig
  type t

  type trigger =
    | Never
    | Always
    | On_nth of int  (** Fire on exactly the [n]-th call (1-based). *)
    | Prob of float  (** Fire each call with probability [p]. *)

  val create : ?seed:int -> unit -> t
  (** A plan with no armed sites. [seed] (default 0) feeds the per-site
      RNG streams used by [Prob] triggers. *)

  val arm : t -> site:string -> trigger -> unit
  (** Arms [site] with [trigger], resetting its call/fired counters.
      Each armed site gets its own split RNG stream at arm time, so
      firing decisions are independent of call interleaving across
      sites. Raises {!Error} [(Invariant _)] if [site] is not one of
      {!injection_sites}. *)

  val fires : t -> site:string -> bool
  (** Consulted by components at the injection point. Counts the call
      and evaluates the trigger. Unarmed sites never fire. *)

  val calls : t -> site:string -> int
  (** Times [fires] was consulted for [site] since it was armed. *)

  val fired : t -> site:string -> int
  (** Times [fires] returned [true] for [site] since it was armed. *)

  val total_fired : t -> int

  val armed_sites : t -> string list
  (** Sorted. *)
end
