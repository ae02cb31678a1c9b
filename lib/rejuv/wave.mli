(** Rolling-rejuvenation wave planning for a fleet.

    A fleet rejuvenates in {e waves}: batches of hosts taken down
    together while the rest keep serving. The plan partitions the hosts
    into waves no wider than the capacity slack above the SLO floor, so
    that even with a full wave dark the fleet can still meet its target
    — the static half of the guarantee; {!Fleet} re-checks health
    dynamically before admitting each host. *)

(** What a wave does to each of its hosts. *)
type strategy =
  | Reboot of Strategy.t
      (** rejuvenate in place with one of the paper's three reboots *)
  | Migrate
      (** evacuate the guests to a spare host, warm-reboot the VMM
          underneath them, migrate them back (Clark-style pre-copy) *)

val all_strategies : strategy list

val strategy_enum : strategy Simkit.Enum.t
(** ["warm"], ["saved"], ["cold"], ["migrate"] (alias
    ["migrate-then-reboot"]). *)

val strategy_id : strategy -> string
val pp_strategy : Format.formatter -> strategy -> unit

type plan = {
  width : int;  (** effective wave width, after clamping to the slack *)
  slo_floor : int;
      (** minimum healthy hosts the SLO requires: [ceil (slo * hosts)] *)
  waves : int list list;
      (** host indices, partitioned into consecutive waves *)
}

val plan :
  hosts:int -> width:int -> slo:float -> (plan, [> `Msg of string ]) result
(** Partition hosts [0 .. hosts-1] into waves of at most
    [min width (hosts - slo_floor)] hosts. Errors when [hosts] or
    [width] is non-positive, when [slo] is NaN or outside [\[0, 1\]],
    or when the SLO leaves no slack (every host is needed to meet it,
    so none may ever go down). *)

val plan_exn : hosts:int -> width:int -> slo:float -> plan
(** @raise Invalid_argument where {!plan} errors. *)
