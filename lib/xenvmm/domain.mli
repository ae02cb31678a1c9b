(** Virtual machine (domain) bookkeeping.

    Mirrors Xen's terminology: domain 0 is the privileged VM running the
    toolstack; domain Us are the guests. A domain's identity within the
    VMM is its numeric id; its memory is described by its P2M-mapping
    table; its frozen execution state (when on-memory suspended) lives in
    preserved machine frames.

    The guest OS layer plugs its suspend/resume handlers in via
    {!set_suspend_handler}/{!set_resume_handler} — the VMM invokes them
    exactly where real Xen sends the suspend event to the guest kernel
    and where the resumed kernel re-attaches its devices. *)

type id = int

type kind = Dom0 | DomU

type state =
  | Created  (** built, OS not booted *)
  | Booting
  | Running
  | Suspending
  | Suspended  (** frozen on memory, image preserved *)
  | Saving  (** traditional Xen suspend: writing image to disk *)
  | Saved_to_disk
  | Resuming
  | Shutting_down
  | Halted
  | Crashed

val state_name : state -> string

type exec_state = {
  saved_at : float;
  channels : (Event_channel.port * Event_channel.status) list;
  devices : string list;
  state_bytes : int;  (** 16 KiB in RootHammer *)
  state_frames : Hw.Frame.extent list;
      (** preserved frames holding the saved execution state *)
}

type t

val create :
  id:id -> name:string -> kind:kind -> mem_bytes:int -> t
(** Domains start suspendable; see {!set_suspendable}. *)

val suspendable : t -> bool
(** Driver domains — domain Us that run device drivers — cannot be
    suspended (the paper's Section 7 discussion): a warm-VM reboot must
    shut them down and reboot them like the cold path does. *)

val set_suspendable : t -> bool -> unit

val id : t -> id
val name : t -> string
val kind : t -> kind
val mem_bytes : t -> int
val p2m : t -> P2m.t

val p2m_frames : t -> Hw.Frame.extent list
(** Machine frames holding the P2M-mapping table itself. *)

val set_p2m_frames : t -> Hw.Frame.extent list -> unit

val state : t -> state

val set_state : t -> state -> unit
(** Transitions the lifecycle state and notifies observers. Raises
    [Invalid_argument] on transitions the lifecycle forbids (e.g.
    resuming a domain that was never suspended). *)

val transition_allowed : from:state -> to_:state -> bool

val on_state_change : t -> (state -> unit) -> unit

val exec_state : t -> exec_state option
val set_exec_state : t -> exec_state option -> unit

val devices : t -> string list
val attach_device : t -> string -> unit
val detach_all_devices : t -> string list
(** Detach everything, returning what was attached (saved into the
    execution state by the suspend path). *)

val suspend_port : t -> Event_channel.port option
(** The event-channel port the guest kernel bound for suspend requests;
    the VMM notifies it when it wants the domain to suspend. *)

val set_suspend_port : t -> Event_channel.port option -> unit

val set_suspend_handler : t -> Simkit.Process.task -> unit
(** Guest kernel's suspend handler (device detach etc.). *)

val suspend_handler : t -> Simkit.Process.task

val set_resume_handler : t -> Simkit.Process.task -> unit
(** Guest kernel's resume handler (re-bind channels, re-attach
    devices). *)

val resume_handler : t -> Simkit.Process.task

val mem_tracker : t -> Mem.Pagestate.t option
(** The memory-dynamics tracker the VMM attached when memdyn is
    enabled; [None] whenever memdyn is off (the byte-identity
    guarantee rides on that). Travels with the domain through
    suspend/save/restore. *)

val set_mem_tracker : t -> Mem.Pagestate.t option -> unit

val mem_stream : t -> Mem.Stream.t option
(** The in-flight streamed-restore bookkeeping, present only between a
    demand-paged resume and the arrival of the last cold batch. Guest
    request paths read it for the page-fault latency tax. *)

val set_mem_stream : t -> Mem.Stream.t option -> unit

val is_domu : t -> bool

val pp : Format.formatter -> t -> unit
