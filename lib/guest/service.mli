(** Generic network service running inside a guest OS.

    Captures what the downtime experiments need from sshd, JBoss and
    Apache: how long they take to start (split into work that contends
    with other starting services across VMs, and private latency), how
    long to stop, and whether they are currently answering. JBoss's
    large start cost is exactly why the paper's cold-VM reboot hurts it
    so much more than sshd (Figure 6b). *)

type spec = {
  service_name : string;
  start_shared_work : float;
      (** CPU/disk work units consumed on the host's shared CPU complex
          while starting; booting [n] heavy services in parallel
          contends here. *)
  start_private_s : float;  (** non-contended part of startup *)
  stop_private_s : float;
}

type state = Down | Starting | Up | Stopping

type t

val create : Simkit.Engine.t -> cpu:Simkit.Resource.t -> spec -> t

val state : t -> state
val is_up : t -> bool

val start : t -> Simkit.Process.task
(** No-op (immediate) when already up or starting. *)

val stop : t -> Simkit.Process.task

val kill : t -> unit
(** Immediate transition to [Down] — what a suspend at the VMM level or
    a crash looks like from the network: the process is frozen/not
    answering without an orderly stop. *)

val force_up : t -> unit
(** Instantly mark up — used when a resumed VM's frozen processes start
    answering again. *)

val on_transition : t -> (state -> unit) -> unit
(** [on_transition t f] calls [f] with the new state on every state
    change, after the change, in registration order. *)
