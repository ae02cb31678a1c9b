(** TCP session-survival model.

    The paper observes that after a warm-VM or saved-VM reboot the ssh
    session continues "thanks to TCP retransmission", but a 60-second
    client-side timeout kills it during the much longer saved-VM reboot.
    This module computes whether a frozen-then-resumed connection
    survives a given outage, from the retransmission schedule. *)

type config = {
  rto_initial_s : float;  (** first retransmission timeout *)
  rto_max_s : float;  (** exponential backoff cap *)
  max_retries : int;  (** tcp_retries2-style give-up bound *)
}

val default : config
(** Linux-like: 1 s initial RTO, 64 s cap, 15 retries (~ 13 min). *)

val retransmit_offsets : config -> float list
(** Cumulative times (seconds after the first loss) at which
    retransmissions are sent; length [max_retries]. *)

val give_up_after : config -> float
(** Time after which the sender aborts the connection: the instant the
    last retry fires plus one final (capped) wait. *)

val survives : ?config:config -> outage_s:float -> ?client_timeout_s:float -> unit -> bool
(** Does an established session survive a network outage of the given
    length? It dies if the stack gives up first, or if an
    application-level [client_timeout_s] (e.g. an ssh client's
    ServerAliveInterval budget) elapses during the outage. *)
