(** Software-aging injection and observation.

    Models the concrete aging causes the paper cites for Xen 3.0:

    - heap lost whenever a VM is rebooted (changeset 9392),
    - heap lost on sporadic error paths (changeset 11752),
    - xenstored leaking per transaction (changeset 8640).

    Also provides the observer side: a heap-usage history and a simple
    linear predictor of time-to-exhaustion, which the rejuvenation
    policy can use to schedule a warm-VM reboot proactively. *)

type config = {
  leak_per_domain_destroy_bytes : int;
  leak_per_error_path_bytes : int;
  error_path_mean_interval_s : float;
      (** Exponential inter-arrival of error-path executions; [infinity]
          disables them. *)
  xenstore_leak_per_txn_bytes : int;
}

val xen_3_0_bugs : config
(** Plausible magnitudes for the cited bugs: 64 KiB lost per domain
    destroy, 16 KiB per error path (mean every 10 min), 4 KiB per
    xenstore transaction. *)

type t

val attach : ?config:config -> Vmm.t -> t
(** Install the injection hooks on a VMM and start sampling. The
    injected state is naturally cleared by any VMM reboot (the heap is
    rebuilt) — that is what rejuvenation is. *)

val sample : t -> unit
(** Record a (now, heap used bytes) point. Samples are also taken
    automatically on each injected leak. *)

val heap_history : t -> (float * int) list

val leaked_since_boot : t -> int
(** Heap bytes the current VMM generation has leaked so far. *)

val predict_exhaustion : t -> float option
(** Estimated absolute time at which the VMM heap runs out, from a
    linear fit over the current generation's history. [None] while the
    trend is flat or there are too few samples. *)
