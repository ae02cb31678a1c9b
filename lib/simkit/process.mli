(** Continuation-passing combinators for multi-step simulated activities.

    A {!task} is an activity that takes time: it receives a continuation
    and must call it exactly once when the activity finishes. Reboot
    procedures compose dozens of such steps — these combinators keep that
    composition readable. *)

type task = (unit -> unit) -> unit
(** [task k] starts the activity and calls [k] on completion. *)

val now : task
(** Completes immediately (synchronously). *)

val delay : Engine.t -> float -> task
(** Completes after a fixed simulated duration. *)

val seq : task list -> task
(** Runs tasks one after another. *)

val par : task list -> task
(** Starts all tasks immediately; completes when every one has
    completed. An empty list completes immediately. *)
