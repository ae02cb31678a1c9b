(** Descriptive statistics and least-squares fitting.

    Used by the evaluation harness to summarise repeated runs and to
    reproduce the paper's Section 5.6 linear models. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample. Raises [Invalid_argument] on []. *)

val summarize_opt : float list -> summary option
(** Total variant of {!summarize}: [None] on the empty sample. Metric
    exporters use it so a zero-sample histogram renders as nulls
    instead of aborting the run. *)

val mean : float list -> float
val stddev : float list -> float

type linear = { slope : float; intercept : float; r2 : float }
(** A fitted line [y = slope * x + intercept] with its coefficient of
    determination. *)

val linear_fit : (float * float) list -> linear
(** Ordinary least squares over at least two points with distinct x.
    Raises [Invalid_argument] otherwise. *)

val eval_linear : linear -> float -> float

val pp_linear : ?var:string -> Format.formatter -> linear -> unit
(** Prints e.g. ["-0.55n + 43.0"] using [var] (default ["n"]). *)
