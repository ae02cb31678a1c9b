(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Rng.t]
    so that runs are reproducible from a single seed and independent
    subsystems can be given split, non-interfering streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float
(** Uniform float in [\[0, 1)]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)
