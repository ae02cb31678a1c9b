(** On-disk result cache for deterministic experiment runs.

    A cache maps an opaque key — derived with {!key} from the
    experiment id, its canonical parameter string, the RNG seed and the
    digest of the running executable — to the serialized bytes of the
    run's result. Runs are deterministic, so a hit can stand in for the
    run itself; anything that could change the outcome must be folded
    into the key. Entries are one file each, written atomically
    (temp file + rename), so concurrent writers at worst waste work. *)

type t

val create : ?dir:string -> unit -> t
(** Open (creating directories as needed) the cache rooted at [dir].
    [dir] defaults to [$ROOTHAMMER_CACHE], or ["_cache"] under the
    current directory when the variable is unset. *)

val key : id:string -> params:string -> seed:int -> string
(** Digest of the full identity of a run. [params] must be a canonical
    rendering of the parameters (same params ⇒ same string). The
    digest of the running executable is folded in, so a rebuilt
    simulator (new code, or a recalibrated testbed compiled into it)
    never reads another build's entries. The executable is read once,
    by the first call. *)

val find : t -> string -> string option
(** Stored bytes for a key, if present and readable. *)

val store : t -> string -> string -> unit
(** [store t key bytes] persists atomically; concurrent stores of the
    same key are safe (last rename wins, values are identical by
    construction). *)
