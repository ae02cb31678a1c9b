(** Guest filesystem: files on a virtual disk read through the page
    cache.

    Reads are split into cached and missing blocks: cached bytes stream
    at memory speed, missing bytes go to the (contended) host disk and
    are inserted into the cache afterwards — which is all the machinery
    the paper's Figure 8 experiments need. *)

type t

type file

type access = Sequential | Random
(** Whether missing blocks are fetched as one sequential run (a large
    file read) or scattered requests (a web server picking files). *)

val create :
  Simkit.Engine.t ->
  disk:Hw.Disk.t ->
  cache:Page_cache.t ->
  ?mem_read_mib_per_s:float ->
  unit ->
  t
(** [mem_read_mib_per_s] defaults to 950 (cached-read bandwidth). *)

val create_file : t -> ?name:string -> bytes:int -> unit -> file
val file_name : file -> string
val file_bytes : file -> int
val files : t -> file list

val read :
  t -> file -> ?access:access -> (unit -> unit) -> unit
(** Read the whole file; continuation fires when all bytes are in. *)

val read_range :
  t ->
  file ->
  offset:int ->
  bytes:int ->
  ?access:access ->
  (unit -> unit) ->
  unit

val cached_fraction : t -> file -> float
(** Fraction of the file's blocks currently resident. *)

val warm_file : t -> file -> unit
(** Instantly mark the whole file resident — experiment setup ("all
    files were cached on memory"). *)

val uncached_read_time : t -> file -> float
(** Analytic uncontended time to read the file entirely from disk. *)

val cached_read_time : t -> file -> float
