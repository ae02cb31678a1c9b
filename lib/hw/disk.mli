(** Disk device model.

    A single-spindle disk (the paper's 36.7 GB 15 krpm Ultra-320 SCSI
    drive) modelled as one processor-sharing resource whose unit of work
    is "disk seconds": a transfer of [b] bytes costs [b / rate + seek]
    disk seconds, and concurrent transfers share the spindle. This is
    what makes saving eleven 1 GiB memory images in parallel take the
    paper's ~200 seconds. *)

type t

val create :
  Simkit.Engine.t ->
  ?name:string ->
  read_mib_per_s:float ->
  write_mib_per_s:float ->
  seek_ms:float ->
  ?random_penalty:float ->
  ?capacity_bytes:int ->
  unit ->
  t
(** [random_penalty] divides throughput for transfers that lose
    sequentiality — random access patterns, or streams submitted while
    the spindle is already busy (interleaving); default 1.5.
    [capacity_bytes] defaults to 36.7 GB (the paper's SCSI drive). *)

val set_fault_plan : t -> Simkit.Fault.Plan.t option -> unit
(** Attach (or detach) the scenario's fault-injection plan. When the
    plan's ["disk.write"] site fires, {!allocate_space} reports
    [`Disk_full] even though physical space remains. *)

val read :
  t -> bytes:int -> ?random:bool -> ?ops:int -> (unit -> unit) -> unit
(** Read [bytes]; the continuation fires when the transfer completes.
    [ops] is the number of distinct requests (seeks) involved,
    default 1. [random] applies the random-access penalty. *)

val write :
  t -> bytes:int -> ?random:bool -> ?ops:int -> (unit -> unit) -> unit

val sequential_read_time : t -> bytes:int -> float
(** Uncontended duration of a sequential read — for analytic checks. *)

val busy_time : t -> float
(** Total time the spindle has been busy. *)

val bytes_read : t -> int
val bytes_written : t -> int

(** {1 Space accounting} — persistent objects (e.g. saved VM images)
    occupying the drive. *)

val space_free_bytes : t -> int

val allocate_space : t -> bytes:int -> (unit, [ `Disk_full ]) result
(** Claim space before writing a persistent object; fails without side
    effects when the drive cannot hold it. *)

val release_space : t -> bytes:int -> unit
(** Give space back (object deleted / image consumed by a restore).
    Raises [Invalid_argument] when releasing more than is used. *)

(** {1 Observability} *)

val queue_depth : t -> int
(** Transfers currently queued or in flight on the spindle. *)

val observe : ?prefix:string -> Obs.Registry.t -> t -> unit
(** Register pull gauges (bytes read/written, busy seconds, queue
    depth, space used) under ["<prefix>.<disk name>."] (default prefix
    ["hw.disk"]). *)
