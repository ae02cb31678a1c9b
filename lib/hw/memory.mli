(** Machine memory with a scrub-time model.

    Wraps the {!Frame} allocator with the timing behaviour the paper's
    Section 5.6 exposes: when the VMM initializes it scrubs (zeroes) the
    memory it considers free, at a fixed rate per GiB. The quick reload
    mechanism skips frames reserved for frozen domains, which is exactly
    why the measured [reboot_vmm(n)] has a negative slope in [n]. *)

type t

val create :
  total_bytes:int -> scrub_seconds_per_gib:float -> t

val frames : t -> Frame.t
(** The underlying machine-frame allocator. *)

val total_bytes : t -> int
val free_bytes : t -> int

val scrub_time : t -> bytes:int -> float
(** Simulated time to scrub that many bytes. *)

val scrub_free_time : t -> float
(** Time to scrub everything currently free — the quick-reload init
    path, where allocated (preserved) frames are skipped. *)

val scrub_all_time : t -> float
(** Time to scrub the whole installed memory — the cold boot path. *)

val wipe : t -> unit
(** Model a hardware reset: every frame becomes free (all contents,
    including frozen domain images, are lost). *)
