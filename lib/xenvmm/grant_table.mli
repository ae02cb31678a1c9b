(** Grant tables: controlled page sharing between domains.

    Xen domains expose pages to each other through grant entries — the
    basis of split-driver I/O rings and zero-copy networking with dom0
    or driver domains. The invariants the hypervisor enforces are the
    interesting part:

    - only the named grantee may map a grant;
    - a domain's pages cannot be freed while foreign mappings exist —
      which is why a guest's suspend handler must detach devices (and
      thereby unmap grants) before the domain can be suspended or torn
      down.

    {!release_domain} models that teardown. *)

type t

type grant_ref = int

type access = Read_only | Read_write

type error = [ `Bad_ref | `Wrong_domain | `Still_mapped ]

val error_message : error -> string

val create : unit -> t

val grant :
  t ->
  owner:Domain.id ->
  grantee:Domain.id ->
  pfn:int ->
  ?access:access ->
  unit ->
  grant_ref
(** Owner offers page [pfn] to [grantee]. Raises [Invalid_argument] on
    self-grants. *)

val map : t -> grant_ref -> by:Domain.id -> (unit, error) result
(** Grantee maps the granted page. Double-mapping the same ref is an
    error ([`Still_mapped]). *)

val is_mapped : t -> grant_ref -> bool
val grants_owned_by : t -> Domain.id -> grant_ref list
val mappings_held_by : t -> Domain.id -> grant_ref list

val foreign_mappings_of : t -> Domain.id -> int
(** Active mappings of the domain's pages held by *other* domains — the
    count that must reach zero before its memory may be frozen or
    freed. *)

val release_domain : t -> Domain.id -> unit
(** Device-teardown semantics: unmap every mapping the domain holds and
    revoke (dropping) every grant it owns, unmapping those first. *)

val check_invariants : t -> (unit, string) result
