(** Content-addressed identity of an optimization request.

    Chimera's analytical model is deterministic in its inputs: the same
    (chain, machine, config) triple always yields the same plan.  A
    fingerprint is a stable hash over exactly those inputs — every
    semantic ingredient (axes and extents, stage operators with their
    access functions and dtypes, epilogues, machine levels and
    bandwidths, every [Config.t] switch) feeds the digest; display-only
    names (the chain's and machine's top-level name) do not, so two
    structurally identical requests submitted under different labels
    share one cache entry.

    The encoding is a length-prefixed canonical byte string (no
    hash-table iteration order, no float printing ambiguity — floats
    are hashed by their IEEE-754 bits), digested with MD5.  Any change
    to the encoding must bump {!scheme_version}, which wholesale
    invalidates persisted caches.

    Fingerprinting runs on every request, cache hits included, so the
    canonical string is written into a scratch buffer reused per
    domain and digested in place: once a domain has fingerprinted one
    request, the next allocates nothing in the major heap. *)

type t

val scheme_version : int
(** Version of the canonical encoding; part of the plan-cache file
    header. *)

val of_request :
  chain:Ir.Chain.t -> machine:Arch.Machine.t -> config:Chimera.Config.t -> t
(** Fingerprint one optimization request. *)

val to_hex : t -> string
(** 32-character lower-case hex digest. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
