(** Prepared threshold-signature statements, one table per party.

    Keeps the {!Rsa.prepare}d form of every [(ctx, msg)] statement a party
    signs or checks, so the full-domain hash's SHA-256 work is done once
    per statement per party instead of once per release, share check and
    signature check.  Each entry also keeps the SHA-256 midstate over
    [ctx ‖ msg] that every share-cache key on the statement starts with
    ({!key_prefix}).  The key is the full [(ctx, msg)] pair compared by
    string equality: a hit returns exactly the statement preparing afresh
    would, so acceptance never changes.  Entries are grouped by [ctx] (the
    protocol instance's pid) and evicted with it; at [cap] entries the
    table empties itself.

    An entry also keeps the RSA signatures on its statement this party
    knows are valid, each with its key ({!learn}, {!checked}): an
    RSA-FDH signature is unique for a key and a statement, so {!known}
    can answer a byte-identical pair without re-running the check. *)

type t
(** A table instance (one per party; volatile — crash discards it). *)

val create : cap:int -> t
(** An empty table holding at most [cap] statements.
    @raise Invalid_argument if [cap < 1]. *)

val find : t -> nbytes:int -> ctx:string -> string -> Rsa.stmt
(** The statement for [(ctx, msg)]: the stored one on a hit, else prepared
    for moduli of [nbytes] bytes and stored under group [ctx] (emptying
    the table first if it is full). *)

val key_prefix : t -> ctx:string -> string -> Hashes.Sha256.midstate
(** The midstate over [ctx ‖ msg] from the statement's entry, hashed on
    first use and dropped with the entry.  An absent entry is created
    without preparing the RSA statement (emptying the table first if it is
    full); neither {!hashed} nor {!reused} counts this lookup. *)

val learn : t -> ctx:string -> string -> key:Rsa.public -> string -> unit
(** Record that [signature] is valid under [key] on [(ctx, msg)] — for a
    signature this party made itself.  A no-op when the statement has no
    entry (nothing is created) or [key] already has a signature on it. *)

val known : t -> ctx:string -> string -> key:Rsa.public -> string -> bool
(** Whether [signature] under [key] is byte for byte a pair recorded on
    [(ctx, msg)]'s entry; {!share_known} counts each [true]. *)

val checked : t -> ctx:string -> string -> key:Rsa.public -> string -> bool -> unit
(** Report a real RSA check of [signature] under [key] on [(ctx, msg)]
    and its verdict: {!share_checked} counts it, and a pass is recorded
    as by {!learn}. *)

val share_known : t -> int
(** Signatures answered by {!known} instead of an RSA check. *)

val share_checked : t -> int
(** RSA checks reported through {!checked}. *)

val evict_group : t -> string -> unit
(** Drop every statement of this [ctx] — called when the owning protocol
    instance is garbage-collected. *)

val clear : t -> unit
(** Drop every statement (crash); the counters keep counting. *)

val size : t -> int
(** Live statements ([<= cap] always). *)

val peak : t -> int
(** The largest [size] so far. *)

val hashed : t -> int
(** Lookups that missed and prepared the statement. *)

val reused : t -> int
(** Lookups answered from the table. *)
