(** SHA-256 (FIPS 180-4), incremental and one-shot. *)

type ctx

val init : unit -> ctx
(** A fresh hashing context. *)

val copy : ctx -> ctx
(** An independent context in the same state: feeding one of the two
    leaves the other's digest unchanged. *)

val feed_string : ctx -> string -> unit
(** Absorb the next chunk of input. *)

val finish : ctx -> string
(** Finalize and return the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot 32-byte digest. *)

val digest_list : string list -> string
(** Digest of the concatenation, without building it. *)

(** {2 Midstates}

    A digest whose input always starts with the same long prefix (a
    share-cache key over a statement and one share) hashes the prefix once
    into a midstate and finishes each digest from there. *)

type midstate
(** The state after absorbing a fixed prefix; immutable. *)

val midstate : string list -> midstate
(** The state after absorbing the concatenation of the parts. *)

val midstate_length : midstate -> int
(** The number of prefix bytes the midstate absorbed. *)

val digest_from : midstate -> string list -> string
(** [digest_from (midstate prefix) parts] is
    [digest_list (prefix @ parts)]; the midstate is left unchanged. *)

val hex_of_digest : string -> string
(** Lowercase hex of an arbitrary byte string. *)
