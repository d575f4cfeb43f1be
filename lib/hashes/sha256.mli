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

val hex_of_digest : string -> string
(** Lowercase hex of an arbitrary byte string. *)
