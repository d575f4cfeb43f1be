(** SHA-1 (FIPS 180-4). SINTRA authenticates every point-to-point link with
    HMAC-SHA1, as the paper does, and {!Hmac} is this module's only user;
    every other hash in the repository is SHA-256. *)

type ctx

val init : unit -> ctx
(** A fresh hashing context. *)

val copy : ctx -> ctx
(** An independent context in the same state: feeding one of the two
    leaves the other's digest unchanged. *)

val feed_string : ctx -> string -> unit
(** Absorb the next chunk of input. *)

val finish : ctx -> string
(** Finalize and return the 20-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot 20-byte digest. *)
