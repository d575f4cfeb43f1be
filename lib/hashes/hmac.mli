(** HMAC (RFC 2104) over SHA-1 or SHA-256.  SINTRA authenticates every
    point-to-point link with HMAC under a per-pair symmetric key from the
    dealer (the paper uses HMAC-SHA1 with 128-bit keys). *)

type algo = SHA1 | SHA256

type key
(** A MAC key with its inner and outer hash contexts already past the key
    block, so a link builds it once and pays only for its messages. *)

val key : algo:algo -> string -> key
(** [key ~algo raw] prepares [raw] (hashed first when longer than the
    64-byte block, as RFC 2104 prescribes). *)

val tag : key -> string list -> string
(** The tag of the concatenation of the parts (20 or 32 bytes), streamed
    without building the concatenation. *)

val check : key -> tag:string -> string list -> bool
(** Constant-time comparison of [tag] with the parts' tag. *)

val mac : algo:algo -> key:string -> string -> string
(** [mac ~algo ~key msg] is [tag (key ~algo key) [msg]]. *)

val verify : algo:algo -> key:string -> tag:string -> string -> bool
(** [check (key ~algo key) ~tag [msg]]. *)
