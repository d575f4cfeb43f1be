(** Virtual-CPU charging for cryptographic operations.

    Protocols run real cryptography at {!Dealer}'s small key sizes but
    charge the simulated clock for the {e modeled} ones: RSA at
    [Config.model_rsa_bits], discrete logs at the paper's 1024-bit [p] with
    a 160-bit [q] (constants here).  The per-scheme operation counts
    (exponentiations by exponent width) are spelled out in the
    implementation.

    Operations that the real bignum layer serves from a precomputed
    fixed-base window table or as a simultaneous double exponentiation
    charge the cheaper [Sim.Cost.exp_fixed] / [Sim.Cost.exp2] classes,
    mirroring the actual algorithms; the rest are plain square-and-multiply
    exponentiations. *)

type t = {
  meter : Sim.Cost.meter;
  cfg : Config.t;
  trace : Trace.Ctx.t;
}

val rsa_sign : t -> unit
(** One RSA signature at the model key size (a full private
    exponentiation). *)

val rsa_verify : t -> unit
(** One RSA verification (short public exponent). *)

val tsig_release : t -> unit
(** Releasing one threshold-signature share: the share exponentiation
    plus its proof of correctness. *)

val tsig_verify_share : t -> unit
(** Checking one received signature share against its proof. *)

val tsig_verify_share_batch : t -> k:int -> unit
(** Checking [k] signature shares on one message at once by random linear
    combination: the shared base is computed once and the combined
    equation costs two multi-exponentiations, far below [k] single
    checks.  Multi-signature shares do not batch and charge [k] RSA
    verifications. *)

val tsig_assemble : t -> k:int -> unit
(** Combining [k] verified shares into the group signature (Lagrange
    interpolation in the exponent). *)

val tsig_verify : t -> k:int -> unit
(** Verifying an assembled [k]-share group signature. *)

val coin_release : t -> unit
(** Releasing one common-coin share with its proof. *)

val coin_verify_share : t -> unit
(** Checking one received coin share against its proof. *)

val coin_verify_share_batch : t -> k:int -> unit
(** Checking [k] coin (or decryption) shares at once by random linear
    combination: two multi-exponentiations for the combined DLEQ
    equation, far below [k] single checks. *)

val coin_assemble : t -> k:int -> unit
(** Combining [k] verified coin shares into the coin value. *)

val enc_encrypt : t -> bytes:int -> unit
(** Threshold-encrypting a [bytes]-long payload (label hashing included). *)

val enc_dec_share : t -> unit
(** Computing one decryption share with its proof. *)

val enc_verify_share : t -> unit
(** Checking one received decryption share against its proof. *)

val enc_combine : t -> k:int -> bytes:int -> unit
(** Combining [k] decryption shares and unmasking a [bytes]-long
    plaintext. *)

val cache_hit : t -> unit
(** A verified-share cache hit: one flat-key hash-table probe in place of
    a share verification. *)

val hash : t -> bytes:int -> unit
(** Hashing [bytes] of input (charged per compression-function block). *)

val store_append : t -> bytes:int -> unit
(** Appending [bytes] to the durable write-ahead log (CRC pass plus a
    buffered sequential write). *)
