(** RSA with full-domain-hash signatures.

    Every SINTRA party holds an ordinary signing key (used by the atomic
    broadcast protocol to sign per-round messages), and the multi-signature
    implementation of threshold signatures is a vector of these.  Signing
    uses CRT, the optimization the paper credits for the fast
    multi-signature path (Figure 6). *)

type public = {
  n : Bignum.Nat.t;
  e : Bignum.Nat.t;
  mont : Bignum.Nat.Montgomery.ctx;
  (** [n]'s Montgomery context, built once with the key: every
      verification exponentiates through it *)
}

type secret = {
  pub : public;
  d : Bignum.Nat.t;
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
  d_p : Bignum.Nat.t;     (** [d mod p-1] *)
  d_q : Bignum.Nat.t;     (** [d mod q-1] *)
  q_inv : Bignum.Nat.t;   (** [q^-1 mod p] *)
  mont_p : Bignum.Nat.Montgomery.ctx;   (** for the CRT half mod [p] *)
  mont_q : Bignum.Nat.Montgomery.ctx;   (** for the CRT half mod [q] *)
}

val make_public : n:Bignum.Nat.t -> e:Bignum.Nat.t -> public
(** A public key with its Montgomery context.
    @raise Invalid_argument on an even [n]. *)

val keygen : ?e:Bignum.Nat.t -> drbg:Hashes.Drbg.t -> bits:int -> unit -> secret
(** Deterministic (DRBG-driven) key generation with a [bits]-bit modulus. *)

(** {2 Full-domain hash, in two halves} *)

type stmt
(** A prepared statement: the key-independent half of the full-domain
    hash of [(ctx, msg)] — the SHA-256 blocks over
    ["rsa-fdh|" ctx "|" i "|" msg] for one modulus byte length.  Signing
    or checking it under a key costs one reduction mod [n], not the
    hashing; a [k]-signature multi-signature hashes its statement once. *)

val prepare : nbytes:int -> ctx:string -> string -> stmt
(** Hash [(ctx, msg)] for moduli of [nbytes] bytes. *)

val stmt_for : public -> ctx:string -> string -> stmt
(** {!prepare} for this key's modulus length. *)

val stmt_ctx : stmt -> string
(** The context the statement was prepared under. *)

val stmt_msg : stmt -> string
(** The message the statement was prepared for. *)

val fdh_stmt : public -> stmt -> Bignum.Nat.t
(** The full-domain hash of the statement's message into [[0, n)],
    domain-separated by its [ctx] (SINTRA binds every signature to its
    protocol instance).  A statement prepared for another modulus length
    is re-hashed for this one, so the result is always that of
    [stmt_for pub ~ctx msg]. *)

val crt_power : secret -> Bignum.Nat.t -> Bignum.Nat.t
(** [x^d mod n] by the Chinese remainder theorem (~4x faster than the
    direct exponentiation), over the key's held contexts for [p] and
    [q]. *)

val sign_stmt : secret -> stmt -> string
(** FDH signature on a prepared statement, as a fixed-width byte string. *)

val verify_stmt : public -> signature:string -> stmt -> bool
(** FDH verification of a prepared statement: one short exponentiation
    ([e = 65537] is 17 multiplications). *)

val sign : secret -> ctx:string -> string -> string
(** {!sign_stmt} on a freshly prepared statement. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** {!verify_stmt} on a freshly prepared statement. *)

val signature_bytes : public -> int
(** Signature size (the modulus byte length), for wire-cost accounting. *)
