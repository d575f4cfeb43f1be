(** Non-interactive Chaum-Pedersen proofs of discrete-logarithm equality
    (Fiat-Shamir transformed).

    A proof for [(g1, h1, g2, h2)] shows [log_g1 h1 = log_g2 h2] without
    revealing the exponent.  These proofs make the threshold coin and the
    TDH2 threshold cryptosystem {e robust}: a corrupted party cannot inject
    a malformed share.

    Proofs carry the two Fiat-Shamir {e commitments} [(a1, a2)] and the
    response [z]; the challenge [c] is recomputed by the verifier as the
    hash of the statement and commitments.  This makes the verification
    equations [g1^z = a1 * h1^c] and [g2^z = a2 * h2^c] algebraic in the
    proof components, so many proofs can be verified together with one
    small-exponent random linear combination (see {!Batch}); the
    challenge-carrying encoding admits no batching at all. *)

type t = {
  a1 : Group.elt;             (** commitment [g1^r] *)
  a2 : Group.elt;             (** commitment [g2^r] *)
  response : Group.exponent;  (** [z = r + c*x mod q] *)
}

val prove :
  Group.t -> drbg:Hashes.Drbg.t -> ctx:string ->
  g1:Group.elt -> h1:Group.elt -> g2:Group.elt -> h2:Group.elt ->
  x:Group.exponent -> t
(** Prove knowledge of [x] with [h1 = g1^x] and [h2 = g2^x], bound to the
    domain-separation string [ctx]: {!prove_with} on a fresh
    {!draw_nonce}. *)

type nonce
(** A proof's commitment exponent [r], drawn before the proof is made. *)

val draw_nonce : Group.t -> drbg:Hashes.Drbg.t -> nonce
(** Draw the commitment exponent: the proof's only use of the DRBG, so
    the DRBG stream is the same whether or when the proof is finished. *)

val prove_with :
  Group.t -> nonce:nonce -> ctx:string ->
  g1:Group.elt -> h1:Group.elt -> g2:Group.elt -> h2:Group.elt ->
  x:Group.exponent -> t
(** {!prove} with the commitment exponent drawn earlier: deterministic,
    and equal to {!prove} run at the DRBG state the nonce was drawn from. *)

val challenge :
  Group.t -> ctx:string ->
  g1:Group.elt -> h1:Group.elt -> g2:Group.elt -> h2:Group.elt -> t ->
  Group.exponent
(** The Fiat-Shamir challenge [c = H(statement, a1, a2)] this proof is
    checked against — exposed for {!Batch}'s combined verification. *)

val verify :
  Group.t -> ctx:string ->
  g1:Group.elt -> h1:Group.elt -> g2:Group.elt -> h2:Group.elt -> t -> bool
(** Verify a proof whose [h1] and [h2] are both untrusted: each is tested
    for subgroup membership, then each commitment is recomputed as
    [g_i^z * h_i^(q-c)] by one {!Group.mul_exp2} (no inversion — [h_i] is
    order-[q], so [h_i^(q-c) = h_i^(-c)]) and compared to the carried
    commitment.  ~2-3x faster than {!verify_reference}; accepts exactly the
    same proofs. *)

val verify_keyed :
  Group.t -> ctx:string -> g1:Group.elt -> key:Group.table ->
  g2:Group.elt -> h2:Group.elt -> t -> bool
(** {!verify} with [h1] a dealt verification key, given as its fixed-base
    table ([h1 = Group.table_base key]): the first pair is two table hits
    ([g1 = g] hits the group's generator table), and [h1] is not re-tested
    for membership — {!Group.precompute} tested it once, when the table was
    built.  Only the wire element [h2] is tested.  Accepts exactly what
    {!verify} and {!verify_reference} accept on [h1 = Group.table_base key]. *)

val verify_reference :
  Group.t -> ctx:string ->
  g1:Group.elt -> h1:Group.elt -> g2:Group.elt -> h2:Group.elt -> t -> bool
(** The plain verifier (two exponentiations + one inversion per pair),
    kept as the semantic reference for equivalence tests and as the
    benchmark baseline. *)

val to_bytes : Group.t -> t -> string
(** Serialize as [a1 || a2 || response]: two [ceil(|p|/8)]-byte elements
    and one [ceil(|q|/8)]-byte exponent. *)

val of_bytes : Group.t -> string -> t option
(** Inverse of {!to_bytes}; [None] on wrong length. *)
