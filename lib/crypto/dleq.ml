(* Non-interactive Chaum-Pedersen proofs of discrete-log equality, made
   non-interactive with the Fiat-Shamir transform.

   A proof for ((g1, h1), (g2, h2)) convinces a verifier that
   log_{g1} h1 = log_{g2} h2 without revealing the exponent.  These proofs
   justify threshold-coin shares and threshold-decryption shares, making both
   schemes robust: a corrupted party cannot inject a bogus share.

   The proof carries the two commitments (a1, a2) and the response z; the
   challenge is recomputed by the verifier as c = H(statement, a1, a2).
   Carrying commitments instead of the challenge costs two group elements of
   wire size but makes the verification equations

       g1^z = a1 * h1^c        g2^z = a2 * h2^c

   algebraic in the proof components, which is what allows many proofs to be
   checked together by a small-exponent random linear combination (see
   {!Batch}); a challenge-carrying proof hides the commitments inside the
   hash and admits no batching at all. *)

open Bignum

type t = {
  a1 : Group.elt;              (* commitment g1^r *)
  a2 : Group.elt;              (* commitment g2^r *)
  response : Group.exponent;   (* z = r + c*x mod q, c = H(...,a1,a2) *)
}

let transcript grp ~ctx ~g1 ~h1 ~g2 ~h2 ~a1 ~a2 =
  [ "dleq"; ctx;
    Group.elt_to_bytes grp g1; Group.elt_to_bytes grp h1;
    Group.elt_to_bytes grp g2; Group.elt_to_bytes grp h2;
    Group.elt_to_bytes grp a1; Group.elt_to_bytes grp a2 ]

(* The commitments must be serializable into the transcript, so reject
   out-of-range field elements up front (proofs arrive off the wire).  The
   response must be reduced: z and z + q satisfy the same equations, and
   accepting both would let anyone re-encode an honest proof into a
   distinct valid one. *)
let well_formed grp (proof : t) : bool =
  not (Nat.is_zero proof.a1)
  && Nat.compare proof.a1 grp.Group.p < 0
  && not (Nat.is_zero proof.a2)
  && Nat.compare proof.a2 grp.Group.p < 0
  && Nat.compare proof.response grp.Group.q < 0

let challenge grp ~(ctx : string) ~g1 ~h1 ~g2 ~h2 (proof : t) : Group.exponent =
  Group.hash_to_exponent grp
    (transcript grp ~ctx ~g1 ~h1 ~g2 ~h2 ~a1:proof.a1 ~a2:proof.a2)

(* A proof's only randomness is its commitment exponent r.  Drawing it is
   the only use of the DRBG, so a prover can draw r when its DRBG turn
   comes and compute the proof later — or never — without moving the
   DRBG stream. *)
type nonce = Group.exponent

let draw_nonce grp ~(drbg : Hashes.Drbg.t) : nonce = Group.random_exponent grp ~drbg

(* [prove_with grp ~nonce ~ctx ~g1 ~h1 ~g2 ~h2 ~x] with h1 = g1^x,
   h2 = g2^x: deterministic given the nonce. *)
let prove_with grp ~nonce:(r : nonce) ~(ctx : string) ~g1 ~h1 ~g2 ~h2
    ~(x : Group.exponent) : t =
  let a1 = Group.pow grp g1 r and a2 = Group.pow grp g2 r in
  let c = Group.hash_to_exponent grp (transcript grp ~ctx ~g1 ~h1 ~g2 ~h2 ~a1 ~a2) in
  let response = Nat.rem (Nat.add r (Nat.mul c x)) grp.Group.q in
  { a1; a2; response }

let prove grp ~(drbg : Hashes.Drbg.t) ~(ctx : string) ~g1 ~h1 ~g2 ~h2 ~(x : Group.exponent) : t =
  prove_with grp ~nonce:(draw_nonce grp ~drbg) ~ctx ~g1 ~h1 ~g2 ~h2 ~x

(* Fast verification.  Each commitment is recomputed as
     a_i = g_i^z * h_i^(q-c)
   — valid because h_i is an order-q member, so h_i^(q-c) = h_i^(-c) with
   no modular inversion — and compared against the carried commitment.
   Each pair costs one simultaneous double exponentiation (Shamir's trick)
   instead of two exponentiations plus an inversion; [recompute_a1] lets
   the keyed form below turn the first pair into two table hits (g1 = g
   hits the group's own table inside [Group.pow]). *)
let equations grp ~(ctx : string) ~g1 ~h1 ~g2 ~h2
    ~(recompute_a1 : Group.exponent -> Group.elt) (proof : t) : bool =
  let c = challenge grp ~ctx ~g1 ~h1 ~g2 ~h2 proof in
  let neg_c = Nat.sub grp.Group.q c in
  Group.elt_equal (recompute_a1 neg_c) proof.a1
  && Group.elt_equal (Group.mul_exp2 grp g2 proof.response h2 neg_c) proof.a2

let verify grp ~(ctx : string) ~g1 ~h1 ~g2 ~h2 (proof : t) : bool =
  well_formed grp proof
  && Group.is_member grp h1 && Group.is_member grp h2
  && equations grp ~ctx ~g1 ~h1 ~g2 ~h2 proof
       ~recompute_a1:(fun neg_c -> Group.mul_exp2 grp g1 proof.response h1 neg_c)

(* The statement's h1 is a dealt verification key: it comes from the key's
   fixed-base table, whose base [Group.precompute] tested for membership
   when the dealer built it, so only the wire element h2 is tested here. *)
let verify_keyed grp ~(ctx : string) ~g1 ~(key : Group.table) ~g2 ~h2
    (proof : t) : bool =
  well_formed grp proof
  && Group.is_member grp h2
  && equations grp ~ctx ~g1 ~h1:(Group.table_base key) ~g2 ~h2 proof
       ~recompute_a1:(fun neg_c ->
         Group.mul grp (Group.pow grp g1 proof.response) (Group.pow_table key neg_c))

(* The pre-fast-path verifier (two powmods + an inversion per pair), kept
   for equivalence tests and the bench comparison.  [Group.pow] still hits
   the generator table when g_i = g; [Nat.powmod_barrett] below it is the
   benchmark's fully-plain baseline. *)
let verify_reference grp ~(ctx : string) ~g1 ~h1 ~g2 ~h2 (proof : t) : bool =
  well_formed grp proof
  && Group.is_member grp h1 && Group.is_member grp h2
  && begin
    let c = challenge grp ~ctx ~g1 ~h1 ~g2 ~h2 proof in
    (* Recompute the commitments: a_i = g_i^z * h_i^(-c). *)
    let recompute g h =
      Group.div grp
        (Nat.powmod g proof.response grp.Group.p)
        (Nat.powmod h c grp.Group.p)
    in
    Group.elt_equal (recompute g1 h1) proof.a1
    && Group.elt_equal (recompute g2 h2) proof.a2
  end

let to_bytes grp (t : t) : string =
  Group.elt_to_bytes grp t.a1 ^ Group.elt_to_bytes grp t.a2
  ^ Group.exponent_to_bytes grp t.response

let of_bytes grp (s : string) : t option =
  let pbytes = (Nat.numbits grp.Group.p + 7) / 8 in
  let qbytes = (Nat.numbits grp.Group.q + 7) / 8 in
  if String.length s <> (2 * pbytes) + qbytes then None
  else
    Some {
      a1 = Group.elt_of_bytes (String.sub s 0 pbytes);
      a2 = Group.elt_of_bytes (String.sub s pbytes pbytes);
      response = Group.exponent_of_bytes (String.sub s (2 * pbytes) qbytes);
    }
