(** Shoup's practical RSA threshold signatures (EUROCRYPT 2000).

    Dual-threshold [(n, k, t)] signatures over a safe-prime RSA modulus: any
    [k] verified signature shares combine — by integer Lagrange
    interpolation in the exponent, scaled by [Delta = n!] — into a
    {e standard} RSA signature verifiable with the public key [(n, e)]
    alone.  Share correctness is proved with a non-interactive
    equality-of-logs proof over the unknown-order group [QR_n].  SINTRA uses
    these (or the interchangeable multi-signatures) inside consistent
    broadcast (k = ceil((n+t+1)/2)) and Byzantine agreement (k = n-t). *)

type public = {
  rsa : Rsa.public;
  (** the RSA key [(n, e)]: modulus [pq] of safe primes, prime exponent,
      with [n]'s Montgomery context built by {!deal} — assembled
      signatures verify under it as plain RSA signatures *)
  nparties : int;
  k : int;
  t : int;
  v : Bignum.Nat.t;             (** verification base, generates [QR_n] *)
  vks : Bignum.Nat.t array;     (** [v_i = v^(s_i)], index [i-1] *)
  v_tbl : Bignum.Nat.Fixed_base.ctx;
  (** fixed-base window table for [v], wide enough for the integer proof
      response [z = s_i*c + r] ([|n| + 2*256 + 1] bits), built by {!deal};
      makes the [v]-power of every {!release} and {!verify_share} a
      squaring-free table walk *)
}

type secret_share = {
  index : int;                  (** 1-based *)
  s_i : Bignum.Nat.t;           (** polynomial share of [d = e^-1 mod p'q'] *)
}

type share = {
  origin : int;
  x_i : Bignum.Nat.t;           (** [x^(2*Delta*s_i) mod n] *)
  proof_v : Bignum.Nat.t;       (** proof commitment [v^r] *)
  proof_x : Bignum.Nat.t;       (** proof commitment [xtilde^r] *)
  proof_z : Bignum.Nat.t;       (** integer response [s_i*c + r] *)
}
(** The equality-of-logs proof carries its commitments; the Fiat-Shamir
    challenge is recomputed by verifiers.  This keeps the verification
    equations [v^z = v' * v_i^c] and [xtilde^z = x' * (x_i^2)^c] algebraic
    in the proof components, so {!Batch.tsig_shares} can check many shares
    with one small-exponent random linear combination. *)

type keys = { public : public; shares : secret_share array }

val deal :
  ?e:Bignum.Nat.t -> drbg:Hashes.Drbg.t -> modulus_bits:int ->
  nparties:int -> k:int -> t:int -> unit -> keys
(** The trusted dealer: safe-prime modulus, sharing of [d], verification
    keys.  @raise Invalid_argument unless [t < k <= nparties - t]. *)

val release :
  drbg:Hashes.Drbg.t -> public -> secret_share -> Rsa.stmt -> share
(** Party [i]'s signature share [x^(2*Delta*s_i)] on a prepared statement
    ({!Rsa.stmt_for} [rsa]), with its proof of correctness; the proof
    commitment [v^r] rides the {!v_tbl} fixed-base table. *)

val xtilde_rep : public -> Rsa.stmt -> Bignum.Nat.t
(** [xtilde = x^(4*Delta) mod n] for the message representative [x] — the
    common base of every share proof on the same message.  Exposed so batch
    verification computes it once per message instead of once per share. *)

val share_challenge : public -> xtilde:Bignum.Nat.t -> share -> Bignum.Nat.t
(** The Fiat-Shamir challenge [c = H(v, xtilde, v_i, x_i^2, v', x')] this
    share's proof is checked against — exposed for {!Batch}'s combined
    verification equation. *)

val verify_share : public -> Rsa.stmt -> share -> bool
(** Check the share's equality-of-logs proof: recompute the challenge from
    the carried commitments and check both verification equations.  All
    exponents positive (no inversions); the [v]-power is a fixed-base
    table walk ({!v_tbl}) and the challenge powers are short. *)

val verify_share_reference : public -> ctx:string -> string -> share -> bool
(** The textbook path: {!verify_share}'s exact accept set computed with
    plain modular exponentiations only (no fixed-base table), on a
    statement it prepares itself — the reference twin the equivalence
    tests and the amortization benchmarks compare the fast single and
    {!Batch} paths against. *)

val assemble : public -> Rsa.stmt -> share list -> string
(** Combine [k] distinct verified shares into the standard RSA signature
    (the same bytes whichever subset is used).
    @raise Invalid_argument with fewer than [k] distinct origins. *)

val verify : public -> signature:string -> Rsa.stmt -> bool
(** Plain RSA verification — usable by anyone holding only [(n, e)]. *)
