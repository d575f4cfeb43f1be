(** Batch verification of share proofs by small-exponent random linear
    combination (Bellare-Garay-Rabin style), with bisection fall-back.

    Both proof systems carry their Fiat-Shamir commitments, so each proof
    is a pair of algebraic verification equations; [k] proofs are checked
    at once by raising each equation to a nonzero 64-bit coefficient and
    testing the single combined equation with two k-way
    multi-exponentiations ({!Bignum.Nat.powmod_multi}).  Coefficients are
    derived deterministically by hashing the whole batch, so verification
    is reproducible and an adversary must fix its shares before learning
    them; a bad share then survives with probability [2^-64].

    When the combined check fails, the batch is bisected (each sub-batch
    re-derives its own coefficients) down to singleton leaves, which run
    the exact one-share verifier — the reported indices are {e precisely}
    the shares failing individual verification, so Byzantine senders are
    identified exactly as on the one-at-a-time path. *)

type verdict =
  | All_valid          (** every share passes individual verification *)
  | Invalid of int list
  (** the 0-based input positions failing individual verification,
      increasing *)

val dleq :
  Group.t -> g1:Group.elt -> g2:Group.elt -> ?h1_trusted:bool ->
  (string * Group.elt * Group.elt * Dleq.t) list -> verdict
(** Batch-verify DLEQ proofs sharing both statement bases — the
    coin-share/decryption-share shape.  Each item is
    [(ctx, h1, h2, proof)].  [h1_trusted] (default false) skips the
    subgroup membership test on the [h1] side, sound when the [h1] are
    dealer-published verification keys (members by construction); all
    other checks, [z < q] included, match {!Dleq.verify} item-for-item.
    Coefficients hash the well-formed items being combined only. *)

val coin_shares :
  Threshold_coin.public -> name:string -> Threshold_coin.share list ->
  verdict
(** Batch-verify threshold-coin shares for one coin: the {!dleq} batch
    over [g1 = g], [g2 = HashToGroup(name)] with the dealer's verification
    keys trusted.  Agrees with {!Threshold_coin.verify_share} share by
    share. *)

val tsig_shares :
  Threshold_sig.public -> Rsa.stmt -> Threshold_sig.share list -> verdict
(** Batch-verify Shoup signature shares on one prepared statement.  The
    shared base [xtilde = x^(4*Delta)] is computed once for the batch (the
    one-at-a-time path pays it per share), and the combined equation runs
    over integer exponents (the group [QR_n] has unknown order, so nothing
    is reduced).  Agrees with {!Threshold_sig.verify_share} share by
    share. *)
