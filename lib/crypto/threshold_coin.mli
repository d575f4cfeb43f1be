(** The Cachin-Kursawe-Shoup threshold coin ("Random oracles in
    Constantinople", PODC 2000) — the source of common randomness that lets
    SINTRA's binary agreement terminate in expected-constant rounds despite
    FLP.

    Dual-threshold [(n, k, t)]: of [n] parties at most [t] are corrupted and
    any [k > t] shares reconstruct the coin; SINTRA uses [k = t+1].  The
    coin named by string [C] evaluates [H'(HashToGroup(C)^x)] where the
    secret [x] is Shamir-shared; unpredictable to any coalition of fewer
    than [k] parties, yet every party's share is publicly verifiable via a
    DLEQ proof. *)

type public = {
  group : Group.t;
  n : int;
  k : int;
  t : int;
  global_vk : Group.elt;         (** [g^x] *)
  share_vks : Group.elt array;   (** [VK_i = g^(x_i)], index [i-1] *)
  share_vk_tbls : Group.table array;
  (** fixed-base window tables for the [VK_i], built by {!deal} so that
      every {!verify_share} is table-driven (see {!Dleq.verify_keyed}) *)
}

type secret_share = {
  index : int;                   (** 1-based party index *)
  key : Group.exponent;          (** [x_i] *)
}

type share = {
  origin : int;                  (** releasing party, 1-based *)
  value : Group.elt;             (** [HashToGroup(C)^(x_i)] *)
  proof : Dleq.t;
}

type keys = { public : public; shares : secret_share array }

val deal : drbg:Hashes.Drbg.t -> group:Group.t -> n:int -> k:int -> t:int -> keys
(** The trusted dealer.  @raise Invalid_argument unless [t < k <= n-t]. *)

val coin_base : public -> string -> Group.elt
(** [HashToGroup] of the coin name. *)

val release : drbg:Hashes.Drbg.t -> public -> secret_share -> name:string -> share
(** Party [share.index]'s share of the coin [name], with its proof:
    {!finish} on a fresh {!draw_nonce}. *)

type nonce
(** A share's only randomness (its proof's commitment exponent), drawn
    before the share is computed. *)

val draw_nonce : drbg:Hashes.Drbg.t -> public -> nonce
(** The DRBG half of {!release}: draws exactly what {!release} draws. *)

val finish : public -> secret_share -> name:string -> nonce -> share
(** The deterministic half of {!release}: the hash to the group, the
    share's exponentiation and its DLEQ proof.  [finish pub sk ~name
    (draw_nonce ~drbg pub)] equals [release ~drbg pub sk ~name] from the
    same DRBG state, byte for byte. *)

val verify_share : public -> name:string -> share -> bool
(** Check the share's DLEQ proof against [VK_origin] — table-driven on the
    [g] side via {!share_vk_tbls}, with [VK_origin]'s membership tested
    once when its table was built (see {!Dleq.verify_keyed}). *)

val verify_share_reference : public -> name:string -> share -> bool
(** {!verify_share}'s exact accept set checked by {!Dleq.verify_reference}
    (no precomputed tables) — the reference twin the equivalence tests and
    the amortization benchmarks compare the fast single and {!Batch} paths
    against. *)

val assemble : public -> name:string -> share list -> len:int -> string
(** Combine [k] distinct verified shares into [len] pseudo-random bytes.
    Any [k]-subset yields the same value.
    @raise Invalid_argument with fewer than [k] distinct origins. *)

val assemble_bit : public -> name:string -> share list -> bool
(** The common case: one unpredictable bit. *)
