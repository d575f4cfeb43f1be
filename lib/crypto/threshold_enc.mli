(** The Shoup-Gennaro TDH2 threshold cryptosystem (EUROCRYPT '98), secure
    against adaptive chosen-ciphertext attack in the random-oracle model.

    The engine of secure {e causal} atomic broadcast (Section 2.6): clients
    encrypt under the single group public key; servers release
    non-interactively verifiable decryption shares only {e after} the
    ciphertext's position in the total order is fixed; any [t+1] shares
    recover the plaintext.  CCA security is what prevents a Byzantine
    server from mauling an honest ciphertext into a related one and
    front-running it. *)

type public = {
  group : Group.t;
  gbar : Group.elt;              (** independent second generator *)
  n : int;
  k : int;
  t : int;
  h : Group.elt;                 (** public key [g^x] *)
  hks : Group.elt array;         (** [h_i = g^(x_i)] *)
  gbar_tbl : Group.table;        (** fixed-base table for [gbar] *)
  h_tbl : Group.table;           (** fixed-base table for [h] *)
  hk_tbls : Group.table array;
  (** fixed-base tables for the [h_i]; with these and the group's own
      generator table, all five exponentiations of {!encrypt} and the first
      verification pair of every {!verify_dec_share} are table-driven *)
}

type secret_share = {
  index : int;
  key : Group.exponent;
}

type keys = { public : public; shares : secret_share array }

type unchecked
(** Phantom tag of a ciphertext nobody has validated yet: decoded off the
    wire ({!ciphertext_of_bytes}) or assembled from fields ({!make}). *)

type checked
(** Phantom tag of a ciphertext that passed {!check}, or that {!encrypt}
    made (valid by construction).  Only these reach {!dec_share},
    {!verify_dec_share} and {!combine}, so a holder validates each
    ciphertext once and can never hand those an unvalidated one. *)

type 'v ciphertext = private {
  c : string;                    (** bulk-encrypted payload *)
  label : string;                (** bound cleartext label *)
  u : Group.elt;                 (** [g^r] *)
  ubar : Group.elt;              (** [gbar^r] *)
  e : Group.exponent;            (** NIZK challenge *)
  f : Group.exponent;            (** NIZK response *)
}
(** A TDH2 ciphertext; ['v] records whether it was validated.  Fields are
    readable everywhere, but only this module builds values. *)

type dec_share = {
  origin : int;
  u_i : Group.elt;               (** [u^(x_i)] *)
  proof : Dleq.t;
}

val deal : drbg:Hashes.Drbg.t -> group:Group.t -> n:int -> k:int -> t:int -> keys
(** The trusted dealer: Shamir-share [x], derive [gbar] and the per-party
    [h_i], and precompute all fixed-base tables.
    @raise Invalid_argument unless [t < k <= n-t]. *)

val encrypt :
  drbg:Hashes.Drbg.t -> public -> label:string -> string -> checked ciphertext
(** Hybrid encryption: a SHA-256 counter-mode stream cipher keyed by
    [H(h^r)] (standing in for the paper's MARS), plus the TDH2 validity
    proof.  The result is valid by construction. *)

val make :
  c:string -> label:string -> u:Group.elt -> ubar:Group.elt ->
  e:Group.exponent -> f:Group.exponent -> unchecked ciphertext
(** A ciphertext from its fields, unvalidated. *)

val check : public -> _ ciphertext -> checked ciphertext option
(** Publicly checkable well-formedness: [e] and [f] reduced mod [q], [u]
    and [ubar] subgroup members, and the validity proof [(e, f)] holds.
    [None] for any mauled ciphertext, including the non-canonical
    [(e, f + q)] re-encoding of an honest one. *)

val ciphertext_valid : public -> _ ciphertext -> bool
(** Whether {!check} accepts. *)

val dec_share :
  drbg:Hashes.Drbg.t -> public -> secret_share -> checked ciphertext ->
  dec_share option
(** Party [sk.index]'s decryption share with its DLEQ correctness proof;
    the ciphertext was validated by {!check}, so this never re-checks it.
    [None] only if [sk] is not a share of this key (index outside
    [[1, n]]). *)

val verify_dec_share : public -> checked ciphertext -> dec_share -> bool
(** The share's DLEQ proof against [h_origin], keyed by its fixed-base
    table ({!Dleq.verify_keyed}: [h_origin]'s membership was tested when
    the dealer built {!hk_tbls}). *)

val combine : public -> checked ciphertext -> dec_share list -> string option
(** Recover the plaintext from the first [k] distinct-origin shares (the
    caller verified them): one [k]-way {!Group.mul_exp_multi} interpolates
    [h^r], then the payload is unmasked.  [None] with fewer than [k]
    distinct origins. *)

val stream_xor : key:string -> string -> string
(** The bulk cipher (exposed for testing). *)

val ciphertext_to_bytes : public -> _ ciphertext -> string
(** Canonical fixed-width wire encoding (what travels in broadcast
    payloads, and what the cost model charges for). *)

val ciphertext_of_bytes : string -> unchecked ciphertext option
(** Inverse of {!ciphertext_to_bytes}; [None] on malformed input.  The
    result still needs {!check}. *)
