(** Schnorr groups: the order-[q] subgroup of [Z_p*] for primes [q | p-1].

    The discrete-log setting of SINTRA's threshold coin (Cachin-Kursawe-
    Shoup) and threshold cryptosystem (Shoup-Gennaro TDH2).  The paper uses
    a 1024-bit [p] whose [p-1] has a 160-bit prime factor [q]; [generate]
    produces such parameters for any sizes.

    {b Fast paths.} [p] is odd by construction (asserted in {!make}), so
    every operation here runs over {!Nat.Montgomery} arithmetic.  Generator
    powers additionally hit a fixed-base window table built once in {!make}
    and stored in the group ({!pow_g}, and {!pow} when the base is [g]);
    {!precompute} builds the same kind of table for any other long-lived
    base, and {!mul_exp2} is Shamir's-trick double exponentiation for the
    [g^z * h^(-c)] shape of share verification. *)

type table
(** A fixed-base exponentiation window table for one group element
    (see {!Nat.Fixed_base}): ~[|q|/4] multiplications and no squarings per
    power, ~6x cheaper than a cold exponentiation once amortized. *)

type t = {
  p : Bignum.Nat.t;         (** field prime (odd) *)
  q : Bignum.Nat.t;         (** subgroup order (prime) *)
  g : Bignum.Nat.t;         (** generator of the order-[q] subgroup *)
  cofactor : Bignum.Nat.t;  (** [(p-1)/q] *)
  g_tbl : table;            (** fixed-base table for [g], built by {!make} *)
  mont : Bignum.Nat.Montgomery.ctx;
  (** [p]'s Montgomery context, built by {!make}: every other power in
      the group exponentiates through it *)
}

type elt = Bignum.Nat.t
(** A subgroup element, in [[1, p)]. *)

type exponent = Bignum.Nat.t
(** An exponent, in [[0, q)] (the closed upper end appears transiently as
    [q - c] with [c = 0] in verification). *)

val make : p:Bignum.Nat.t -> q:Bignum.Nat.t -> g:Bignum.Nat.t -> t
(** Validate and package externally supplied parameters, and build the
    generator's fixed-base table (O([15 * |q|/4]) multiplications, done
    once per group).
    @raise Invalid_argument if [p] is even, [q] does not divide [p-1], or
    [g] does not have order [q]. *)

val generate : drbg:Hashes.Drbg.t -> pbits:int -> qbits:int -> t
(** Deterministically generate fresh parameters from the DRBG. *)

val one : t -> elt
(** The identity element. *)

val mul : t -> elt -> elt -> elt
(** Product in [Z_p*]: one multiplication + reduction. *)

val div : t -> elt -> elt -> elt
(** [div grp a b = a * b^-1]; costs a modular inversion (extended GCD).
    Verification paths avoid it via {!mul_exp2} with exponent [q - c]. *)

val inv : t -> elt -> elt
(** Inverse in [Z_p*] by extended GCD. *)

val pow : t -> elt -> exponent -> elt
(** [pow grp a e] is [a^e mod p] over Montgomery windows (~1.23
    multiplications per exponent bit); when [a] is the generator it
    transparently uses the stored fixed-base table instead. *)

val pow_g : t -> exponent -> elt
(** [pow_g grp e] is [g^e] via the generator's fixed-base table: ~[|q|/4]
    multiplications, no squarings. *)

val pow_table : table -> exponent -> elt
(** [pow_table tbl e] is [base^e] for the base the table was built from
    (falls back to a plain exponentiation if [e] exceeds the table's
    exponent width). *)

val precompute : ?max_bits:int -> t -> elt -> table
(** [precompute grp a] builds a fixed-base table for [a] covering exponents
    up to [max_bits] bits (default [|q|]).  Dealers call this for each
    party's verification key so every later share verification is
    table-driven.  [a] is tested for subgroup membership here, once, so a
    table's base ({!table_base}) is a member by construction.
    @raise Invalid_argument if [a] is not in the order-[q] subgroup. *)

val table_base : table -> elt
(** The element a table was built for (a subgroup member, tested by
    {!precompute}). *)

val mul_exp2 : t -> elt -> exponent -> elt -> exponent -> elt
(** [mul_exp2 grp a ea b eb] is [a^ea * b^eb mod p] by simultaneous double
    exponentiation ({!Nat.powmod2}): ~1.9x faster than two {!pow} calls,
    and no inversion when used as [a^z * b^(q-c)]. *)

val mul_exp_multi : t -> (elt * exponent) list -> elt
(** [mul_exp_multi grp [(a1, e1); ...; (ak, ek)]] is the k-way simultaneous
    product [a1^e1 * ... * ak^ek mod p] ({!Nat.powmod_multi}): one shared
    squaring chain for all [k] exponents, ~[|q|/4] marginal multiplications
    per extra base.  The shape of Lagrange combination over all [k] shares
    and of batched share verification. *)

val elt_equal : elt -> elt -> bool
(** Element equality (use instead of [(=)]). *)

val is_member : t -> elt -> bool
(** Full subgroup membership test ([a^q = 1], [0 < a < p]); applied to every
    incoming group element before use.  One full-width exponentiation. *)

val random_exponent : t -> drbg:Hashes.Drbg.t -> exponent
(** Uniform draw from [[0, q)] by rejection sampling on the DRBG. *)

val hash_to_group : t -> string -> elt
(** Hash an arbitrary string onto the subgroup (counter-mode expansion, then
    cofactor exponentiation) — the random oracle [H'] that names coins.
    Costs one [(|p|-|q|)]-bit exponentiation. *)

val hash_to_exponent : t -> string list -> exponent
(** Fiat-Shamir challenge derivation into [[0, q)]. *)

val elt_to_bytes : t -> elt -> string
(** Fixed-width big-endian encoding ([ceil(|p|/8)] bytes). *)

val elt_of_bytes : string -> elt
(** Inverse of {!elt_to_bytes} (no validation; callers use {!is_member}). *)

val exponent_to_bytes : t -> exponent -> string
(** Fixed-width big-endian encoding ([ceil(|q|/8)] bytes). *)

val exponent_of_bytes : string -> exponent
(** Inverse of {!exponent_to_bytes}. *)
