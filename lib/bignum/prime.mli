(** Primality testing and prime generation.

    Everything takes an explicit [random_bytes] byte source so results are
    deterministic under a seeded DRBG — the SINTRA dealer derives all group
    and key parameters reproducibly from a seed. *)

val is_probable_prime : ?rounds:int -> random_bytes:(int -> string) -> Nat.t -> bool
(** Trial division by all primes below 2000, then [rounds] (default 24)
    Miller-Rabin rounds with random witnesses, all over one
    {!Nat.Montgomery} context for [n].
    @raise Invalid_argument if [n] is odd, has no prime factor below 2000
    and is wider than {!Nat.Montgomery.create} supports (13286 bits). *)

val gen_prime : ?rounds:int -> random_bytes:(int -> string) -> int -> Nat.t
(** [gen_prime ~random_bytes bits] draws a probable prime of exactly [bits]
    bits (top bit forced). *)

val gen_safe_prime : ?rounds:int -> random_bytes:(int -> string) -> int -> Nat.t
(** A safe prime [p = 2q + 1] with [q] prime; the modulus shape required by
    Shoup's RSA threshold-signature scheme. *)

val gen_schnorr_group :
  ?rounds:int -> random_bytes:(int -> string) -> pbits:int -> qbits:int -> unit ->
  Nat.t * Nat.t * Nat.t
(** [(p, q, g)] with [q] prime of [qbits] bits, [p = q*k + 1] prime of
    [pbits] bits, and [g] generating the order-[q] subgroup of [Z_p*].
    This matches the paper's 1024-bit prime with a 160-bit prime factor of
    [p - 1] used by the coin-tossing and threshold-encryption schemes. *)
