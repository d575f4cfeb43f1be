(** Arbitrary-precision natural numbers (unsigned).

    This is the arithmetic substrate for all of SINTRA's public-key
    cryptography (the sealed build environment has no [zarith]).  Values are
    immutable little-endian limb arrays in base 2{^31}, chosen so a limb
    product plus two carries fits OCaml's 63-bit native [int].

    Complexity notes below write [k] for the operand size in limbs and [e]
    for exponent bits.  Unless noted, operations cost the usual schoolbook
    bounds; multiplication switches to Karatsuba above a fixed limb
    threshold.

    {b Fast paths.} Modular exponentiation — the dominant cost of every
    SINTRA protocol instance — runs on one multiply-reduce kernel: the
    product-scanning {!Montgomery} multiply over fixed-length residues of
    26-bit limbs, which allocates nothing and runs no carry chain.  Three
    exponentiation shapes sit on it: {!powmod} (single base, 4-bit
    windows), {!powmod2} / {!powmod_multi} (simultaneous
    multi-exponentiation, Shamir's trick) and {!Fixed_base} (precomputed
    window tables for a long-lived base).  Values convert between the two
    limb bases only on entering and leaving the Montgomery domain.
    {!powmod_barrett} is the reference path, kept for equivalence testing
    and benchmarking. *)

type t
(** A natural number.  Structurally comparable only via {!compare}/{!equal}
    (the representation is normalized, but do not rely on it). *)

val zero : t
(** The natural number 0. *)

val one : t
(** The natural number 1. *)

val two : t
(** The natural number 2. *)

val is_zero : t -> bool
(** [is_zero a] iff [a = 0].  O(1). *)

val of_int : int -> t
(** [of_int x] converts a non-negative OCaml int.
    @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some x] iff [a] fits in an OCaml [int]. *)

val compare : t -> t -> int
(** Total order; magnitude comparison in O(k). *)

val equal : t -> t -> bool
(** [equal a b] iff the values are equal (O(k)); use instead of [(=)]. *)

val numbits : t -> int
(** Number of significant bits; [numbits zero = 0].  O(1). *)

val num_limbs : t -> int
(** Internal limb count (for cost accounting).  O(1). *)

val testbit : t -> int -> bool
(** [testbit a i] is bit [i] (LSB = bit 0); [false] beyond the top.  O(1). *)

val add : t -> t -> t
(** Addition, O(k). *)

val sub : t -> t -> t
(** [sub a b] requires [a >= b].  O(k).
    @raise Invalid_argument on underflow. *)

val mul : t -> t -> t
(** Product: schoolbook O(k{^2}) below 32 limbs, Karatsuba
    O(k{^ 1.585}) above. *)

val mul_limb : t -> int -> t
(** [mul_limb a m] for a single limb [0 <= m < 2]{^31}.  O(k). *)

val sqr : t -> t
(** [sqr a = mul a a]. *)

val shift_left : t -> int -> t
(** [shift_left a n] is [a * 2]{^ [n]}.  O(k). *)

val shift_right : t -> int -> t
(** [shift_right a n] is [a / 2]{^ [n]} (floor).  O(k). *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)] by Knuth's Algorithm D (TAOCP 4.3.1;
    HAC 14.20).  O(k{^2}).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
(** Quotient of {!divmod}. *)

val rem : t -> t -> t
(** Remainder of {!divmod}. *)

(** Barrett reduction for a fixed modulus: one precomputed reciprocal turns
    every reduction into two multiplications and at most two subtractions
    (HAC 14.42).  Used by {!powmod} for even moduli and by
    {!powmod_barrett}, and exposed for callers with long-lived moduli. *)
module Barrett : sig
  type ctx
  (** Precomputed reciprocal [floor(base]{^ 2k}[ / m)] for a fixed modulus
      [m] of [k] limbs. *)

  val create : t -> ctx
  (** [create m] precomputes the reciprocal: one O(k{^2}) division.
      @raise Division_by_zero on a zero modulus. *)

  val reduce : ctx -> t -> t
  (** [reduce ctx x] is [x mod m]; two multiplications when
      [x < base]{^ 2k}, falling back to plain division beyond. *)
end

(** Montgomery representation for a fixed {e odd} modulus (HAC 14.32/14.36):
    residues are stored as [x * R mod m] with [R = 2]{^ 26k}, in exactly [k]
    limbs of base 2{^26}.  A product is one product-scanning (FIPS) pass:
    each output column sums its up to [2k] limb products of 52 bits in one
    native [int], with no carry chain and no memory but the [k]-limb
    output, and the column's low limb is cancelled by a multiple of [m] —
    no quotient estimation.  {!powmod}, {!powmod2}, {!powmod_multi} and
    {!Fixed_base} route every odd modulus (all of SINTRA's groups and RSA
    moduli) through it. *)
module Montgomery : sig
  type ctx
  (** Precomputed [-m]{^ -1}[ mod 2]{^26} and [R]{^2}[ mod m] for an odd
      modulus [m].  Immutable: it holds no scratch. *)

  type residue
  (** A Montgomery-form residue: [k] limbs of base 2{^26}. *)

  val create : t -> ctx
  (** [create m] for odd [m] of at most 511 26-bit limbs (13286 bits), the
      width up to which a column sum cannot overflow.  O(k{^2}).
      @raise Invalid_argument on an even or a wider modulus.
      @raise Division_by_zero on a zero modulus. *)

  val to_mont : ctx -> t -> residue
  (** [to_mont ctx x] is [x * R mod m]; requires [x < m]. *)

  val of_mont : ctx -> residue -> t
  (** [of_mont ctx x] is [x * R]{^ -1}[ mod m] — inverse of {!to_mont}. *)

  val mul : ctx -> residue -> residue -> residue
  (** Product of two Montgomery-form residues, in Montgomery form: one
      product-scanning pass of [2 * k * k] limb products. *)

  val sqr : ctx -> residue -> residue
  (** [sqr ctx a = mul ctx a a]. *)

  val one_m : ctx -> residue
  (** The Montgomery form of 1, i.e. [R mod m]. *)
end

val powmod : t -> t -> t -> t
(** [powmod b e m] is [b]{^ [e]}[ mod m] by 4-bit fixed windows — over
    {!Montgomery} multiplication when [m] is odd (the fast path taken by
    every SINTRA group operation), over {!Barrett} reduction otherwise.
    In the Montgomery domain the squaring chain reuses two residue buffers,
    so after its tables an exponentiation allocates nothing.
    ~1.23 modular multiplications per exponent bit (HAC 14.82/14.94).
    [powmod b zero m = 1] for [m > 1]; [powmod b e one = 0].
    @raise Division_by_zero if [m] is zero. *)

val powmod_barrett : t -> t -> t -> t
(** Reference path: {!powmod} forced onto Barrett reduction regardless of
    modulus parity.  Same results as {!powmod} always; kept for randomized
    equivalence tests and for the [bench/micro.ml] plain-vs-Montgomery
    comparison. *)

val powmod2 : t -> t -> t -> t -> t -> t
(** [powmod2 b1 e1 b2 e2 m] is [b1]{^ [e1]}[ * b2]{^ [e2]}[ mod m] by
    simultaneous double exponentiation — Shamir's trick with 2-bit
    interleaved windows (HAC 14.88): one shared squaring chain over
    [max (numbits e1) (numbits e2)] bits and a 16-entry digit-pair table,
    i.e. ~1.5 multiplications per bit where two separate {!powmod} calls
    pay ~2.5.  This is the shape of every DLEQ / threshold-share
    verification ([g]{^ z}[ h]{^ -c}), the protocols' hottest operation.
    Exponents of differing bit-lengths are handled by the shared chain
    (the shorter exponent simply contributes zero digits at the top).
    Montgomery domain for odd [m], Barrett otherwise.
    @raise Division_by_zero if [m] is zero. *)

val powmod_multi : (t * t) list -> t -> t
(** [powmod_multi [(b1, e1); ...; (bk, ek)] m] is the k-way simultaneous
    multi-exponentiation [b1]{^ [e1]}[ * ... * bk]{^ [ek]}[ mod m],
    generalizing {!powmod2} to any number of bases: one shared squaring
    chain over the longest exponent, with the bases grouped into blocks of
    two sharing {!powmod2}-style 16-entry digit-pair tables, so each block
    adds at most one multiplication per two exponent bits to the shared
    chain.  For [k] full-width exponents this costs ~[(1 + k/2) * e/2 + e]
    multiplications where [k] separate {!powmod} calls pay ~[1.5 * k * e] —
    the shape of batched share verification and Lagrange combination over
    all [k] shares.  [powmod_multi [] m = 1 mod m]; one pair delegates to
    {!powmod}, two to {!powmod2}.
    @raise Division_by_zero if [m] is zero. *)

(** Fixed-base precomputation (HAC 14.109 family): for a base reused across
    many exponentiations — the group generator, a party's public key —
    precompute [base]{^ d*16{^i}} for every 4-bit digit position [i] and
    digit [d].  {!Fixed_base.pow} then multiplies one table entry per
    non-zero exponent digit: {e no squarings}, ~[max_bits/4] multiplies
    versus ~[1.5 * max_bits] for a cold {!powmod} — ~6x per op once the
    O([15 * max_bits / 4])-multiply table build is amortized.  Built once
    at dealer setup and carried in [Group.t] / key records. *)
module Fixed_base : sig
  type ctx
  (** The window table for one (base, modulus, exponent-width) triple.
      Entries are stored in the modulus's {!Montgomery} domain when odd. *)

  val create : base:t -> modulus:t -> max_bits:int -> ctx
  (** [create ~base ~modulus ~max_bits] builds the table covering exponents
      of up to [max_bits] bits.
      @raise Invalid_argument if [max_bits <= 0].
      @raise Division_by_zero if [modulus] is zero. *)

  val pow : ctx -> t -> t
  (** [pow ctx e] is [base]{^ [e]}[ mod modulus].  Table-driven for
      [numbits e <= max_bits]; transparently falls back to {!powmod} for
      oversized exponents (correct, just not accelerated). *)

  val max_bits : ctx -> int
  (** The exponent-width bound the table was built for. *)
end

val of_bytes_be : string -> t
(** Big-endian bytes to natural.  Linear in the length. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian encoding, zero-padded to [len] when given.  Linear in the
    length.
    @raise Invalid_argument if the value does not fit in [len] bytes. *)

val of_hex : string -> t
(** Parse hexadecimal (case-insensitive; spaces and underscores skipped).
    @raise Invalid_argument on other characters. *)

val to_hex : t -> string
(** Lowercase hexadecimal, no leading zeros ("0" for zero). *)

val of_string : string -> t
(** Parse a decimal string (underscores allowed).
    @raise Invalid_argument on other characters or empty input. *)

val to_string : t -> string
(** Decimal representation. *)

val pp : Format.formatter -> t -> unit
(** Decimal printer for [%a]. *)

val random_below : random_bytes:(int -> string) -> t -> t
(** [random_below ~random_bytes bound] draws uniformly from [[0, bound)] by
    rejection sampling on the supplied byte source.
    @raise Invalid_argument on a zero bound. *)

val random_bits : random_bytes:(int -> string) -> int -> t
(** [random_bits ~random_bytes n] draws a uniform [n]-bit value (top bit not
    forced); [zero] for [n <= 0]. *)
