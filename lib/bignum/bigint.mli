(** Signed arbitrary-precision integers on top of {!Nat}, plus the number
    theory needed by threshold cryptography: extended GCD, modular inverse,
    signed modular exponentiation and the Jacobi symbol. *)

type t

val one : t
(** The integer 1. *)

val two : t
(** The integer 2. *)

val of_nat : Nat.t -> t
(** Inject a natural number (non-negative, by construction). *)

val to_nat : t -> Nat.t
(** @raise Invalid_argument if negative. *)

val of_int : int -> t
(** Exact conversion from a native [int] (any sign). *)

val is_zero : t -> bool
(** [is_zero x] iff [x = 0]. *)

val is_neg : t -> bool
(** [is_neg x] iff [x < 0] (zero is not negative). *)

val neg : t -> t
(** Additive inverse. *)

val abs : t -> t
(** Absolute value. *)

val compare : t -> t -> int
(** Signed total order; the canonical comparison for this type. *)

val equal : t -> t -> bool
(** Value equality (constant-size representation, so O(min digits)). *)

val add : t -> t -> t
(** Signed addition. *)

val sub : t -> t -> t
(** Signed subtraction. *)

val mul : t -> t -> t
(** Signed multiplication (delegates to {!Nat.mul}, so Karatsuba above
    the schoolbook threshold). *)

val divmod_trunc : t -> t -> t * t
(** Truncated division: quotient rounds toward zero, remainder carries the
    dividend's sign (like OCaml's [(/)] and [mod]). *)

val erem : t -> t -> t
(** Euclidean remainder: [erem a m] is in [[0, |m|)].
    @raise Division_by_zero if [m] is zero. *)

val ediv : t -> t -> t
(** Euclidean quotient matching {!erem}: [a = m * ediv a m + erem a m]. *)

val shift_left : t -> int -> t
(** [shift_left x k] is [x * 2]{^ [k]} (sign preserved). *)

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd(|a|,|b|)], [g >= 0]. *)

val gcd : t -> t -> t
(** [gcd a b = gcd(|a|, |b|) >= 0]. *)

val invmod : t -> t -> t
(** [invmod a m] is the inverse of [a] modulo [m], in [[0, m)].
    @raise Not_found if [gcd(a,m) <> 1]. *)

val powmod : t -> t -> t -> t
(** [powmod b e m] for [e >= 0].
    @raise Invalid_argument on negative exponent. *)

val powmod2 : t -> t -> t -> t -> t -> t
(** [powmod2 b1 e1 b2 e2 m] is [b1]{^ [e1]}[ * b2]{^ [e2]}[ mod m] for
    [e1, e2 >= 0], via {!Nat.powmod2} (Shamir's trick — one shared squaring
    chain, ~1.9x faster than two separate {!powmod} calls at equal exponent
    widths).  Used by Shoup threshold-signature share verification.
    @raise Invalid_argument on a negative exponent. *)

val powmod_signed : t -> t -> t -> t
(** Like {!powmod} but accepts a negative exponent when [b] is invertible
    mod [m] (needed when combining Shoup threshold-signature shares, whose
    Lagrange exponents are signed). *)

val jacobi : t -> t -> int
(** Jacobi symbol [(a/n)] for odd positive [n]: -1, 0 or +1. *)

val of_string : string -> t
(** Parse a decimal integer with an optional leading [-].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering, [-]-prefixed when negative. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer ({!to_string}), for [%a] and Alcotest testables. *)
