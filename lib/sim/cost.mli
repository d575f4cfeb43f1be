(** The virtual-CPU cost model.

    Each simulated host is calibrated by a single number — the milliseconds
    it takes for one full 1024-bit modular exponentiation, the [exp] column
    of the paper's host tables.  All public-key operation costs scale from
    it: a modular multiplication at modulus size [b] costs [(b/1024)^2] and
    an [e]-bit exponent costs [~1.5e] multiplications, matching the paper's
    observation that exponentiation is cubic in the key size (Section 4.2). *)

type meter = {
  mutable charged_ms : float;   (** accumulated in the current step *)
  mutable total_ms : float;     (** accumulated over the whole run *)
  exp_ms : float;               (** host calibration *)
  mutable exp_count : int;      (** modular exponentiations performed *)
  mutable exp2_count : int;     (** simultaneous double exponentiations *)
  mutable fixed_count : int;    (** fixed-base table-driven exponentiations *)
  mutable multi_count : int;    (** k-way simultaneous exponentiations *)
  mutable lookup_count : int;   (** verified-share cache probes charged *)
}

val create_meter : exp_ms:float -> meter
(** A zeroed meter for a host that takes [exp_ms] milliseconds per full
    1024-bit modular exponentiation. *)

val take : meter -> float
(** Drain the per-step accumulator; returns seconds. *)

val modexp_ms : exp_ms:float -> mod_bits:int -> exp_bits:int -> float
(** The scaling rule, exposed for tests. *)

val exp_full : meter -> bits:int -> unit
(** One full exponentiation at [bits]-bit modulus and exponent. *)

val exp : meter -> mod_bits:int -> exp_bits:int -> unit
(** One exponentiation with an [exp_bits]-bit exponent at a [mod_bits]-bit
    modulus; counted in [exp_count]. *)

val multi_exp_factor : float
(** Cost of one simultaneous double exponentiation relative to ONE plain
    exponentiation at the wider exponent (Shamir's trick shares the
    squaring chain: ~1.47 vs 1.5 multiplications per exponent bit). *)

val fixed_base_factor : float
(** Cost of a fixed-base table-driven power relative to a plain
    exponentiation of the same width (4-bit windows, no squarings:
    ~0.234 vs 1.5 multiplications per bit). *)

val exp2 : meter -> mod_bits:int -> exp_bits:int -> unit
(** One simultaneous double exponentiation ([Bignum.Nat.powmod2]);
    [exp_bits] is the wider of the two exponents.  Charged at
    {!multi_exp_factor} of a plain exponentiation and counted in
    [exp2_count]. *)

val exp_fixed : meter -> mod_bits:int -> exp_bits:int -> unit
(** One fixed-base table hit ([Bignum.Nat.Fixed_base.pow]).  Charged at
    {!fixed_base_factor} of a plain exponentiation and counted in
    [fixed_count]. *)

val exp_multi :
  meter -> mod_bits:int -> sq_bits:int -> exp_bits:int list -> unit
(** One k-way simultaneous exponentiation ([Bignum.Nat.powmod_multi]):
    a single squaring chain of [sq_bits] squarings (2/3 of a baseline
    exponentiation) plus ~e/4 table multiplies per {e pair} of bases —
    [exp_bits] lists every exponent's width.  The marginal base costs
    ~1/8 of a plain exponentiation, which is what makes batch
    verification amortize.  Counted in [multi_count]. *)

val lookup : meter -> unit
(** One verified-share cache probe: a flat-key hash-table lookup, priced
    far below any exponentiation but non-zero.  Counted in
    [lookup_count]. *)

val rsa_sign : meter -> bits:int -> unit
(** CRT signing: a quarter of a full exponentiation. *)

val rsa_verify : meter -> bits:int -> unit
(** e = 65537: 17 multiplications. *)

val symmetric : meter -> bytes:int -> unit
(** Symmetric encryption/decryption of [bytes], priced per byte. *)

val hash : meter -> bytes:int -> unit
(** Hashing [bytes], priced per byte (cheaper than {!symmetric}). *)

val log_io : meter -> bytes:int -> unit
(** Appending [bytes] to the durable write-ahead log: a CRC pass plus a
    buffered sequential write — priced per byte below {!hash}, with a
    small constant for the frame header. *)

val per_message : meter -> bytes:int -> unit
(** Per-message protocol overhead (deserialization, dispatch, threading),
    scaled by host speed; calibrated against the paper's crypto-free
    reliable-channel measurements. *)
