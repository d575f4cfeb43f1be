(* Schnorr groups: the order-q subgroup of Z_p^* for primes q | p - 1.

   The paper's discrete-log based schemes (threshold coin-tossing and
   threshold encryption) use a 1024-bit prime p such that p - 1 has a 160-bit
   prime factor q; this module provides those groups for arbitrary sizes. *)

type table = Bignum.Nat.Fixed_base.ctx

type t = {
  p : Bignum.Nat.t;         (* field prime *)
  q : Bignum.Nat.t;         (* subgroup order, prime, q | p-1 *)
  g : Bignum.Nat.t;         (* generator of the order-q subgroup *)
  cofactor : Bignum.Nat.t;  (* (p-1)/q *)
  g_tbl : table;            (* fixed-base window table for g *)
  mont : Bignum.Nat.Montgomery.ctx;  (* p's context, built once by [make] *)
}

type elt = Bignum.Nat.t  (* element of the subgroup, in [1, p) *)
type exponent = Bignum.Nat.t  (* in [0, q) *)

let make ~p ~q ~g =
  let open Bignum in
  (* Odd p means the Montgomery fast path is statically known-taken for
     every operation in this group (p is prime > 2 in all real uses). *)
  if not (Nat.testbit p 0) then invalid_arg "Group.make: modulus must be odd";
  let p_minus_1 = Nat.sub p Nat.one in
  if not (Nat.is_zero (Nat.rem p_minus_1 q)) then invalid_arg "Group.make: q does not divide p-1";
  if not (Nat.equal (Nat.powmod g q p) Nat.one) then invalid_arg "Group.make: g not of order q";
  if Nat.equal g Nat.one then invalid_arg "Group.make: trivial generator";
  (* Exponents run over [0, q] (q itself appears as q - c when c = 0), so
     the table covers the full |q| bit width. *)
  let g_tbl = Nat.Fixed_base.create ~base:g ~modulus:p ~max_bits:(Nat.numbits q) in
  { p; q; g; cofactor = Nat.div p_minus_1 q; g_tbl; mont = Nat.Montgomery.create p }

let generate ~(drbg : Hashes.Drbg.t) ~pbits ~qbits : t =
  let random_bytes = Hashes.Drbg.random_bytes drbg in
  let p, q, g = Bignum.Prime.gen_schnorr_group ~random_bytes ~pbits ~qbits () in
  make ~p ~q ~g

let one (_ : t) : elt = Bignum.Nat.one

let mul (grp : t) (a : elt) (b : elt) : elt = Bignum.Nat.rem (Bignum.Nat.mul a b) grp.p

(* Power: generator powers hit the precomputed window table (no squarings);
   everything else takes the Montgomery-windowed powmod. *)
let pow (grp : t) (a : elt) (e : exponent) : elt =
  if Bignum.Nat.equal a grp.g then Bignum.Nat.Fixed_base.pow grp.g_tbl e
  else Bignum.Nat.Montgomery.powmod grp.mont a e

let pow_g (grp : t) (e : exponent) : elt = Bignum.Nat.Fixed_base.pow grp.g_tbl e

let is_member (grp : t) (a : elt) : bool =
  let open Bignum in
  not (Nat.is_zero a)
  && Nat.compare a grp.p < 0
  && Nat.equal (Nat.Montgomery.powmod grp.mont a grp.q) Nat.one

(* Fixed-base tables for long-lived non-generator bases (party verification
   keys, TDH2's gbar and h), built once at dealer setup.  The base is tested
   for subgroup membership here, once: a table exists only for a member, so
   verifiers holding a dealt key's table never re-test the key. *)
let precompute ?max_bits (grp : t) (a : elt) : table =
  if not (is_member grp a) then
    invalid_arg "Group.precompute: base is not in the order-q subgroup";
  let mb = match max_bits with
    | Some b -> b
    | None -> Bignum.Nat.numbits grp.q
  in
  Bignum.Nat.Fixed_base.create ~base:a ~modulus:grp.p ~max_bits:mb

let pow_table (tbl : table) (e : exponent) : elt = Bignum.Nat.Fixed_base.pow tbl e

let table_base (tbl : table) : elt = Bignum.Nat.Fixed_base.base tbl

(* Simultaneous double exponentiation a^ea * b^eb (Shamir's trick) — the
   shape of every share verification. *)
let mul_exp2 (grp : t) (a : elt) (ea : exponent) (b : elt) (eb : exponent) : elt =
  Bignum.Nat.Montgomery.powmod2 grp.mont a ea b eb

(* k-way simultaneous multi-exponentiation — Lagrange combination over all
   k shares and batched share verification in one shared squaring chain. *)
let mul_exp_multi (grp : t) (pairs : (elt * exponent) list) : elt =
  Bignum.Nat.Montgomery.powmod_multi grp.mont pairs

let inv (grp : t) (a : elt) : elt =
  let open Bignum in
  Bigint.to_nat (Bigint.invmod (Bigint.of_nat a) (Bigint.of_nat grp.p))

let div (grp : t) (a : elt) (b : elt) : elt = mul grp a (inv grp b)

let elt_equal (a : elt) (b : elt) = Bignum.Nat.equal a b

(* Random exponent in [0, q). *)
let random_exponent (grp : t) ~(drbg : Hashes.Drbg.t) : exponent =
  Bignum.Nat.random_below ~random_bytes:(Hashes.Drbg.random_bytes drbg) grp.q

(* Hash an arbitrary string into the order-q subgroup: expand the input to a
   field element with a counter-mode hash, then raise to the cofactor.  Retry
   on the (negligible) chance of hitting the identity. *)
let hash_to_group (grp : t) (s : string) : elt =
  let open Bignum in
  let pbytes = (Nat.numbits grp.p + 7) / 8 in
  let rec attempt ctr =
    let needed = pbytes + 8 in
    let nblocks = (needed + 31) / 32 in
    let buf = Buffer.create (32 * nblocks) in
    for i = 0 to nblocks - 1 do
      Buffer.add_string buf
        (Hashes.Sha256.digest_list
           [ "sintra-h2g|"; string_of_int ctr; "|"; string_of_int i; "|"; s ])
    done;
    let x = Nat.rem (Nat.of_bytes_be (Buffer.contents buf)) grp.p in
    let e = Nat.Montgomery.powmod grp.mont x grp.cofactor in
    if Nat.is_zero e || Nat.equal e Nat.one then attempt (ctr + 1) else e
  in
  attempt 0

(* Hash group elements / strings to a challenge exponent in [0, q)
   (Fiat-Shamir). *)
let hash_to_exponent (grp : t) (parts : string list) : exponent =
  let open Bignum in
  let qbytes = (Nat.numbits grp.q + 7) / 8 in
  let nblocks = (qbytes + 8 + 31) / 32 in
  let buf = Buffer.create (32 * nblocks) in
  let joined = String.concat "\x00" parts in
  for i = 0 to nblocks - 1 do
    Buffer.add_string buf
      (Hashes.Sha256.digest_list [ "sintra-h2e|"; string_of_int i; "|"; joined ])
  done;
  Nat.rem (Nat.of_bytes_be (Buffer.contents buf)) grp.q

let elt_to_bytes (grp : t) (a : elt) : string =
  let pbytes = (Bignum.Nat.numbits grp.p + 7) / 8 in
  Bignum.Nat.to_bytes_be ~len:pbytes a

let elt_of_bytes (s : string) : elt = Bignum.Nat.of_bytes_be s

let exponent_to_bytes (grp : t) (e : exponent) : string =
  let qbytes = (Bignum.Nat.numbits grp.q + 7) / 8 in
  Bignum.Nat.to_bytes_be ~len:qbytes e

let exponent_of_bytes (s : string) : exponent = Bignum.Nat.of_bytes_be s
