(* Arbitrary-precision natural numbers.

   Representation: little-endian array of limbs in base 2^31, normalized so
   that the most significant limb is non-zero; zero is the empty array.
   Base 2^31 is chosen so that a limb product plus two limb-sized carries
   fits in OCaml's 63-bit native [int] without overflow. *)

let limb_bits = 31
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  normalize
    [| x land limb_mask; (x lsr limb_bits) land limb_mask; x lsr (2 * limb_bits) |]

let to_int_opt (a : t) : int option =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl limb_bits))
  | 3 when a.(2) < 1 lsl (62 - 2 * limb_bits) ->
    Some (a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits)))
  | _ -> None

let one = of_int 1
let two = of_int 2

let num_limbs = Array.length

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

(* Number of significant bits; 0 for zero. *)
let numbits (a : t) : int =
  let l = Array.length a in
  if l = 0 then 0
  else
    let top = a.(l - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((l - 1) * limb_bits) + width 1

let testbit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(l) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: underflow";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + limb_base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
  normalize r

let mul_limb (a : t) (m : int) : t =
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let schoolbook_mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        (* Propagate the final carry; it can ripple at most a few limbs. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

(* Split [a] into (low [k] limbs, rest) for Karatsuba. *)
let split_at (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let karatsuba_threshold = 32

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then schoolbook_mul a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let sqr a = mul a a

let shift_left (a : t) (bits : int) : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if off = 0 then Array.blit a 0 r limbs la
    else
      for i = 0 to la - 1 do
        let v = a.(i) lsl off in
        r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
        r.(i + limbs + 1) <- v lsr limb_bits
      done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      if off = 0 then Array.blit a limbs r 0 l
      else
        for i = 0 to l - 1 do
          let hi = if i + limbs + 1 < la then a.(i + limbs + 1) else 0 in
          r.(i) <- (a.(i + limbs) lsr off) lor ((hi lsl (limb_bits - off)) land limb_mask)
        done;
      normalize r
    end
  end

(* Division: Knuth Algorithm D on normalized operands.
   Returns (quotient, remainder). *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Single-limb divisor: simple long division. *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (normalize q, of_int !rem)
  end
  else begin
    (* Normalize so the divisor's top limb has its high bit set. *)
    let shift = limb_bits - (numbits b - (Array.length b - 1) * limb_bits) in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    let m = if m < 0 then 0 else m in
    (* u gets an extra high limb. *)
    let u = Array.append u (Array.make (m + n + 1 - Array.length u) 0) in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vnext = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate the quotient limb from the top two limbs of u. *)
      let top2 = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (top2 / vtop) in
      let rhat = ref (top2 mod vtop) in
      if !qhat >= limb_base then begin qhat := limb_base - 1; rhat := top2 - !qhat * vtop end;
      let continue = ref true in
      while !continue do
        (* qhat*vnext must not exceed rhat*base + u[j+n-2]; qhat < 2^31 and
           vnext < 2^31 so the product fits in 62 bits. *)
        if !rhat < limb_base
           && !qhat * vnext > (!rhat lsl limb_bits) lor (if n >= 2 then u.(j + n - 2) else 0)
        then begin decr qhat; rhat := !rhat + vtop end
        else continue := false
      done;
      (* Multiply and subtract: u[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin u.(i + j) <- d + limb_base; borrow := 1 end
        else begin u.(i + j) <- d; borrow := 0 end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* Estimate was one too large: add back. *)
        u.(j + n) <- d + limb_base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Barrett reduction: for a fixed modulus m of k limbs, precompute
   mu = floor(base^(2k) / m); then for x < base^(2k),
     q = floor( floor(x / base^(k-1)) * mu / base^(k+1) )
   satisfies 0 <= x - q*m < 3m, so at most two subtractions complete the
   reduction — no per-operation division.  This is the workhorse under
   every modular exponentiation. *)
module Barrett = struct
  type ctx = {
    m : t;
    k : int;          (* limbs of m *)
    mu : t;           (* floor(base^(2k) / m) *)
  }

  let create (m : t) : ctx =
    if is_zero m then raise Division_by_zero;
    let k = num_limbs m in
    let mu = div (shift_limbs one (2 * k)) m in
    { m; k; mu }

  (* Drop the low [k] limbs (floor division by base^k). *)
  let drop_limbs (a : t) (k : int) : t =
    let la = Array.length a in
    if la <= k then zero else normalize (Array.sub a k (la - k))

  let reduce (ctx : ctx) (x : t) : t =
    if compare x ctx.m < 0 then x
    else if num_limbs x > 2 * ctx.k then rem x ctx.m   (* out of range: fall back *)
    else begin
      let q1 = drop_limbs x (ctx.k - 1) in
      let q2 = mul q1 ctx.mu in
      let q3 = drop_limbs q2 (ctx.k + 1) in
      let r = sub x (mul q3 ctx.m) in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      r
    end
end

(* Montgomery representation (HAC 14.32/14.36) over a product-scanning
   kernel.  For an odd modulus m, residues are stored as xR mod m in a
   fixed-length array of k limbs in base 2^26 (R = 2^(26k)), separate from
   the base-2^31 [t] representation: conversion happens only on entry and
   exit.  The multiply is the FIPS ("finely integrated product scanning")
   form of REDC (Koc, Acar and Kaliski 1996): output column i accumulates
   every a_j * b_(i-j) and q_j * m_(i-j) product in one native int, the
   quotient digit q_i is chosen to cancel the column's low limb, and the
   column's carry moves on to the next.  A 26-bit limb product has 52
   bits, so a column of up to 2k products plus the incoming carry stays
   below 2^62 for k <= [max_limbs] — no per-product carry chain, and the
   only memory touched is the k-limb output. *)
module Montgomery = struct
  let bits = 26
  let mask = (1 lsl bits) - 1

  (* A column sums at most 2k products of < 2^52 plus a carry < 2^37;
     k <= 511 keeps that below max_int = 2^62 - 1. *)
  let max_limbs = 511

  (* Odd moduli of up to [max_limbs] limbs (13286 bits). *)
  let supports (m : t) : bool = testbit m 0 && numbits m <= bits * max_limbs

  type residue = int array

  type ctx = {
    k : int;            (* 26-bit limbs per residue *)
    n : int array;      (* m in k 26-bit limbs *)
    m_prime : int;      (* -m^-1 mod 2^26 *)
    r2 : residue;       (* R^2 mod m, plain (not Montgomery) form *)
    one_m : residue;    (* R mod m = the representation of 1 *)
  }

  (* [a] as exactly [k] limbs of base 2^26; requires numbits a <= 26k. *)
  let limbs_of_nat (k : int) (a : t) : int array =
    let r = Array.make k 0 in
    let acc = ref 0 and nacc = ref 0 and j = ref 0 in
    Array.iter
      (fun limb ->
        acc := !acc lor (limb lsl !nacc);
        nacc := !nacc + limb_bits;
        while !nacc >= bits do
          if !j < k then r.(!j) <- !acc land mask;
          acc := !acc lsr bits;
          nacc := !nacc - bits;
          incr j
        done)
      a;
    if !j < k then r.(!j) <- !acc;
    r

  let nat_of_limbs (r : int array) : t =
    let k = Array.length r in
    let out = Array.make (((k * bits) / limb_bits) + 1) 0 in
    let acc = ref 0 and nacc = ref 0 and j = ref 0 in
    for i = 0 to k - 1 do
      acc := !acc lor (r.(i) lsl !nacc);
      nacc := !nacc + bits;
      if !nacc >= limb_bits then begin
        out.(!j) <- !acc land limb_mask;
        acc := !acc lsr limb_bits;
        nacc := !nacc - limb_bits;
        incr j
      end
    done;
    out.(!j) <- !acc;
    normalize out

  (* [u] := a * b * R^-1 mod m.  [u] must not alias [a] or [b]; all three
     have length k and a, b < m. *)
  let mul_into (ctx : ctx) (u : int array) (a : int array) (b : int array) : unit =
    let k = ctx.k and n = ctx.n and mp = ctx.m_prime in
    let acc = ref 0 in
    for i = 0 to k - 1 do
      let s = ref !acc in
      for j = 0 to i - 1 do
        s := !s + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
             + (Array.unsafe_get u j * Array.unsafe_get n (i - j))
      done;
      s := !s + (Array.unsafe_get a i * Array.unsafe_get b 0);
      let q = ((!s land mask) * mp) land mask in
      Array.unsafe_set u i q;
      acc := (!s + (q * Array.unsafe_get n 0)) lsr bits
    done;
    for i = k to (2 * k) - 1 do
      let s = ref !acc in
      for j = i - k + 1 to k - 1 do
        s := !s + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
             + (Array.unsafe_get u j * Array.unsafe_get n (i - j))
      done;
      Array.unsafe_set u (i - k) (!s land mask);
      acc := !s lsr bits
    done;
    (* acc * R + u is below 2m: subtract m once if it is not below m. *)
    let rec geq i =
      i < 0
      || (let d = Array.unsafe_get u i - Array.unsafe_get n i in
          if d <> 0 then d > 0 else geq (i - 1))
    in
    if !acc <> 0 || geq (k - 1) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = Array.unsafe_get u i - Array.unsafe_get n i + !borrow in
        Array.unsafe_set u i (d land mask);
        borrow := d asr bits
      done
    end

  let mul (ctx : ctx) (a : residue) (b : residue) : residue =
    let u = Array.make ctx.k 0 in
    mul_into ctx u a b;
    u

  let sqr (ctx : ctx) (a : residue) : residue = mul ctx a a

  (* Inverse of an odd limb modulo 2^26 by Hensel/Newton lifting:
     x := x(2 - m0 x) doubles the number of correct low bits each round,
     and x = m0 is already correct mod 8. *)
  let inv_limb (m0 : int) : int =
    let x = ref m0 in
    for _ = 1 to 4 do
      let t = (2 - (m0 * !x)) land mask in
      x := (!x * t) land mask
    done;
    !x

  let create (m : t) : ctx =
    if is_zero m then raise Division_by_zero;
    if not (testbit m 0) then invalid_arg "Nat.Montgomery.create: even modulus";
    let k = (numbits m + bits - 1) / bits in
    if k > max_limbs then invalid_arg "Nat.Montgomery.create: modulus too wide";
    let n = limbs_of_nat k m in
    let r2 = limbs_of_nat k (rem (shift_left one (2 * bits * k)) m) in
    let ctx = { k; n; m_prime = (mask + 1 - inv_limb n.(0)) land mask; r2; one_m = r2 } in
    (* REDC(R^2) = R mod m *)
    let unit = Array.make k 0 in
    unit.(0) <- 1;
    { ctx with one_m = mul ctx r2 unit }

  (* [to_mont ctx x] requires x < m (callers reduce first). *)
  let to_mont (ctx : ctx) (x : t) : residue = mul ctx (limbs_of_nat ctx.k x) ctx.r2

  let of_mont (ctx : ctx) (x : residue) : t =
    let unit = Array.make ctx.k 0 in
    unit.(0) <- 1;
    nat_of_limbs (mul ctx x unit)

  let one_m (ctx : ctx) : residue = ctx.one_m
end

(* A modular-arithmetic "domain": multiplication with the reduction
   strategy chosen once per modulus, plus entry/exit conversions.  Odd
   moduli get Montgomery residues (fixed-length arrays of 26-bit limbs, not
   [t] values); even moduli (only test vectors — every group and RSA modulus
   in SINTRA is odd) and odd ones too wide for the kernel keep Barrett
   reduction over plain [t].  In-domain values are opaque outside the
   domain that made them.

   [mul_into dst a b] is the product of [a] and [b].  A fixed-width domain
   writes it into [dst] and returns [dst]; Barrett ignores [dst] and returns
   a fresh value.  [dst] is a buffer the caller owns (from [copy]), distinct
   from [a] and [b].  [enter] requires its argument reduced below the
   modulus. *)
type domain = {
  one_d : t;
  copy : t -> t;
  mul_into : t -> t -> t -> t;
  enter : t -> t;
  leave : t -> t;
}

let barrett_domain (m : t) : domain =
  let ctx = Barrett.create m in
  { one_d = rem one m;
    copy = Fun.id;
    mul_into = (fun _ a b -> Barrett.reduce ctx (mul a b));
    enter = Fun.id;
    leave = Fun.id }

let mod_domain (m : t) : domain =
  if Montgomery.supports m then begin
    let ctx = Montgomery.create m in
    { one_d = Montgomery.one_m ctx;
      copy = Array.copy;
      mul_into = (fun u a b -> Montgomery.mul_into ctx u a b; u);
      enter = Montgomery.to_mont ctx;
      leave = Montgomery.of_mont ctx }
  end
  else barrett_domain m

(* A product into a fresh value, for tables that outlive the call. *)
let muld (dom : domain) (a : t) (b : t) : t = dom.mul_into (dom.copy dom.one_d) a b

(* The running product of one exponentiation: two buffers owned by the
   chain, each step writing into the one not holding the current value, so
   the squaring chain allocates nothing after its start.  Scratch lives
   only as long as the exponentiation. *)
type chain = { dom : domain; mutable cur : t; mutable spare : t }

let chain (dom : domain) (start : t) : chain =
  { dom; cur = dom.copy start; spare = dom.copy start }

let chain_mul (c : chain) (b : t) : unit =
  let v = c.dom.mul_into c.spare c.cur b in
  c.spare <- c.cur;
  c.cur <- v

let chain_sqr (c : chain) : unit = chain_mul c c.cur

let bit (e : t) (i : int) : int = if testbit e i then 1 else 0

(* Bits pos .. pos+3 of [e] as a 4-bit window digit. *)
let nibble (e : t) (pos : int) : int =
  (bit e (pos + 3) lsl 3) lor (bit e (pos + 2) lsl 2) lor (bit e (pos + 1) lsl 1)
  lor bit e pos

(* Fixed-window exponentiation over an abstract domain: 4-bit windows above
   64 exponent bits, plain square-and-multiply below (where the 15-entry
   table would not amortize).  [base_d] is already in the domain. *)
let powmod_gen (dom : domain) (base_d : t) (e : t) : t =
  let ebits = numbits e in
  let r = chain dom dom.one_d in
  if ebits <= 64 then
    for i = ebits - 1 downto 0 do
      chain_sqr r;
      if testbit e i then chain_mul r base_d
    done
  else begin
    (* Precompute base^0 .. base^15. *)
    let tbl = Array.make 16 dom.one_d in
    for i = 1 to 15 do tbl.(i) <- muld dom tbl.(i - 1) base_d done;
    for w = ((ebits + 3) / 4) - 1 downto 0 do
      for _ = 1 to 4 do chain_sqr r done;
      let d = nibble e (4 * w) in
      if d <> 0 then chain_mul r tbl.(d)
    done
  end;
  r.cur

let powmod_in (dom_of_m : t -> domain) (base : t) (e : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero e then one
  else begin
    let dom = dom_of_m m in
    dom.leave (powmod_gen dom (dom.enter (rem base m)) e)
  end

(* Modular exponentiation: 4-bit fixed windows over the domain of [m]. *)
let powmod (base : t) (e : t) (m : t) : t = powmod_in mod_domain base e m

(* The reference path, kept callable for equivalence tests and for
   benchmarking the fast path against it. *)
let powmod_barrett (base : t) (e : t) (m : t) : t = powmod_in barrett_domain base e m

(* The digit-pair table of Shamir's trick: tbl.((i lsl 2) lor j) =
   b1^i * b2^j for 2-bit digits i, j (in-domain bases).  Without [b2] only
   the b1 column is filled, for a trailing odd base. *)
let pair_table (dom : domain) (b1 : t) (b2 : t option) : t array =
  let tbl = Array.make 16 dom.one_d in
  tbl.(4) <- b1;
  tbl.(8) <- muld dom b1 b1;
  tbl.(12) <- muld dom tbl.(8) b1;
  Option.iter
    (fun b2 ->
      tbl.(1) <- b2;
      tbl.(2) <- muld dom b2 b2;
      tbl.(3) <- muld dom tbl.(2) b2;
      for i = 1 to 3 do
        for j = 1 to 3 do
          tbl.((i lsl 2) lor j) <- muld dom tbl.(i lsl 2) tbl.(j)
        done
      done)
    b2;
  tbl

(* k-way simultaneous multi-exponentiation by 2-bit interleaved windows
   (Shamir's trick, HAC 14.88 generalized): the bases are paired into
   blocks of two, each with a 16-entry digit-pair table, and all blocks
   share one squaring chain over the longest exponent.  Per 2 exponent
   bits: 2 squarings plus at most one multiply per block — so the marginal
   cost of each further base is ~e/4 multiplies against ~1.5e for a
   separate powmod.  [pairs] has no zero exponent and m > 1. *)
let multi_exp (pairs : (t * t) list) (m : t) : t =
  let dom = mod_domain m in
  let bases = Array.of_list (List.map (fun (b, _) -> dom.enter (rem b m)) pairs) in
  let exps = Array.of_list (List.map snd pairs) in
  let k = Array.length bases in
  let nblocks = (k + 1) / 2 in
  let tbls =
    Array.init nblocks (fun blk ->
      pair_table dom bases.(2 * blk)
        (if (2 * blk) + 1 < k then Some bases.((2 * blk) + 1) else None))
  in
  let digit j pos =
    if j < k then (bit exps.(j) (pos + 1) lsl 1) lor bit exps.(j) pos else 0
  in
  let nbits = Array.fold_left (fun acc e -> max acc (numbits e)) 0 exps in
  let r = chain dom dom.one_d in
  for w = ((nbits + 1) / 2) - 1 downto 0 do
    chain_sqr r;
    chain_sqr r;
    for blk = 0 to nblocks - 1 do
      let d = (digit (2 * blk) (2 * w) lsl 2) lor digit ((2 * blk) + 1) (2 * w) in
      if d <> 0 then chain_mul r tbls.(blk).(d)
    done
  done;
  dom.leave r.cur

(* Simultaneous double exponentiation b1^e1 * b2^e2 mod m: one block of
   [multi_exp], i.e. one shared squaring chain with a 16-entry digit-pair
   table.  Per 2 exponent bits: 2 squarings + at most one multiply, versus
   2 squarings + ~2.5 multiplies for two separate windowed exponentiations
   — about 1.9x faster on the DLEQ verification shape where both exponents
   are full group-order size. *)
let powmod2 (b1 : t) (e1 : t) (b2 : t) (e2 : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero e1 then powmod b2 e2 m
  else if is_zero e2 then powmod b1 e1 m
  else multi_exp [ (b1, e1); (b2, e2) ] m

let powmod_multi (pairs : (t * t) list) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else
    match List.filter (fun (_, e) -> not (is_zero e)) pairs with
    | [] -> one
    | [ (b, e) ] -> powmod b e m
    | pairs -> multi_exp pairs m

(* Fixed-base precomputation (BGMW/HAC 14.109 with full per-block tables):
   for a base reused across many exponentiations — the group generator, a
   party's public verification key — precompute base^(d * 16^i) for every
   4-bit digit position i below [max_bits] and every digit d in 1..15.  An
   exponentiation then multiplies one table entry per non-zero digit: no
   squarings at all, ~max_bits/4 multiplies instead of ~1.5 * max_bits, a
   ~6x reduction once the table is amortized.  Entries are stored in the
   modulus's domain (Montgomery form for odd moduli) and never written
   after [create]; each [pow] owns its scratch. *)
module Fixed_base = struct
  let window = 4

  type ctx = {
    base : t;           (* original base, for the oversized-exponent fallback *)
    modulus : t;
    max_bits : int;
    dom : domain;
    tbl : t array array;  (* tbl.(i).(d-1) = base^(d * 16^i), in-domain *)
  }

  let create ~(base : t) ~(modulus : t) ~(max_bits : int) : ctx =
    if is_zero modulus then raise Division_by_zero;
    if max_bits <= 0 then invalid_arg "Nat.Fixed_base.create: max_bits must be positive";
    let dom = mod_domain modulus in
    let nblocks = (max_bits + window - 1) / window in
    let tbl = Array.init nblocks (fun _ -> Array.make 15 dom.one_d) in
    let cur = ref (dom.enter (rem base modulus)) in
    for i = 0 to nblocks - 1 do
      let row = tbl.(i) in
      row.(0) <- !cur;
      for d = 1 to 14 do row.(d) <- muld dom row.(d - 1) !cur done;
      (* base^(16^(i+1)) = row.(14) * cur = base^(15 * 16^i) * base^(16^i) *)
      if i < nblocks - 1 then cur := muld dom row.(14) !cur
    done;
    { base; modulus; max_bits; dom; tbl }

  let max_bits (ctx : ctx) : int = ctx.max_bits

  let pow (ctx : ctx) (e : t) : t =
    if equal ctx.modulus one then zero
    else if is_zero e then one
    else if numbits e > ctx.max_bits then powmod ctx.base e ctx.modulus
    else begin
      let r = chain ctx.dom ctx.dom.one_d in
      Array.iteri
        (fun i row ->
          let d = nibble e (i * window) in
          if d <> 0 then chain_mul r row.(d - 1))
        ctx.tbl;
      ctx.dom.leave r.cur
    end
end

(* Byte-string codecs, big-endian: one pass packing bytes into limbs
   (and back) through a bit accumulator, least significant end first. *)
let of_bytes_be (s : string) : t =
  let n = String.length s in
  let r = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nacc = ref 0 and j = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !nacc);
    nacc := !nacc + 8;
    if !nacc >= limb_bits then begin
      r.(!j) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nacc := !nacc - limb_bits;
      incr j
    end
  done;
  if !nacc > 0 then r.(!j) <- !acc;
  normalize r

let to_bytes_be ?len (a : t) : string =
  let nbytes = max 1 ((numbits a + 7) / 8) in
  let out_len = match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  let acc = ref 0 and nacc = ref 0 and pos = ref (out_len - 1) in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !nacc);
      nacc := !nacc + limb_bits;
      while !nacc >= 8 do
        (* Bytes past the top are zero, so nothing is lost below 0. *)
        if !pos >= 0 then Bytes.set b !pos (Char.unsafe_chr (!acc land 0xff));
        acc := !acc lsr 8;
        nacc := !nacc - 8;
        decr pos
      done)
    a;
  if !acc <> 0 then Bytes.set b !pos (Char.unsafe_chr !acc);
  Bytes.unsafe_to_string b

let of_hex (s : string) : t =
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code '0'))
      | 'a' .. 'f' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code 'a' + 10))
      | 'A' .. 'F' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code 'A' + 10))
      | ' ' | '\n' | '\t' | '_' -> ()
      | _ -> invalid_arg "Nat.of_hex")
    s;
  !r

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let nb = numbits a in
    let ndigits = (nb + 3) / 4 in
    for i = ndigits - 1 downto 0 do
      let d =
        ((if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[d]
    done;
    Buffer.contents buf
  end

let billion = of_int 1_000_000_000

let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod a billion in
        let r = match to_int_opt r with Some v -> v | None -> assert false in
        chunks := r :: !chunks;
        go q
      end
    in
    go a;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string (s : string) : t =
  if s = "" then invalid_arg "Nat.of_string";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add (mul_limb !r 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string")
    s;
  !r

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Uniform random natural below [bound], given a source of random bytes. *)
let random_below ~(random_bytes : int -> string) (bound : t) : t =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let bits = numbits bound in
  let nbytes = (bits + 7) / 8 in
  let excess = (8 * nbytes) - bits in
  let rec try_draw () =
    let s = random_bytes nbytes in
    let v = shift_right (of_bytes_be s) excess in
    if compare v bound < 0 then v else try_draw ()
  in
  try_draw ()

let random_bits ~(random_bytes : int -> string) (bits : int) : t =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let excess = (8 * nbytes) - bits in
    shift_right (of_bytes_be (random_bytes nbytes)) excess
  end
