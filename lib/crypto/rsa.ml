(* RSA with full-domain-hash signatures.

   Used for (a) each party's ordinary signing key in the atomic broadcast
   protocol, and (b) the multi-signature implementation of threshold
   signatures.  Signing uses the Chinese remainder theorem, the optimization
   the paper credits for the fast multi-signature path. *)

open Bignum

type public = {
  n : Nat.t;
  e : Nat.t;
  mont : Nat.Montgomery.ctx;   (* for n, built once with the key *)
}

type secret = {
  pub : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  d_p : Nat.t;       (* d mod p-1 *)
  d_q : Nat.t;       (* d mod q-1 *)
  q_inv : Nat.t;     (* q^{-1} mod p *)
  mont_p : Nat.Montgomery.ctx;
  mont_q : Nat.Montgomery.ctx;
}

let make_public ~(n : Nat.t) ~(e : Nat.t) : public =
  { n; e; mont = Nat.Montgomery.create n }

let default_e = Nat.of_int 65537

let keygen ?(e = default_e) ~(drbg : Hashes.Drbg.t) ~(bits : int) () : secret =
  let random_bytes = Hashes.Drbg.random_bytes drbg in
  let half = bits / 2 in
  let e_big = Bigint.of_nat e in
  let rec gen_factor () =
    let p = Prime.gen_prime ~random_bytes half in
    let p1 = Bigint.of_nat (Nat.sub p Nat.one) in
    if Bigint.equal (Bigint.gcd e_big p1) Bigint.one then p else gen_factor ()
  in
  let p = gen_factor () in
  let rec gen_q () =
    let q = gen_factor () in
    if Nat.equal p q then gen_q () else q
  in
  let q = gen_q () in
  let p, q = if Nat.compare p q >= 0 then p, q else q, p in
  let n = Nat.mul p q in
  let p1 = Nat.sub p Nat.one and q1 = Nat.sub q Nat.one in
  let phi = Nat.mul p1 q1 in
  let d = Bigint.to_nat (Bigint.invmod e_big (Bigint.of_nat phi)) in
  let q_inv = Bigint.to_nat (Bigint.invmod (Bigint.of_nat q) (Bigint.of_nat p)) in
  {
    pub = make_public ~n ~e;
    d; p; q;
    d_p = Nat.rem d p1;
    d_q = Nat.rem d q1;
    q_inv;
    mont_p = Nat.Montgomery.create p;
    mont_q = Nat.Montgomery.create q;
  }

let signature_bytes (pub : public) : int = (Nat.numbits pub.n + 7) / 8

(* The full-domain hash of a message into [0, n), domain-separated by a
   context string (the protocol identifier in SINTRA), in two halves.  The
   key-independent half is [prepare]: the SHA-256 blocks over
   "rsa-fdh|" ctx "|" i "|" msg, as many as the modulus byte length needs,
   read as one number.  The per-key half is [fdh_stmt]: that number mod n.
   A statement signed or checked under several keys (the k signatures of a
   multi-signature) or several times by one party is hashed once. *)
type stmt = {
  nbytes : int;       (* the modulus byte length the blocks cover *)
  ctx : string;
  msg : string;
  material : Nat.t;
}

let prepare ~(nbytes : int) ~(ctx : string) (msg : string) : stmt =
  let nblocks = (nbytes + 8 + 31) / 32 in
  let buf = Buffer.create (32 * nblocks) in
  for i = 0 to nblocks - 1 do
    Buffer.add_string buf
      (Hashes.Sha256.digest_list
         [ "rsa-fdh|"; ctx; "|"; string_of_int i; "|"; msg ])
  done;
  { nbytes; ctx; msg; material = Nat.of_bytes_be (Buffer.contents buf) }

let stmt_for (pub : public) ~(ctx : string) (msg : string) : stmt =
  prepare ~nbytes:(signature_bytes pub) ~ctx msg

let stmt_ctx (st : stmt) : string = st.ctx
let stmt_msg (st : stmt) : string = st.msg

(* A statement prepared for another modulus length is re-hashed for this
   key, so the result never depends on which key prepared it. *)
let fdh_stmt (pub : public) (st : stmt) : Nat.t =
  let st =
    if st.nbytes = signature_bytes pub then st
    else stmt_for pub ~ctx:st.ctx st.msg
  in
  Nat.rem st.material pub.n

(* CRT exponentiation x^d mod n. *)
let crt_power (sk : secret) (x : Nat.t) : Nat.t =
  let mp = Nat.Montgomery.powmod sk.mont_p x sk.d_p in
  let mq = Nat.Montgomery.powmod sk.mont_q x sk.d_q in
  (* h = q_inv * (mp - mq) mod p *)
  let diff = Bigint.erem (Bigint.sub (Bigint.of_nat mp) (Bigint.of_nat mq)) (Bigint.of_nat sk.p) in
  let h = Nat.rem (Nat.mul sk.q_inv (Bigint.to_nat diff)) sk.p in
  Nat.add mq (Nat.mul h sk.q)

let sign_stmt (sk : secret) (st : stmt) : string =
  Nat.to_bytes_be ~len:(signature_bytes sk.pub) (crt_power sk (fdh_stmt sk.pub st))

let verify_stmt (pub : public) ~(signature : string) (st : stmt) : bool =
  String.length signature = signature_bytes pub
  && begin
    let s = Nat.of_bytes_be signature in
    Nat.compare s pub.n < 0
    && Nat.equal (Nat.Montgomery.powmod pub.mont s pub.e) (fdh_stmt pub st)
  end

let sign (sk : secret) ~(ctx : string) (msg : string) : string =
  sign_stmt sk (stmt_for sk.pub ~ctx msg)

let verify (pub : public) ~(ctx : string) ~(signature : string) (msg : string) : bool =
  verify_stmt pub ~signature (stmt_for pub ~ctx msg)
