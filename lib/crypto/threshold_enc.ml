(* The Shoup-Gennaro TDH2 threshold cryptosystem (EUROCRYPT '98), secure
   against adaptive chosen-ciphertext attack in the random-oracle model.

   Dealer: Schnorr group (p, q, g), an independent second generator gbar,
   secret key x in Z_q shared with a degree-(k-1) polynomial, public key
   h = g^x and per-party verification keys h_i = g^{x_i}.

   Encryption of message msg with label L (hybrid, the "MARS" role played by
   a SHA-256 counter-mode stream cipher):
     r, s <- Z_q
     c    = msg XOR keystream(H(h^r))
     u = g^r, w = g^s, ubar = gbar^r, wbar = gbar^s
     e = H2(c, L, u, w, ubar, wbar);  f = s + r*e mod q
   ciphertext = (c, L, u, ubar, e, f).  The (e, f) pair is a NIZK proof that
   log_g u = log_gbar ubar, which is what makes the scheme CCA-secure: a
   ciphertext cannot be mauled without breaking the proof.

   Decryption share from party i (on a ciphertext [check] validated):
     u_i = u^{x_i} with a DLEQ proof against h_i.
   Any k valid shares interpolate h^r in the exponent and recover msg. *)

open Bignum

type public = {
  group : Group.t;
  gbar : Group.elt;
  n : int;
  k : int;
  t : int;
  h : Group.elt;                 (* g^x *)
  hks : Group.elt array;         (* h_i = g^{x_i} *)
  gbar_tbl : Group.table;        (* fixed-base table for gbar *)
  h_tbl : Group.table;           (* fixed-base table for h *)
  hk_tbls : Group.table array;   (* fixed-base tables for the h_i *)
}

type secret_share = {
  index : int;
  key : Group.exponent;          (* x_i *)
}

type keys = { public : public; shares : secret_share array }

(* Phantom tags: a ciphertext is [checked] once [check] accepted it (or
   [encrypt] made it), and only checked ones reach dec_share,
   verify_dec_share and combine. *)
type unchecked
type checked

type 'v ciphertext = {
  c : string;                    (* bulk-encrypted payload *)
  label : string;
  u : Group.elt;
  ubar : Group.elt;
  e : Group.exponent;
  f : Group.exponent;
}

type dec_share = {
  origin : int;
  u_i : Group.elt;
  proof : Dleq.t;
}

let deal ~(drbg : Hashes.Drbg.t) ~(group : Group.t) ~n ~k ~t : keys =
  if not (k > t && k <= n - t) then invalid_arg "Threshold_enc.deal: need t < k <= n - t";
  let gbar =
    Group.hash_to_group group ("tdh2-gbar|" ^ Nat.to_hex group.Group.p)
  in
  let x = Group.random_exponent group ~drbg in
  let shamir = Shamir.share_secret ~drbg ~modulus:group.Group.q ~secret:x ~n ~k in
  let h = Group.pow_g group x in
  let hks = Array.map (fun s -> Group.pow_g group s.Shamir.value) shamir in
  {
    public = {
      group; gbar; n; k; t; h; hks;
      (* Window tables built once at dealing time: every exponentiation in
         encrypt/ciphertext_valid/verify_dec_share becomes table-driven. *)
      gbar_tbl = Group.precompute group gbar;
      h_tbl = Group.precompute group h;
      hk_tbls = Array.map (fun hk -> Group.precompute group hk) hks;
    };
    shares = Array.map (fun s -> { index = s.Shamir.index; key = s.Shamir.value }) shamir;
  }

(* SHA-256 counter-mode keystream XOR. *)
let stream_xor ~(key : string) (data : string) : string =
  let n = String.length data in
  let out = Bytes.create n in
  let block = ref "" in
  for i = 0 to n - 1 do
    if i mod 32 = 0 then
      block := Hashes.Sha256.digest_list [ "tdh2-stream|"; string_of_int (i / 32); "|"; key ];
    Bytes.set out i (Char.chr (Char.code data.[i] lxor Char.code (!block).[i mod 32]))
  done;
  Bytes.to_string out

let session_key (pub : public) (hr : Group.elt) : string =
  Hashes.Sha256.digest_list [ "tdh2-key|"; Group.elt_to_bytes pub.group hr ]

let hash2 (pub : public) ~c ~label ~u ~w ~ubar ~wbar : Group.exponent =
  let grp = pub.group in
  Group.hash_to_exponent grp
    [ "tdh2-e"; c; label;
      Group.elt_to_bytes grp u; Group.elt_to_bytes grp w;
      Group.elt_to_bytes grp ubar; Group.elt_to_bytes grp wbar ]

let encrypt ~(drbg : Hashes.Drbg.t) (pub : public) ~(label : string) (msg : string)
    : checked ciphertext =
  let grp = pub.group in
  let r = Group.random_exponent grp ~drbg in
  let s = Group.random_exponent grp ~drbg in
  (* All five exponentiations hit fixed-base tables (g, h, gbar). *)
  let hr = Group.pow_table pub.h_tbl r in
  let c = stream_xor ~key:(session_key pub hr) msg in
  let u = Group.pow_g grp r in
  let w = Group.pow_g grp s in
  let ubar = Group.pow_table pub.gbar_tbl r in
  let wbar = Group.pow_table pub.gbar_tbl s in
  let e = hash2 pub ~c ~label ~u ~w ~ubar ~wbar in
  let f = Nat.rem (Nat.add s (Nat.mul r e)) grp.Group.q in
  { c; label; u; ubar; e; f }

let make ~c ~label ~u ~ubar ~e ~f : unchecked ciphertext = { c; label; u; ubar; e; f }

(* Public ciphertext validity: recompute w = g^f * u^{-e} and
   wbar = gbar^f * ubar^{-e} and check the challenge.  u^{-e} is computed
   as u^{q-e} (u passed the order-q membership test), so each pair costs
   one table hit plus one exponentiation — no inversions.  e >= q cannot
   have come from hash2, and f >= q is the non-canonical twin (e, f + q)
   of a reduced response, which satisfies the same equations: both are
   rejected before any exponentiation. *)
let check (pub : public) (ct : _ ciphertext) : checked ciphertext option =
  let grp = pub.group in
  let valid =
    Nat.compare ct.e grp.Group.q < 0
    && Nat.compare ct.f grp.Group.q < 0
    && Group.is_member grp ct.u && Group.is_member grp ct.ubar
    && begin
      let neg_e = Nat.sub grp.Group.q ct.e in
      let w = Group.mul grp (Group.pow_g grp ct.f) (Group.pow grp ct.u neg_e) in
      let wbar =
        Group.mul grp (Group.pow_table pub.gbar_tbl ct.f) (Group.pow grp ct.ubar neg_e)
      in
      let e = hash2 pub ~c:ct.c ~label:ct.label ~u:ct.u ~w ~ubar:ct.ubar ~wbar in
      Nat.equal e ct.e
    end
  in
  if valid then
    Some { c = ct.c; label = ct.label; u = ct.u; ubar = ct.ubar; e = ct.e; f = ct.f }
  else None

let ciphertext_valid (pub : public) (ct : _ ciphertext) : bool =
  Option.is_some (check pub ct)

let dec_share ~(drbg : Hashes.Drbg.t) (pub : public) (sk : secret_share)
    (ct : checked ciphertext) : dec_share option =
  if sk.index < 1 || sk.index > pub.n then None
  else begin
    let grp = pub.group in
    let u_i = Group.pow grp ct.u sk.key in
    let proof =
      Dleq.prove grp ~drbg ~ctx:("tdh2-share|" ^ string_of_int sk.index)
        ~g1:grp.Group.g ~h1:pub.hks.(sk.index - 1) ~g2:ct.u ~h2:u_i ~x:sk.key
    in
    Some { origin = sk.index; u_i; proof }
  end

let verify_dec_share (pub : public) (ct : checked ciphertext) (s : dec_share) : bool =
  s.origin >= 1 && s.origin <= pub.n
  && Dleq.verify_keyed pub.group ~ctx:("tdh2-share|" ^ string_of_int s.origin)
       ~g1:pub.group.Group.g ~key:pub.hk_tbls.(s.origin - 1) ~g2:ct.u ~h2:s.u_i
       s.proof

(* Interpolate h^r = prod u_i^lambda_i in the exponent with one k-way
   multi-exponentiation (one shared squaring chain), then unmask. *)
let combine (pub : public) (ct : checked ciphertext) (shares : dec_share list)
    : string option =
  let seen = Hashtbl.create 8 in
  let shares =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.origin || Hashtbl.length seen >= pub.k then false
        else begin Hashtbl.add seen s.origin (); true end)
      shares
  in
  if List.length shares < pub.k then None
  else begin
    let grp = pub.group in
    let points = List.map (fun s -> s.origin) shares in
    let hr =
      Group.mul_exp_multi grp
        (List.map
           (fun s ->
             (s.u_i, Shamir.lagrange_coeff ~modulus:grp.Group.q ~points ~j:s.origin ~at:0))
           shares)
    in
    Some (stream_xor ~key:(session_key pub hr) ct.c)
  end

(* Serialize a ciphertext so it can travel on the atomic broadcast channel. *)
let ciphertext_to_bytes (pub : public) (ct : _ ciphertext) : string =
  let grp = pub.group in
  let parts =
    [ ct.c; ct.label;
      Group.elt_to_bytes grp ct.u; Group.elt_to_bytes grp ct.ubar;
      Group.exponent_to_bytes grp ct.e; Group.exponent_to_bytes grp ct.f ]
  in
  String.concat ""
    (List.map (fun p -> Printf.sprintf "%08d%s" (String.length p) p) parts)

let ciphertext_of_bytes (s : string) : unchecked ciphertext option =
  let len = String.length s in
  let read pos =
    if pos + 8 > len then None
    else
      match int_of_string_opt (String.sub s pos 8) with
      | Some l when pos + 8 + l <= len -> Some (String.sub s (pos + 8) l, pos + 8 + l)
      | _ -> None
  in
  match read 0 with
  | None -> None
  | Some (c, p1) ->
    (match read p1 with
     | None -> None
     | Some (label, p2) ->
       (match read p2 with
        | None -> None
        | Some (ub, p3) ->
          (match read p3 with
           | None -> None
           | Some (ubarb, p4) ->
             (match read p4 with
              | None -> None
              | Some (eb, p5) ->
                (match read p5 with
                 | Some (fb, p6) when p6 = len ->
                   Some
                     (make ~c ~label
                        ~u:(Group.elt_of_bytes ub)
                        ~ubar:(Group.elt_of_bytes ubarb)
                        ~e:(Group.exponent_of_bytes eb)
                        ~f:(Group.exponent_of_bytes fb))
                 | _ -> None)))))
