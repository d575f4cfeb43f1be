(* Batch verification of share proofs by small-exponent random linear
   combination, with bisection fall-back to isolate the bad shares.

   Both proof systems in this repository carry their Fiat-Shamir
   commitments, so each proof reduces to algebraic verification equations

     DLEQ (order-q group):   g1^z = a1 * h1^c      g2^z = a2 * h2^c
     Shoup (unknown order):  v^z  = v' * v_i^c     xt^z = x' * (x_i^2)^c

   To check k proofs at once, draw small coefficients d_1..d_k (64 bits,
   nonzero) and test the single combined equation

     prod_j LHS_j^{d_j}  =  prod_j RHS_j^{d_j}

   by two k-way multi-exponentiations (Nat.powmod_multi) sharing one
   squaring chain.  If every proof is valid the combined equation holds
   identically.  If some proof is invalid, the combination detects it
   unless the coefficients hit a bad-share cancellation — probability
   2^-64 per coefficient for an adversary that cannot predict them.  The
   coefficients are derived deterministically from a hash of the entire
   batch (statements and proofs), so verification is reproducible and an
   adversary must commit to its shares before learning the coefficients —
   the standard derandomization of Bellare-Garay-Rabin batch verification.

   A failing batch is bisected: each half is re-checked (with fresh
   coefficients, since they hash the sub-batch), and singleton leaves run
   the exact one-share verifier — so the returned indices are precisely
   the shares that fail individual verification, and Byzantine senders are
   identified exactly as on the one-at-a-time path. *)

open Bignum

type verdict =
  | All_valid
  | Invalid of int list

(* Nonzero 64-bit coefficients derived from the batch transcript. *)
let coefficients ~(tag : string) (parts : string list) (k : int) : Nat.t array =
  let seed = Hashes.Sha256.digest_list ("sintra-batch|" :: tag :: parts) in
  let drbg = Hashes.Drbg.create ~seed in
  Array.init k (fun _ ->
    Nat.add Nat.one (Nat.of_bytes_be (Hashes.Drbg.bytes drbg 8)))

(* Generic driver: [pre i] is the cheap per-item well-formedness check
   (mirroring what the single verifier rejects before any exponentiation),
   [combined idxs] the RLC test over a sub-batch, [single i] the exact
   one-item verifier used at the leaves.  Returns the indices failing
   individual verification, in increasing order. *)
let run ~(n : int) ~(pre : int -> bool) ~(combined : int list -> bool)
    ~(single : int -> bool) : verdict =
  let malformed = ref [] in
  let candidates = ref [] in
  for i = n - 1 downto 0 do
    if pre i then candidates := i :: !candidates
    else malformed := i :: !malformed
  done;
  let rec isolate idxs =
    match idxs with
    | [] -> []
    | [ i ] -> if single i then [] else [ i ]
    | _ ->
      if combined idxs then []
      else begin
        let arr = Array.of_list idxs in
        let mid = Array.length arr / 2 in
        let left = Array.to_list (Array.sub arr 0 mid) in
        let right = Array.to_list (Array.sub arr mid (Array.length arr - mid)) in
        isolate left @ isolate right
      end
  in
  let bad =
    match !candidates with
    | [] -> []
    | [ i ] -> if single i then [] else [ i ]
    | idxs -> if combined idxs then [] else isolate idxs
  in
  match List.sort compare (!malformed @ bad) with
  | [] -> All_valid
  | bad -> Invalid bad

(* --- DLEQ proofs sharing both statement bases (the coin-share shape) --- *)

(* Items are (ctx, h1, h2, proof) with common g1 and g2.  [h1_trusted]
   skips the subgroup membership test on the h1 side — sound when the h1
   are dealer-published verification keys, which are group members by
   construction (the one-at-a-time path re-checks them on every share). *)
let dleq (grp : Group.t) ~(g1 : Group.elt) ~(g2 : Group.elt)
    ?(h1_trusted = false)
    (items : (string * Group.elt * Group.elt * Dleq.t) list) : verdict =
  let items = Array.of_list items in
  let n = Array.length items in
  let q = grp.Group.q in
  (* The sub-batch's items only: each passed [pre], so every element and
     the response fit their fixed-width encodings (a malformed item, such
     as an unreduced response, must be rejected, not crash the encoder). *)
  let transcript_parts idxs =
    let buf = Buffer.create (64 * n) in
    Buffer.add_string buf (Group.elt_to_bytes grp g1);
    Buffer.add_string buf (Group.elt_to_bytes grp g2);
    List.iter
      (fun i ->
        let (ctx, h1, h2, pf) = items.(i) in
        Buffer.add_string buf ctx;
        Buffer.add_char buf '\x00';
        Buffer.add_string buf (Group.elt_to_bytes grp h1);
        Buffer.add_string buf (Group.elt_to_bytes grp h2);
        Buffer.add_string buf (Dleq.to_bytes grp pf))
      idxs;
    [ Buffer.contents buf ]
  in
  let pre i =
    let (_, h1, h2, pf) = items.(i) in
    (not (Nat.is_zero pf.Dleq.a1)) && Nat.compare pf.Dleq.a1 grp.Group.p < 0
    && (not (Nat.is_zero pf.Dleq.a2)) && Nat.compare pf.Dleq.a2 grp.Group.p < 0
    && Nat.compare pf.Dleq.response q < 0
    && (h1_trusted || Group.is_member grp h1)
    && Group.is_member grp h2
  in
  let combined idxs =
    let k = List.length idxs in
    let delta = coefficients ~tag:"dleq" (transcript_parts idxs) (2 * k) in
    (* g1^(sum d_j z_j) * g2^(sum e_j z_j)  =
       prod a1_j^{d_j} h1_j^{d_j c_j} a2_j^{e_j} h2_j^{e_j c_j}, all
       exponents mod q (the hypothesis side lives in the order-q
       subgroup; the commitment side carries its own small exponents). *)
    let sum_d_z = ref Nat.zero and sum_e_z = ref Nat.zero in
    let rhs = ref [] in
    List.iteri
      (fun pos i ->
        let (ctx, h1, h2, pf) = items.(i) in
        let d = delta.(2 * pos) and e = delta.((2 * pos) + 1) in
        let c = Dleq.challenge grp ~ctx ~g1 ~h1 ~g2 ~h2 pf in
        let z = pf.Dleq.response in
        sum_d_z := Nat.rem (Nat.add !sum_d_z (Nat.mul d z)) q;
        sum_e_z := Nat.rem (Nat.add !sum_e_z (Nat.mul e z)) q;
        rhs :=
          (pf.Dleq.a1, d)
          :: (h1, Nat.rem (Nat.mul d c) q)
          :: (pf.Dleq.a2, e)
          :: (h2, Nat.rem (Nat.mul e c) q)
          :: !rhs)
      idxs;
    let lhs = Group.mul_exp_multi grp [ (g1, !sum_d_z); (g2, !sum_e_z) ] in
    Group.elt_equal lhs (Group.mul_exp_multi grp !rhs)
  in
  let single i =
    let (ctx, h1, h2, pf) = items.(i) in
    Dleq.verify grp ~ctx ~g1 ~h1 ~g2 ~h2 pf
  in
  run ~n ~pre ~combined ~single

(* --- threshold-coin shares --- *)

let coin_shares (pub : Threshold_coin.public) ~(name : string)
    (shares : Threshold_coin.share list) : verdict =
  let grp = pub.Threshold_coin.group in
  let gtilde = Threshold_coin.coin_base pub name in
  (* Shares with an out-of-range origin have no verification key; split
     them out as invalid before forming the DLEQ items. *)
  let shares = Array.of_list shares in
  let n = Array.length shares in
  let in_range s =
    s.Threshold_coin.origin >= 1 && s.Threshold_coin.origin <= pub.Threshold_coin.n
  in
  let items = ref [] in
  let item_index = Array.make n (-1) in
  let bad_origin = ref [] in
  for i = n - 1 downto 0 do
    let s = shares.(i) in
    if in_range s then begin
      item_index.(i) <- 0;  (* mark as participating; position fixed below *)
      items :=
        ( "coin-share|" ^ name ^ "|" ^ string_of_int s.Threshold_coin.origin,
          pub.Threshold_coin.share_vks.(s.Threshold_coin.origin - 1),
          s.Threshold_coin.value,
          s.Threshold_coin.proof )
        :: !items
    end
    else bad_origin := i :: !bad_origin
  done;
  (* Map positions in the filtered item list back to input indices. *)
  let back = Array.of_list (List.filteri (fun i _ -> item_index.(i) >= 0)
                              (List.init n (fun i -> i))) in
  match dleq grp ~g1:grp.Group.g ~g2:gtilde ~h1_trusted:true !items with
  | All_valid ->
    if !bad_origin = [] then All_valid else Invalid !bad_origin
  | Invalid bad ->
    Invalid (List.sort compare (!bad_origin @ List.map (fun j -> back.(j)) bad))

(* --- Shoup threshold-signature shares --- *)

let tsig_shares (pub : Threshold_sig.public) (st : Rsa.stmt)
    (shares : Threshold_sig.share list) : verdict =
  let shares = Array.of_list shares in
  let n = Array.length shares in
  let rsa = pub.Threshold_sig.rsa in
  let nmod = rsa.Rsa.n in
  (* xtilde = x^{4 Delta} is shared by every proof on this message:
     computed once per batch, where the one-at-a-time path pays it per
     share. *)
  let xtilde = lazy (Threshold_sig.xtilde_rep pub st) in
  let pre i =
    let s = shares.(i) in
    s.Threshold_sig.origin >= 1
    && s.Threshold_sig.origin <= pub.Threshold_sig.nparties
    && Nat.compare s.Threshold_sig.x_i nmod < 0
    && not (Nat.is_zero s.Threshold_sig.x_i)
  in
  let transcript_parts () =
    let buf = Buffer.create (64 * n) in
    Buffer.add_string buf (Rsa.stmt_ctx st);
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (Rsa.stmt_msg st);
    Array.iter
      (fun s ->
        Buffer.add_string buf (string_of_int s.Threshold_sig.origin);
        Buffer.add_string buf (Nat.to_bytes_be s.Threshold_sig.x_i);
        Buffer.add_string buf (Nat.to_bytes_be s.Threshold_sig.proof_v);
        Buffer.add_string buf (Nat.to_bytes_be s.Threshold_sig.proof_x);
        Buffer.add_string buf (Nat.to_bytes_be s.Threshold_sig.proof_z))
      shares;
    [ Buffer.contents buf ]
  in
  let combined idxs =
    let k = List.length idxs in
    let xt = Lazy.force xtilde in
    let delta = coefficients ~tag:"tsig" (transcript_parts ()) (2 * k) in
    (* v^(sum d_j z_j) * xt^(sum e_j z_j)  =
       prod v'_j^{d_j} v_ij^{d_j c_j} x'_j^{e_j} (x_ij^2)^{e_j c_j}.
       The group QR_n has unknown order, so the exponents stay full-size
       integers — never reduced. *)
    let sum_d_z = ref Nat.zero and sum_e_z = ref Nat.zero in
    let rhs = ref [] in
    List.iteri
      (fun pos i ->
        let s = shares.(i) in
        let d = delta.(2 * pos) and e = delta.((2 * pos) + 1) in
        let c = Threshold_sig.share_challenge pub ~xtilde:xt s in
        let x_i_sq = Nat.rem (Nat.sqr s.Threshold_sig.x_i) nmod in
        sum_d_z := Nat.add !sum_d_z (Nat.mul d s.Threshold_sig.proof_z);
        sum_e_z := Nat.add !sum_e_z (Nat.mul e s.Threshold_sig.proof_z);
        rhs :=
          (s.Threshold_sig.proof_v, d)
          :: (pub.Threshold_sig.vks.(s.Threshold_sig.origin - 1), Nat.mul d c)
          :: (s.Threshold_sig.proof_x, e)
          :: (x_i_sq, Nat.mul e c)
          :: !rhs)
      idxs;
    let lhs =
      Nat.Montgomery.powmod_multi rsa.Rsa.mont
        [ (pub.Threshold_sig.v, !sum_d_z); (xt, !sum_e_z) ]
    in
    Nat.equal lhs (Nat.Montgomery.powmod_multi rsa.Rsa.mont !rhs)
  in
  let single i = Threshold_sig.verify_share pub st shares.(i) in
  run ~n ~pre ~combined ~single
