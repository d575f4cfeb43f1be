(* The Cachin-Kursawe-Shoup threshold coin ("Random oracles in
   Constantinople", PODC 2000), based on the Diffie-Hellman problem.

   Dealer: secret x in Z_q shared with a degree-(k-1) polynomial; global
   verification keys VK = g^x and VK_i = g^{x_i}.

   A coin named by a string C evaluates the function
       F(C) = H'( g~^x )      where g~ = HashToGroup(C),
   which no coalition of fewer than k parties can predict.  Party i releases
   the share g~^{x_i} together with a DLEQ proof that it used its dealt key;
   any k valid shares interpolate g~^x in the exponent. *)

type public = {
  group : Group.t;
  n : int;
  k : int;                       (* shares needed *)
  t : int;                       (* corruption bound *)
  global_vk : Group.elt;         (* g^x *)
  share_vks : Group.elt array;   (* VK_i = g^{x_i}, index i-1 *)
  share_vk_tbls : Group.table array;  (* fixed-base tables for the VK_i *)
}

type secret_share = {
  index : int;                   (* 1-based *)
  key : Group.exponent;          (* x_i *)
}

type share = {
  origin : int;                  (* releasing party, 1-based *)
  value : Group.elt;             (* g~^{x_i} *)
  proof : Dleq.t;
}

type keys = { public : public; shares : secret_share array }

let deal ~(drbg : Hashes.Drbg.t) ~(group : Group.t) ~n ~k ~t : keys =
  if not (k > t && k <= n - t) then invalid_arg "Threshold_coin.deal: need t < k <= n - t";
  let x = Group.random_exponent group ~drbg in
  let shamir =
    Shamir.share_secret ~drbg ~modulus:group.Group.q ~secret:x ~n ~k
  in
  let share_vks = Array.map (fun s -> Group.pow_g group s.Shamir.value) shamir in
  (* Precompute each verification key's window table once, at dealing time:
     every later share verification becomes table-driven. *)
  let share_vk_tbls = Array.map (fun vk -> Group.precompute group vk) share_vks in
  {
    public = { group; n; k; t; global_vk = Group.pow_g group x; share_vks; share_vk_tbls };
    shares = Array.map (fun s -> { index = s.Shamir.index; key = s.Shamir.value }) shamir;
  }

let coin_base (pub : public) (name : string) : Group.elt =
  Group.hash_to_group pub.group ("coin|" ^ name)

(* A release in two steps: [draw_nonce] takes the share's only randomness
   (its proof's commitment exponent) from the DRBG, and [finish] computes
   the share from it — the hash to the group, the share's exponentiation
   and the proof — deterministically.  A party can thus keep its DRBG turn
   at the point it would release, and do the work only if the share is
   ever revealed. *)
type nonce = Dleq.nonce

let draw_nonce ~(drbg : Hashes.Drbg.t) (pub : public) : nonce =
  Dleq.draw_nonce pub.group ~drbg

let finish (pub : public) (sk : secret_share) ~(name : string) (nonce : nonce) : share =
  let grp = pub.group in
  let gtilde = coin_base pub name in
  let value = Group.pow grp gtilde sk.key in
  let proof =
    Dleq.prove_with grp ~nonce
      ~ctx:("coin-share|" ^ name ^ "|" ^ string_of_int sk.index)
      ~g1:grp.Group.g ~h1:pub.share_vks.(sk.index - 1)
      ~g2:gtilde ~h2:value ~x:sk.key
  in
  { origin = sk.index; value; proof }

(* Party [share] releases its share of the coin [name]. *)
let release ~(drbg : Hashes.Drbg.t) (pub : public) (sk : secret_share) ~(name : string) : share =
  finish pub sk ~name (draw_nonce ~drbg pub)

let verify_share (pub : public) ~(name : string) (s : share) : bool =
  s.origin >= 1 && s.origin <= pub.n
  && begin
    let grp = pub.group in
    let gtilde = coin_base pub name in
    Dleq.verify_keyed grp ~ctx:("coin-share|" ^ name ^ "|" ^ string_of_int s.origin)
      ~g1:grp.Group.g ~key:pub.share_vk_tbls.(s.origin - 1)
      ~g2:gtilde ~h2:s.value s.proof
  end

(* Reference twin of {!verify_share}: the same proof checked by
   {!Dleq.verify_reference} (inversions and plain exponentiations, no
   precomputed tables).  The equivalence tests and the amortization
   benchmarks compare the fast single and batch paths against it. *)
let verify_share_reference (pub : public) ~(name : string) (s : share) : bool =
  s.origin >= 1 && s.origin <= pub.n
  && begin
    let grp = pub.group in
    let gtilde = coin_base pub name in
    Dleq.verify_reference grp
      ~ctx:("coin-share|" ^ name ^ "|" ^ string_of_int s.origin)
      ~g1:grp.Group.g ~h1:pub.share_vks.(s.origin - 1)
      ~g2:gtilde ~h2:s.value s.proof
  end

(* Assemble k distinct valid shares into the coin value: [len] pseudo-random
   bytes derived from g~^x.  Shares are assumed already verified. *)
let assemble (pub : public) ~(name : string) (shares : share list) ~(len : int) : string =
  let distinct = List.sort_uniq compare (List.map (fun s -> s.origin) shares) in
  if List.length distinct < pub.k then invalid_arg "Threshold_coin.assemble: not enough distinct shares";
  let shares =
    (* Keep one share per origin, first k. *)
    let seen = Hashtbl.create 8 in
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.origin || Hashtbl.length seen >= pub.k then false
        else begin Hashtbl.add seen s.origin (); true end)
      shares
  in
  let grp = pub.group in
  let points = List.map (fun s -> s.origin) shares in
  (* Interpolate g~^x in the exponent with one k-way multi-exponentiation:
     all k Lagrange powers share a single squaring chain (Nat.powmod_multi)
     instead of k separate windowed exponentiations. *)
  let acc =
    Group.mul_exp_multi grp
      (List.map
         (fun s ->
           let lam =
             Shamir.lagrange_coeff ~modulus:grp.Group.q ~points ~j:s.origin ~at:0
           in
           (s.value, lam))
         shares)
  in
  (* Expand H(g~^x) into len output bytes. *)
  let seed = Group.elt_to_bytes grp acc in
  let out = Buffer.create len in
  let i = ref 0 in
  while Buffer.length out < len do
    Buffer.add_string out
      (Hashes.Sha256.digest_list [ "coin-out|"; name; "|"; string_of_int !i; "|"; seed ]);
    incr i
  done;
  String.sub (Buffer.contents out) 0 len

(* The common case: a single unpredictable bit. *)
let assemble_bit (pub : public) ~(name : string) (shares : share list) : bool =
  let b = assemble pub ~name shares ~len:1 in
  Char.code b.[0] land 1 = 1
