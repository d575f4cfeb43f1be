(* Cached and batched verification of shares and assembled signatures.

   Protocol verify paths go through this module so the two amortization
   mechanisms compose in one place:

   - the verified-share cache (Crypto.Share_cache, bounded by
     [Config.share_cache_cap]): a share or signature that already passed
     verification under the same (scheme, statement+share digest, sender,
     index) key is accepted for the price of a hash-table probe, so
     retransmits, replayed justifications and catch-up closings stop
     re-paying exponentiations;
   - batch verification: two or more fresh same-statement share proofs
     are checked as one random-linear-combination equation
     (Crypto.Batch), with bisection isolating bad shares so Byzantine
     senders are still identified exactly.  Singletons and
     multi-signature shares (which have no combined equation) go through
     the single verifier.

   Acceptance is EXACTLY that of the reference one-at-a-time verifiers:
   cache keys cover the share bytes (a mutated retransmit misses and is
   verified for real), only shares that passed verification are inserted,
   and Crypto.Batch agrees with the single verifiers item by item.  Only
   the virtual-CPU charges move. *)

(* Cache schemes.  The key's digest covers the statement AND the share
   bytes, so a key identifies one concrete verification, not just a
   (statement, sender) slot — a corrupted retransmit cannot ride on an
   earlier honest share's entry. *)
let sch_tsig_share = "tsig-share"
let sch_tsig_sig = "tsig-sig"
let sch_coin = "coin"
let sch_enc = "enc-share"

let len_sum (parts : string list) : int =
  List.fold_left (fun a s -> a + String.length s) 0 parts

(* The S5 lint rule (cache-key-digest) checks that every Share_cache
   insertion is keyed through a Hashes digest; this is that digest.
   [charge] names the meter the hashing cost lands on: the party's
   protocol CPU by default, or the storage core when a durability
   endpoint verifies checkpoint certificates out-of-band. *)
let stmt_digest (charge : Charge.t) (parts : string list) : string =
  Charge.hash charge ~bytes:(len_sum parts);
  Hashes.Sha256.digest_list parts

let probe (rt : Runtime.t) ~(charge : Charge.t) ~(scheme : string)
    ~(digest : string) ~(sender : int) ~(index : int) : bool =
  if Crypto.Share_cache.mem rt.Runtime.cache ~scheme ~digest ~sender ~index
  then begin
    Charge.cache_hit charge;
    Trace.Ctx.incr rt.Runtime.trace "verify.cache_hit";
    true
  end
  else begin
    Trace.Ctx.incr rt.Runtime.trace "verify.cache_miss";
    false
  end

let record (rt : Runtime.t) ~(group : string) ~(scheme : string)
    ~(digest : string) ~(sender : int) ~(index : int) : unit =
  Crypto.Share_cache.add rt.Runtime.cache ~group ~scheme ~digest ~sender ~index;
  Trace.Ctx.gauge rt.Runtime.trace "verify.cache_size"
    (float_of_int (Crypto.Share_cache.size rt.Runtime.cache))

(* --- threshold-signature shares --- *)

let tsig_share_digest (charge : Charge.t) ~(ctx : string) (msg : string)
    (share : Tsig.share) : string =
  stmt_digest charge [ ctx; msg; Wire.encode (fun b -> Tsig.enc_share b share) ]

let tsig_share ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (share : Tsig.share) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let digest = tsig_share_digest charge ~ctx msg share in
  let sender = Tsig.share_origin share in
  if probe rt ~charge ~scheme:sch_tsig_share ~digest ~sender ~index:sender
  then true
  else begin
    Charge.tsig_verify_share charge;
    let ok = Tsig.verify_share pub ~ctx msg share in
    if ok then
      record rt ~group:ctx ~scheme:sch_tsig_share ~digest ~sender
        ~index:sender;
    ok
  end

(* Batch-verify same-message shares; [valid.(i)] reports share [i].  The
   combined random-linear-combination equation only exists for Shoup
   shares; multi-signature shares (independent RSA signatures) and
   singleton lists fall back to cached single verification. *)
let tsig_shares ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (shares : Tsig.share list) : bool array =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let n = List.length shares in
  let valid = Array.make n false in
  let keyed =
    List.mapi (fun i s -> (i, tsig_share_digest charge ~ctx msg s, s)) shares
  in
  let fresh =
    List.filter
      (fun (i, digest, s) ->
        let sender = Tsig.share_origin s in
        if probe rt ~charge ~scheme:sch_tsig_share ~digest ~sender ~index:sender
        then begin
          valid.(i) <- true;
          false
        end
        else true)
      keyed
  in
  let shoup =
    List.filter_map
      (fun (i, d, s) ->
        match s with
        | Tsig.Shoup_share sh -> Some (i, d, sh)
        | Tsig.Multi_share _ -> None)
      fresh
  in
  let accept (i, digest, s) =
    valid.(i) <- true;
    let sender = Tsig.share_origin s in
    record rt ~group:ctx ~scheme:sch_tsig_share ~digest ~sender ~index:sender
  in
  if List.length shoup = List.length fresh && List.length shoup >= 2 then begin
    let p =
      match pub with
      | Tsig.Shoup_pub p -> p
      | Tsig.Multi_pub _ -> assert false (* shoup shares imply a shoup key *)
    in
    Charge.tsig_verify_share_batch charge ~k:(List.length shoup);
    Trace.Ctx.observe rt.Runtime.trace "verify.batch_size"
      (float_of_int (List.length shoup));
    let bad =
      match
        Crypto.Batch.tsig_shares p ~ctx msg (List.map (fun (_, _, s) -> s) shoup)
      with
      | Crypto.Batch.All_valid -> []
      | Crypto.Batch.Invalid idxs -> idxs
    in
    List.iteri
      (fun j (i, digest, sh) ->
        if not (List.mem j bad) then
          accept (i, digest, Tsig.Shoup_share sh))
      shoup
  end
  else
    List.iter
      (fun (i, digest, s) ->
        Charge.tsig_verify_share charge;
        if Tsig.verify_share pub ~ctx msg s then accept (i, digest, s))
      fresh;
  valid

(* --- assembled threshold signatures --- *)

(* Closings and vote justifications repeat the same (statement, signature)
   pair across many messages — the cache collapses all but the first
   verification to a probe. *)
let tsig_signature ?charge (rt : Runtime.t) ~(pub : Tsig.public)
    ~(ctx : string) ~(signature : string) (msg : string) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let digest = stmt_digest charge [ ctx; msg; signature ] in
  if probe rt ~charge ~scheme:sch_tsig_sig ~digest ~sender:0 ~index:0 then true
  else begin
    Charge.tsig_verify charge ~k:(Tsig.k pub);
    let ok = Tsig.verify pub ~ctx ~signature msg in
    if ok then
      record rt ~group:ctx ~scheme:sch_tsig_sig ~digest ~sender:0 ~index:0;
    ok
  end

(* --- threshold-decryption shares --- *)

let enc_dec_share (rt : Runtime.t) ~(group : string)
    ~(ct : Crypto.Threshold_enc.ciphertext)
    (s : Crypto.Threshold_enc.dec_share) : bool =
  let pub = rt.Runtime.keys.Dealer.enc_pub in
  let digest =
    stmt_digest rt.Runtime.charge
      [ Crypto.Threshold_enc.ciphertext_to_bytes pub ct;
        string_of_int s.Crypto.Threshold_enc.origin;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.u_i;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a1;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a2;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.response
      ]
  in
  let sender = s.Crypto.Threshold_enc.origin in
  if
    probe rt ~charge:rt.Runtime.charge ~scheme:sch_enc ~digest ~sender
      ~index:sender
  then true
  else begin
    Charge.enc_verify_share rt.Runtime.charge;
    let ok = Crypto.Threshold_enc.verify_dec_share pub ct s in
    if ok then record rt ~group ~scheme:sch_enc ~digest ~sender ~index:sender;
    ok
  end

(* --- threshold-coin shares --- *)

let coin_digest (rt : Runtime.t) ~(name : string)
    (s : Crypto.Threshold_coin.share) : string =
  stmt_digest rt.Runtime.charge
    [ name;
      string_of_int s.Crypto.Threshold_coin.origin;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.value;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a1;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a2;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.response ]

let coin_share (rt : Runtime.t) ~(group : string) ~(name : string)
    (s : Crypto.Threshold_coin.share) : bool =
  let digest = coin_digest rt ~name s in
  let sender = s.Crypto.Threshold_coin.origin in
  if
    probe rt ~charge:rt.Runtime.charge ~scheme:sch_coin ~digest ~sender
      ~index:sender
  then true
  else begin
    Charge.coin_verify_share rt.Runtime.charge;
    let ok =
      Crypto.Threshold_coin.verify_share rt.Runtime.keys.Dealer.coin_pub ~name
        s
    in
    if ok then record rt ~group ~scheme:sch_coin ~digest ~sender ~index:sender;
    ok
  end

(* Verify a justification's coin shares together: cached shares are
   skipped, two or more fresh ones go through one RLC batch, a lone one
   through the single verifier.  Returns whether EVERY share is valid —
   the all-or-nothing contract of a J_coin justification. *)
let coin_shares (rt : Runtime.t) ~(group : string) ~(name : string)
    (shares : Crypto.Threshold_coin.share list) : bool =
  let pub = rt.Runtime.keys.Dealer.coin_pub in
  let keyed = List.map (fun s -> (coin_digest rt ~name s, s)) shares in
  let fresh =
    List.filter
      (fun (digest, s) ->
        let sender = s.Crypto.Threshold_coin.origin in
        not
          (probe rt ~charge:rt.Runtime.charge ~scheme:sch_coin ~digest ~sender
             ~index:sender))
      keyed
  in
  let accept (digest, s) =
    let sender = s.Crypto.Threshold_coin.origin in
    record rt ~group ~scheme:sch_coin ~digest ~sender ~index:sender
  in
  match fresh with
  | [] -> true
  | _ :: _ :: _ ->
    Charge.coin_verify_share_batch rt.Runtime.charge
      ~k:(List.length fresh);
    Trace.Ctx.observe rt.Runtime.trace "verify.batch_size"
      (float_of_int (List.length fresh));
    (match Crypto.Batch.coin_shares pub ~name (List.map snd fresh) with
     | Crypto.Batch.All_valid ->
       List.iter accept fresh;
       true
     | Crypto.Batch.Invalid bad ->
       (* Bisection proved the complement individually valid: cache it, so
          a justification retransmitted without its bad shares amortizes. *)
       List.iteri (fun j ks -> if not (List.mem j bad) then accept ks) fresh;
       false)
  | [ (digest, s) ] ->
    Charge.coin_verify_share rt.Runtime.charge;
    let ok = Crypto.Threshold_coin.verify_share pub ~name s in
    if ok then accept (digest, s);
    ok
