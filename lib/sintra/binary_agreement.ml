(* Randomized binary Byzantine agreement: the protocol of Cachin, Kursawe
   and Shoup (PODC 2000), Section 2.3 of the paper.

   Each round has three exchanges — pre-votes, main-votes, coin shares — and
   every vote is justified by non-interactively verifiable information:

   - a pre-vote for b in round 1 carries (under external validity) a proof
     that b is acceptable;
   - a pre-vote for b in round r > 1 is justified either by a threshold
     signature on "pre-vote b in round r-1" (a main-vote for b carried it),
     or by a threshold signature on "main-vote abstain in round r-1"
     together with the round-(r-1) coin shares showing the coin was b;
   - a main-vote for b is justified by a threshold signature assembled from
     n-t pre-vote shares for b; a main-vote of abstain by one justified
     pre-vote for 0 and one for 1;
   - a party decides b on n-t main-votes for b.

   The threshold signatures use the agreement key (k = n-t); the coin is the
   (n, t+1, t) Diffie-Hellman threshold coin.  The [bias] option replaces
   the round-1 coin by a fixed value (Section 2.3, biased validated
   agreement); [validator] implements external validity: an honest party
   only decides a value it holds validation data for, and the data is
   returned with the decision. *)

type justification =
  | J_initial
  | J_hard of string                                    (* sig on pre r-1 b *)
  | J_coin of string * Crypto.Threshold_coin.share list (* sig on abstain + coin *)

type prevote = {
  pv_round : int;
  pv_value : bool;
  pv_share : Tsig.share;
  pv_just : justification;
  pv_proof : string option;
}

type mainvote_value = MV_bit of bool | MV_abstain

type mainjust =
  | MJ_value of string                  (* threshold sig on "pre r b" *)
  | MJ_abstain of prevote * prevote     (* a justified pre-vote for each bit *)

type mainvote = {
  mv_round : int;
  mv_value : mainvote_value;
  mv_share : Tsig.share;
  mv_just : mainjust;
}

type round_state = {
  prevotes : (int, prevote) Hashtbl.t;        (* by 0-based sender *)
  mainvotes : (int, mainvote) Hashtbl.t;
  coin_shares : (int, Crypto.Threshold_coin.share) Hashtbl.t;
  mutable coin_value : bool option;
  (* Our own coin share for this round, pre-released at the idle start of
     the round so [try_finish_round] finds it ready instead of paying the
     exponentiations on the critical path.  Volatile: a crash loses it, and
     the release path recomputes on demand. *)
  mutable pregen_coin : Crypto.Threshold_coin.share option;
  mutable sent_prevote : bool;
  mutable sent_mainvote : bool;
  mutable released_coin : bool;
  mutable finished : bool;                    (* processed n-t main-votes *)
}

type t = {
  rt : Runtime.t;
  pid : string;
  bias : bool option;
  validator : (bool -> string -> bool) option;
  on_decide : bool -> string option -> unit;
  rounds : (int, round_state) Hashtbl.t;
  proofs : (bool, string) Hashtbl.t;          (* external validity data *)
  mutable proposal : (bool * string) option;
  mutable decided : (bool * int) option;      (* value, round *)
  mutable decide_emitted : bool;
  mutable pending_decide : bool option;       (* waiting for a proof *)
  mutable halted : bool;
  mutable aborted : bool;
}

(* --- statements bound into threshold signatures and the coin --- *)

let pre_stmt (t : t) (r : int) (b : bool) : string =
  Printf.sprintf "aba-pre|%s|%d|%b" t.pid r b

let main_stmt (t : t) (r : int) (v : mainvote_value) : string =
  let vs = match v with MV_bit b -> string_of_bool b | MV_abstain -> "abstain" in
  Printf.sprintf "aba-main|%s|%d|%s" t.pid r vs

let coin_name (t : t) (r : int) : string = Printf.sprintf "aba-coin|%s|%d" t.pid r

(* --- wire encoding --- *)

let enc_coin_share (b : Wire.Enc.t) (s : Crypto.Threshold_coin.share) : unit =
  Wire.Enc.int b s.Crypto.Threshold_coin.origin;
  Wire.Enc.bytes b (Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.value);
  Wire.Enc.bytes b (Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a1);
  Wire.Enc.bytes b (Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a2);
  Wire.Enc.bytes b (Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.response)

let dec_coin_share (d : Wire.Dec.t) : Crypto.Threshold_coin.share =
  let origin = Wire.Dec.int d in
  let value = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
  let a1 = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
  let a2 = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
  let response = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
  { Crypto.Threshold_coin.origin; value;
    proof = { Crypto.Dleq.a1; a2; response } }

let enc_prevote (b : Wire.Enc.t) (pv : prevote) : unit =
  Wire.Enc.int b pv.pv_round;
  Wire.Enc.bool b pv.pv_value;
  Tsig.enc_share b pv.pv_share;
  (match pv.pv_just with
   | J_initial -> Wire.Enc.u8 b 0
   | J_hard sig_ -> Wire.Enc.u8 b 1; Wire.Enc.bytes b sig_
   | J_coin (sig_, shares) ->
     Wire.Enc.u8 b 2;
     Wire.Enc.bytes b sig_;
     Wire.Enc.list b enc_coin_share shares);
  Wire.Enc.option b Wire.Enc.bytes pv.pv_proof

and dec_prevote (d : Wire.Dec.t) : prevote =
  let pv_round = Wire.Dec.int d in
  let pv_value = Wire.Dec.bool d in
  let pv_share = Tsig.dec_share d in
  let pv_just =
    match Wire.Dec.u8 d with
    | 0 -> J_initial
    | 1 -> J_hard (Wire.Dec.bytes d)
    | 2 ->
      let sig_ = Wire.Dec.bytes d in
      let shares = Wire.Dec.list d dec_coin_share in
      J_coin (sig_, shares)
    | tag -> Wire.fail "bad prevote justification tag %d" tag
  in
  let pv_proof = Wire.Dec.option d Wire.Dec.bytes in
  { pv_round; pv_value; pv_share; pv_just; pv_proof }

let enc_mainvote (b : Wire.Enc.t) (mv : mainvote) : unit =
  Wire.Enc.int b mv.mv_round;
  (match mv.mv_value with
   | MV_bit bit -> Wire.Enc.u8 b (if bit then 1 else 0)
   | MV_abstain -> Wire.Enc.u8 b 2);
  Tsig.enc_share b mv.mv_share;
  match mv.mv_just with
  | MJ_value sig_ -> Wire.Enc.u8 b 0; Wire.Enc.bytes b sig_
  | MJ_abstain (pv0, pv1) ->
    Wire.Enc.u8 b 1;
    enc_prevote b pv0;
    enc_prevote b pv1

let dec_mainvote (d : Wire.Dec.t) : mainvote =
  let mv_round = Wire.Dec.int d in
  let mv_value =
    match Wire.Dec.u8 d with
    | 0 -> MV_bit false
    | 1 -> MV_bit true
    | 2 -> MV_abstain
    | tag -> Wire.fail "bad mainvote value tag %d" tag
  in
  let mv_share = Tsig.dec_share d in
  let mv_just =
    match Wire.Dec.u8 d with
    | 0 -> MJ_value (Wire.Dec.bytes d)
    | 1 ->
      let pv0 = dec_prevote d in
      let pv1 = dec_prevote d in
      MJ_abstain (pv0, pv1)
    | tag -> Wire.fail "bad mainvote justification tag %d" tag
  in
  { mv_round; mv_value; mv_share; mv_just }

let tag_prevote = 0
let tag_mainvote = 1
let tag_coinshare = 2

(* --- helpers --- *)

let ag_pub (t : t) : Tsig.public = Tsig.public_of_secret t.rt.Runtime.keys.Dealer.ag_tsig

let round_state (t : t) (r : int) : round_state =
  match Hashtbl.find_opt t.rounds r with
  | Some st -> st
  | None ->
    let st = {
      prevotes = Hashtbl.create 8;
      mainvotes = Hashtbl.create 8;
      coin_shares = Hashtbl.create 8;
      coin_value = None;
      pregen_coin = None;
      sent_prevote = false;
      sent_mainvote = false;
      released_coin = false;
      finished = false;
    }
    in
    Hashtbl.add t.rounds r st;
    st

let quorum (t : t) : int = Config.vote_quorum t.rt.Runtime.cfg
let coin_k (t : t) : int = Config.coin_threshold t.rt.Runtime.cfg

(* --- tracing: one span per round on the instance's thread, coin flips on
   a dedicated "<pid>/coin" thread so overlapping rounds stay nested. --- *)

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let trace_round (t : t) (r : int) (ph : Trace.Event.phase) : unit =
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time:(Trace.Ctx.now tr) ~pid:t.pid ~cat:"aba" ~ph
      ~args:[ ("round", Trace.Event.Int r) ]
      (Printf.sprintf "round %d" r)

let trace_coin (t : t) (r : int) (ph : Trace.Event.phase)
    (args : (string * Trace.Event.arg) list) : unit =
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time:(Trace.Ctx.now tr) ~pid:(t.pid ^ "/coin")
      ~cat:"aba" ~ph ~args
      (Printf.sprintf "coin %d" r)

let store_proof (t : t) (b : bool) (proof : string) : unit =
  match t.validator with
  | None -> ()
  | Some valid ->
    if not (Hashtbl.mem t.proofs b) && valid b proof then
      Hashtbl.add t.proofs b proof

(* --- verification of incoming votes --- *)

(* Check the coin shares embedded in a J_coin justification and return the
   coin value they determine, or None.  The shares arrive together, so this
   is the protocol's natural batch-verification site: [Verify.coin_shares]
   checks them as one random-linear-combination equation (minus any already
   cached from earlier justifications for the same coin). *)
let check_coin_just (t : t) (r_prev : int) (shares : Crypto.Threshold_coin.share list)
    : bool option =
  let charge = t.rt.Runtime.charge in
  let pub = t.rt.Runtime.keys.Dealer.coin_pub in
  let name = coin_name t r_prev in
  let distinct = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace distinct s.Crypto.Threshold_coin.origin ())
    shares;
  if Hashtbl.length distinct < List.length shares    (* duplicated origin *)
     || Hashtbl.length distinct < coin_k t
     || not (Verify.coin_shares t.rt ~group:t.pid ~name shares)
  then None
  else begin
    Charge.coin_assemble charge ~k:(coin_k t);
    Some (Crypto.Threshold_coin.assemble_bit pub ~name shares)
  end

(* Full validity check of a pre-vote, including its justification; also
   harvests external-validity proofs and coin values as a side effect. *)
let rec prevote_valid (t : t) ~(sender : int) (pv : prevote) : bool =
  pv.pv_round >= 1
  && Tsig.share_origin pv.pv_share = sender + 1
  && Verify.tsig_share t.rt ~pub:(ag_pub t) ~ctx:t.pid
       (pre_stmt t pv.pv_round pv.pv_value) pv.pv_share
  && begin
    let just_ok =
      match pv.pv_just, pv.pv_round with
      | J_initial, 1 ->
        (match t.validator with
         | None -> true
         | Some valid ->
           (match pv.pv_proof with
            | Some proof -> valid pv.pv_value proof
            | None -> false))
      | J_hard sig_, r when r > 1 ->
        (* Every round-r pre-vote adopting bit b carries the SAME threshold
           signature statement — all but the first check is a cache probe. *)
        Verify.tsig_signature t.rt ~pub:(ag_pub t) ~ctx:t.pid ~signature:sig_
          (pre_stmt t (r - 1) pv.pv_value)
      | J_coin (sig_, shares), r when r > 1 ->
        Verify.tsig_signature t.rt ~pub:(ag_pub t) ~ctx:t.pid ~signature:sig_
          (main_stmt t (r - 1) MV_abstain)
        && begin
          match t.bias with
          | Some bias_value when r - 1 = 1 ->
            (* The round-1 coin is replaced by the bias. *)
            shares = [] && pv.pv_value = bias_value
          | _ ->
            (match check_coin_just t (r - 1) shares with
             | Some coin -> coin = pv.pv_value
             | None -> false)
        end
      | (J_initial | J_hard _ | J_coin _), _ -> false
    in
    if just_ok then begin
      (match pv.pv_proof with
       | Some proof -> store_proof t pv.pv_value proof
       | None -> ());
      (* Equivocation: this pre-vote is fully valid, so if we already hold a
         conflicting valid pre-vote from the same sender the sender signed
         both bits.  Checking here (not only in [handle]) also catches
         selective equivocation, where the conflicting vote reaches us only
         embedded in another party's abstain justification. *)
      (match Hashtbl.find_opt (round_state t pv.pv_round).prevotes sender with
       | Some prev when prev.pv_value <> pv.pv_value ->
         Invariant.flag t.rt.Runtime.inv ~offender:sender
           (Printf.sprintf "aba %s: equivocating pre-vote in round %d"
              t.pid pv.pv_round)
       | Some _ | None -> ());
      true
    end
    else false
  end

and mainvote_valid (t : t) ~(sender : int) (mv : mainvote) : bool =
  mv.mv_round >= 1
  && Tsig.share_origin mv.mv_share = sender + 1
  && Verify.tsig_share t.rt ~pub:(ag_pub t) ~ctx:t.pid
       (main_stmt t mv.mv_round mv.mv_value) mv.mv_share
  && begin
    match mv.mv_value, mv.mv_just with
    | MV_bit b, MJ_value sig_ ->
      Verify.tsig_signature t.rt ~pub:(ag_pub t) ~ctx:t.pid ~signature:sig_
        (pre_stmt t mv.mv_round b)
    | MV_abstain, MJ_abstain (pv0, pv1) ->
      pv0.pv_round = mv.mv_round && pv1.pv_round = mv.mv_round
      && pv0.pv_value = false && pv1.pv_value = true
      && prevote_valid t ~sender:(Tsig.share_origin pv0.pv_share - 1) pv0
      && prevote_valid t ~sender:(Tsig.share_origin pv1.pv_share - 1) pv1
    | MV_bit _, MJ_abstain _ | MV_abstain, MJ_value _ -> false
  end

(* --- sending votes --- *)

let send_prevote (t : t) (r : int) (b : bool) (just : justification) : unit =
  let st = round_state t r in
  if not st.sent_prevote then begin
    st.sent_prevote <- true;
    trace_round t r Trace.Event.Span_begin;
    let charge = t.rt.Runtime.charge in
    Charge.tsig_release charge;
    let share =
      Tsig.release ~drbg:t.rt.Runtime.drbg t.rt.Runtime.keys.Dealer.ag_tsig
        ~ctx:t.pid (pre_stmt t r b)
    in
    let proof = Hashtbl.find_opt t.proofs b in
    let pv = { pv_round = r; pv_value = b; pv_share = share; pv_just = just; pv_proof = proof } in
    let body = Wire.encode (fun buf -> Wire.Enc.u8 buf tag_prevote; enc_prevote buf pv) in
    Runtime.broadcast t.rt ~pid:t.pid body;
    (* Coin pre-generation: our round-r coin share depends only on the coin
       name, known now, so release it at the idle start of the round rather
       than on the critical path when the round fails to decide.  The bias
       stands in for the round-1 coin, so there is nothing to precompute
       there.  Broadcasting still happens in [try_finish_round]: revealing
       the share early would let the adversary see coins ahead of votes. *)
    (match t.bias with
     | Some _ when r = 1 -> ()
     | Some _ | None ->
       if st.pregen_coin = None then begin
         Charge.coin_release charge;
         st.pregen_coin <-
           Some
             (Crypto.Threshold_coin.release ~drbg:t.rt.Runtime.drbg
                t.rt.Runtime.keys.Dealer.coin_pub
                t.rt.Runtime.keys.Dealer.coin_share ~name:(coin_name t r))
       end)
  end

let try_send_mainvote (t : t) (r : int) : unit =
  let st = round_state t r in
  if st.sent_prevote && not st.sent_mainvote
     && Hashtbl.length st.prevotes >= quorum t
  then begin
    st.sent_mainvote <- true;
    let charge = t.rt.Runtime.charge in
    (* Canonical sender order: the abstain justification picks the first
       vote for each bit, and that choice must not depend on hash order. *)
    let votes = Det.values st.prevotes ~compare:Det.by_int in
    let zeros = List.filter (fun pv -> not pv.pv_value) votes in
    let ones = List.filter (fun pv -> pv.pv_value) votes in
    let value, just =
      match zeros, ones with
      | [], _ :: _ | _ :: _, [] ->
        (* Unanimous pre-votes: main-vote the bit, justified by the
           assembled threshold signature on the pre-vote statement. *)
        let b = ones <> [] in
        Charge.tsig_assemble charge ~k:(quorum t);
        let sig_ =
          Tsig.assemble (ag_pub t) ~ctx:t.pid (pre_stmt t r b)
            (List.map (fun pv -> pv.pv_share) votes)
        in
        (MV_bit b, MJ_value sig_)
      | pv0 :: _, pv1 :: _ -> (MV_abstain, MJ_abstain (pv0, pv1))
      | [], [] -> assert false
    in
    Charge.tsig_release charge;
    let share =
      Tsig.release ~drbg:t.rt.Runtime.drbg t.rt.Runtime.keys.Dealer.ag_tsig
        ~ctx:t.pid (main_stmt t r value)
    in
    let mv = { mv_round = r; mv_value = value; mv_share = share; mv_just = just } in
    let body = Wire.encode (fun buf -> Wire.Enc.u8 buf tag_mainvote; enc_mainvote buf mv) in
    Runtime.broadcast t.rt ~pid:t.pid body;
    (* Deciding in round r means halting after our round-(r+1) main-vote:
       by then every honest party can finish round r+1 without us. *)
    match t.decided with
    | Some (_, dr) when r >= dr + 1 -> t.halted <- true
    | _ -> ()
  end

let emit_decide (t : t) : unit =
  if not t.decide_emitted then begin
    match t.decided with
    | None -> ()
    | Some (b, _) ->
      let trace_decide () =
        let tr = trace t in
        if Trace.Ctx.enabled tr then
          Trace.Ctx.instant tr ~pid:t.pid ~cat:"aba"
            ~args:[ ("value", Trace.Event.Bool b) ]
            "decide"
      in
      (match t.validator with
       | None ->
         t.decide_emitted <- true;
         trace_decide ();
         t.on_decide b None
       | Some _ ->
         (match Hashtbl.find_opt t.proofs b with
          | Some proof ->
            t.decide_emitted <- true;
            t.pending_decide <- None;
            trace_decide ();
            t.on_decide b (Some proof)
          | None ->
            (* External validity: defer until validation data arrives (a
               justified round-1 pre-vote for b is on its way). *)
            t.pending_decide <- Some b))
  end

let rec try_finish_round (t : t) (r : int) : unit =
  let st = round_state t r in
  if st.sent_mainvote && not st.finished
     && Hashtbl.length st.mainvotes >= quorum t
  then begin
    st.finished <- true;
    trace_round t r Trace.Event.Span_end;
    let votes = Det.values st.mainvotes ~compare:Det.by_int in
    let bit_votes =
      List.filter_map (fun mv -> match mv.mv_value with MV_bit b -> Some (b, mv) | MV_abstain -> None) votes
    in
    let unanimous_bit =
      match bit_votes with
      | [] -> None
      | (b, _) :: _ ->
        if List.length bit_votes = List.length votes
           && List.for_all (fun (b', _) -> b' = b) bit_votes
        then Some b
        else None
    in
    (match unanimous_bit with
     | Some b ->
       if t.decided = None then begin
         t.decided <- Some (b, r);
         emit_decide t
       end
     | None ->
       (* Not decided: release our coin share for this round (unless the
          bias stands in for the round-1 coin). *)
       (match t.bias with
        | Some bias_value when r = 1 -> st.coin_value <- Some bias_value
        | _ ->
          if not st.released_coin then begin
            st.released_coin <- true;
            trace_coin t r Trace.Event.Span_begin [];
            let charge = t.rt.Runtime.charge in
            let share =
              match st.pregen_coin with
              | Some share -> share    (* already paid for at round start *)
              | None ->
                Charge.coin_release charge;
                Crypto.Threshold_coin.release ~drbg:t.rt.Runtime.drbg
                  t.rt.Runtime.keys.Dealer.coin_pub
                  t.rt.Runtime.keys.Dealer.coin_share ~name:(coin_name t r)
            in
            let body =
              Wire.encode (fun buf ->
                Wire.Enc.u8 buf tag_coinshare;
                Wire.Enc.int buf r;
                enc_coin_share buf share)
            in
            Runtime.broadcast t.rt ~pid:t.pid body
          end));
    try_advance t r
  end

(* Move to round r+1 once round r is finished and the new preference is
   determined (step 4 of the protocol). *)
and try_advance (t : t) (r : int) : unit =
  let st = round_state t r in
  if st.finished && not t.halted && not (round_state t (r + 1)).sent_prevote then begin
    (* Canonical sender order: the adopted bit-vote (and the signature we
       re-broadcast with it) must be the same at every replay. *)
    let votes = Det.values st.mainvotes ~compare:Det.by_int in
    let bit_vote =
      List.find_map
        (fun mv -> match mv.mv_value with MV_bit b -> Some (b, mv) | MV_abstain -> None)
        votes
    in
    match bit_vote with
    | Some (b, mv) ->
      (* A non-abstain main-vote was received: adopt it, justified by the
         threshold signature it carried. *)
      let sig_ = (match mv.mv_just with MJ_value s -> s | MJ_abstain _ -> assert false) in
      send_prevote t (r + 1) b (J_hard sig_);
      try_send_mainvote t (r + 1);
      try_finish_round t (r + 1)
    | None ->
      (* All main-votes abstained: follow the coin. *)
      (match st.coin_value with
       | None -> ()   (* wait for coin shares *)
       | Some coin ->
         let charge = t.rt.Runtime.charge in
         let abstain_shares =
           List.filter_map
             (fun mv ->
               match mv.mv_value with
               | MV_abstain -> Some mv.mv_share
               | MV_bit _ -> None)
             votes
         in
         Charge.tsig_assemble charge ~k:(quorum t);
         let sigbar =
           Tsig.assemble (ag_pub t) ~ctx:t.pid (main_stmt t r MV_abstain) abstain_shares
         in
         let shares =
           match t.bias with
           | Some _ when r = 1 -> []
           | _ ->
             (* Keep exactly the threshold, smallest senders first, so the
                justification is compact and deterministic (the table is
                keyed by 0-based sender = origin - 1). *)
             let sorted = Det.values st.coin_shares ~compare:Det.by_int in
             List.filteri (fun i _ -> i < coin_k t) sorted
         in
         send_prevote t (r + 1) coin (J_coin (sigbar, shares));
         try_send_mainvote t (r + 1);
         try_finish_round t (r + 1))
  end

(* --- message handling --- *)

let handle (t : t) ~src body =
  if not t.aborted && not (t.halted && t.decide_emitted) then begin
    match Wire.decode_prefix body (fun d -> (Wire.Dec.u8 d, d)) with
    | None -> ()
    | Some (tag, d) ->
      Runtime.handling t.rt ~pid:t.pid ~cat:"aba"
        (if tag = tag_prevote then "prevote"
         else if tag = tag_mainvote then "mainvote"
         else if tag = tag_coinshare then "coinshare"
         else "other");
      if tag = tag_prevote then begin
        match (try Some (dec_prevote d) with Wire.Decode _ -> None) with
        | None -> ()
        | Some pv ->
          let inv = t.rt.Runtime.inv in
          Invariant.sender_in_range inv src;
          let st = round_state t pv.pv_round in
          (* Equivocation: a second, conflicting, validly signed pre-vote
             from the same sender is Byzantine evidence — [prevote_valid]
             records it, then the duplicate is ignored as usual. *)
          (match Hashtbl.find_opt st.prevotes src with
           | Some prev
             when Invariant.enabled inv && prev.pv_value <> pv.pv_value ->
             ignore (prevote_valid t ~sender:src pv)
           | Some _ | None -> ());
          if not (Hashtbl.mem st.prevotes src) && prevote_valid t ~sender:src pv
          then begin
            Invariant.share_index inv (Tsig.share_origin pv.pv_share);
            Invariant.fresh_sender inv st.prevotes src "pre-vote tally";
            Hashtbl.add st.prevotes src pv;
            (* A coin-justified pre-vote reveals the previous round's coin.
               Keep its embedded shares (already verified by
               [check_coin_just]) too: our own coin-justified pre-vote for
               this round must cite a full threshold of shares, and we may
               never receive that many directly — e.g. when one link is
               slow and the sender's share is the only one to reach us. *)
            (match pv.pv_just with
             | J_coin (_, shares) when pv.pv_round > 1 ->
               let prev = round_state t (pv.pv_round - 1) in
               List.iter
                 (fun s ->
                   let sender = s.Crypto.Threshold_coin.origin - 1 in
                   if not (Hashtbl.mem prev.coin_shares sender) then
                     Hashtbl.add prev.coin_shares sender s)
                 shares;
               if prev.coin_value = None then begin
                 prev.coin_value <- Some pv.pv_value;
                 if prev.released_coin then
                   trace_coin t (pv.pv_round - 1) Trace.Event.Span_end
                     [ ("value", Trace.Event.Bool pv.pv_value) ]
               end;
               (* The reveal may be what a finished round was waiting on. *)
               if not t.halted then try_advance t (pv.pv_round - 1)
             | J_initial | J_hard _ | J_coin _ -> ());
            if not t.halted then begin
              try_send_mainvote t pv.pv_round;
              try_finish_round t pv.pv_round;
              (match t.pending_decide with
               | Some b when Hashtbl.mem t.proofs b -> emit_decide t
               | _ -> ())
            end
          end
      end
      else if tag = tag_mainvote then begin
        match (try Some (dec_mainvote d) with Wire.Decode _ -> None) with
        | None -> ()
        | Some mv ->
          let inv = t.rt.Runtime.inv in
          Invariant.sender_in_range inv src;
          let st = round_state t mv.mv_round in
          (match Hashtbl.find_opt st.mainvotes src with
           | Some prev
             when Invariant.enabled inv && prev.mv_value <> mv.mv_value
                  && mainvote_valid t ~sender:src mv ->
             Invariant.flag inv ~offender:src
               (Printf.sprintf "aba %s: equivocating main-vote in round %d"
                  t.pid mv.mv_round)
           | Some _ | None -> ());
          if not (Hashtbl.mem st.mainvotes src) && mainvote_valid t ~sender:src mv
          then begin
            Invariant.share_index inv (Tsig.share_origin mv.mv_share);
            Invariant.fresh_sender inv st.mainvotes src "main-vote tally";
            Hashtbl.add st.mainvotes src mv;
            if not t.halted then begin
              try_finish_round t mv.mv_round;
              try_advance t mv.mv_round;
              (match t.pending_decide with
               | Some b when Hashtbl.mem t.proofs b -> emit_decide t
               | _ -> ())
            end
          end
      end
      else if tag = tag_coinshare then begin
        match
          (try
             let r = Wire.Dec.int d in
             let share = dec_coin_share d in
             Some (r, share)
           with Wire.Decode _ -> None)
        with
        | None -> ()
        | Some (r, share) ->
          if r >= 1 && share.Crypto.Threshold_coin.origin = src + 1 then begin
            let st = round_state t r in
            if not (Hashtbl.mem st.coin_shares src) && st.coin_value = None then begin
              let charge = t.rt.Runtime.charge in
              if Verify.coin_share t.rt ~group:t.pid ~name:(coin_name t r) share
              then begin
                let inv = t.rt.Runtime.inv in
                Invariant.share_index inv share.Crypto.Threshold_coin.origin;
                Invariant.fresh_sender inv st.coin_shares src "coin-share tally";
                Hashtbl.add st.coin_shares src share;
                if Hashtbl.length st.coin_shares >= coin_k t then begin
                  Charge.coin_assemble charge ~k:(coin_k t);
                  let shares = Det.values st.coin_shares ~compare:Det.by_int in
                  let coin =
                    Crypto.Threshold_coin.assemble_bit
                      t.rt.Runtime.keys.Dealer.coin_pub ~name:(coin_name t r) shares
                  in
                  st.coin_value <- Some coin;
                  if st.released_coin then
                    trace_coin t r Trace.Event.Span_end
                      [ ("value", Trace.Event.Bool coin) ];
                  if not t.halted then try_advance t r
                end
              end
            end
          end
      end
  end

(* --- public interface --- *)

let create ?bias ?validator (rt : Runtime.t) ~(pid : string)
    ~(on_decide : bool -> string option -> unit) : t =
  let t = {
    rt; pid; bias; validator; on_decide;
    rounds = Hashtbl.create 8;
    proofs = Hashtbl.create 2;
    proposal = None;
    decided = None;
    decide_emitted = false;
    pending_decide = None;
    halted = false;
    aborted = false;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  t

(* Propose a value (with validation data under external validity); each
   party proposes exactly once. *)
let propose ?(proof = "") (t : t) (value : bool) : unit =
  if t.proposal <> None then invalid_arg "Binary_agreement.propose: already proposed";
  (match t.validator with
   | Some valid when not (valid value proof) ->
     invalid_arg "Binary_agreement.propose: proposal fails validation"
   | _ -> ());
  t.proposal <- Some (value, proof);
  (match t.validator with
   | Some _ -> Hashtbl.replace t.proofs value proof
   | None -> ());
  send_prevote t 1 value J_initial;
  try_send_mainvote t 1;
  try_finish_round t 1

let decided (t : t) : bool option = Option.map fst t.decided

let abort (t : t) : unit =
  t.aborted <- true;
  Runtime.unregister t.rt ~pid:t.pid
