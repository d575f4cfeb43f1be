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

   Deciding halts the instance at once, in the deciding round.  The n-t
   main-vote shares a party decides on assemble into the agreement key's
   threshold signature on "main-vote b in round r": a decision certificate
   anyone can check.  A halted party answers each peer it hears from in a
   later round with one DECIDED(r, b, signature, validation data) frame; a
   party that receives a valid certificate decides b, passes the
   certificate on once to every peer (it may never have voted in round r,
   so its votes cannot be what others wait for) and halts too.  Safety:
   the signature shows at least n-2t >= t+1 honest parties main-voted b in
   round r, so no honest party main-voted the other bit there; every
   honest party that completes round r holds a main-vote for b, adopts b
   for round r+1, and b is the only bit anyone can decide later.
   Liveness: until it decides, an honest party sends every vote and coin
   share of every round it reaches, so an undecided party either finishes
   the round its peers decided in or moves past it, and a pre-vote for
   the next round is answered with a certificate.

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
  (* Our own coin share's nonce for this round, drawn (and the release
     charged) at the idle start of the round, so the virtual critical path
     never pays for the share.  The share itself is computed from it only
     if [try_finish_round] reveals it: a round that decides never needs
     the coin.  Volatile: a crash loses it, and the release path draws and
     charges on demand. *)
  mutable coin_nonce : Crypto.Threshold_coin.nonce option;
  mutable sent_prevote : bool;
  mutable sent_mainvote : bool;
  mutable released_coin : bool;
  mutable finished : bool;                    (* processed n-t main-votes *)
}

(* A transferable decision: the agreement key's threshold signature on
   "main-vote [c_value] in round [c_round]". *)
type cert = { c_round : int; c_value : bool; c_sig : string }

type t = {
  rt : Runtime.t;
  pid : string;
  bias : bool option;
  validator : (bool -> string -> bool) option;
  on_decide : bool -> string option -> unit;
  rounds : (int, round_state) Hashtbl.t;
  proofs : (bool, string) Hashtbl.t;          (* external validity data *)
  answered : (int, unit) Hashtbl.t;           (* peers sent our certificate *)
  mutable proposal : (bool * string) option;
  mutable decided : cert option;              (* Some: halted *)
  mutable decide_emitted : bool;              (* false while a proof is due *)
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

let enc_cert (b : Wire.Enc.t) (c : cert) (proof : string option) : unit =
  Wire.Enc.int b c.c_round;
  Wire.Enc.bool b c.c_value;
  Wire.Enc.bytes b c.c_sig;
  Wire.Enc.option b Wire.Enc.bytes proof

let dec_cert (d : Wire.Dec.t) : cert * string option =
  let c_round = Wire.Dec.int d in
  let c_value = Wire.Dec.bool d in
  let c_sig = Wire.Dec.bytes d in
  let proof = Wire.Dec.option d Wire.Dec.bytes in
  ({ c_round; c_value; c_sig }, proof)

let tag_prevote = 0
let tag_mainvote = 1
let tag_coinshare = 2
let tag_decided = 3

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
      coin_nonce = None;
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
      Runtime.release_share t.rt t.rt.Runtime.keys.Dealer.ag_tsig ~ctx:t.pid
        (pre_stmt t r b)
    in
    let proof = Hashtbl.find_opt t.proofs b in
    let pv = { pv_round = r; pv_value = b; pv_share = share; pv_just = just; pv_proof = proof } in
    let body = Wire.encode (fun buf -> Wire.Enc.u8 buf tag_prevote; enc_prevote buf pv) in
    Runtime.broadcast t.rt ~pid:t.pid body;
    (* Coin pre-generation: our round-r coin share depends only on the coin
       name, known now, so its release is charged at the idle start of the
       round rather than on the critical path when the round fails to
       decide.  Only the nonce is drawn now, keeping the DRBG stream where
       the release puts it; [try_finish_round] computes the share if the
       round reveals it.  The bias stands in for the round-1 coin, so there
       is nothing to precompute there.  Broadcasting happens in
       [try_finish_round]: revealing the share early would let the
       adversary see coins ahead of votes. *)
    (match t.bias with
     | Some _ when r = 1 -> ()
     | Some _ | None ->
       if st.coin_nonce = None then begin
         Charge.coin_release charge;
         Trace.Ctx.incr t.rt.Runtime.trace "aba.coin_pregen";
         st.coin_nonce <-
           Some
             (Crypto.Threshold_coin.draw_nonce ~drbg:t.rt.Runtime.drbg
                t.rt.Runtime.keys.Dealer.coin_pub)
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
      Runtime.release_share t.rt t.rt.Runtime.keys.Dealer.ag_tsig ~ctx:t.pid
        (main_stmt t r value)
    in
    let mv = { mv_round = r; mv_value = value; mv_share = share; mv_just = just } in
    let body = Wire.encode (fun buf -> Wire.Enc.u8 buf tag_mainvote; enc_mainvote buf mv) in
    Runtime.broadcast t.rt ~pid:t.pid body
  end

(* Hand the decision to the caller once (under external validity, once
   its validation data is here: a justified pre-vote or a certificate for
   the bit carries it).  Idempotent, so every handler just calls it. *)
let emit_decide (t : t) : unit =
  match t.decided with
  | Some c when not t.decide_emitted ->
    let proof = Hashtbl.find_opt t.proofs c.c_value in
    if t.validator = None || proof <> None then begin
      t.decide_emitted <- true;
      let tr = trace t in
      if Trace.Ctx.enabled tr then
        Trace.Ctx.instant tr ~pid:t.pid ~cat:"aba"
          ~args:[ ("value", Trace.Event.Bool c.c_value) ]
          "decide";
      t.on_decide c.c_value proof
    end
  | Some _ | None -> ()

(* Our certificate to [dst], at most once per peer. *)
let send_cert (t : t) (c : cert) ~(dst : int) : unit =
  if dst <> t.rt.Runtime.me && not (Hashtbl.mem t.answered dst) then begin
    Hashtbl.add t.answered dst ();
    Trace.Ctx.incr t.rt.Runtime.trace "aba.cert_sent";
    let body =
      Wire.encode (fun buf ->
        Wire.Enc.u8 buf tag_decided;
        enc_cert buf c (Hashtbl.find_opt t.proofs c.c_value))
    in
    Runtime.send t.rt ~dst ~pid:t.pid body
  end

(* Whether [src] sent us anything for a round after [r]. *)
let heard_after (t : t) ~(r : int) (src : int) : bool =
  List.exists
    (fun (r', st) ->
      r' > r
      && (Hashtbl.mem st.prevotes src || Hashtbl.mem st.mainvotes src
          || Hashtbl.mem st.coin_shares src))
    (Det.bindings t.rounds ~compare:Det.by_int)

(* Decide and halt.  A peer already heard from in a later round gets the
   certificate now: it will send us nothing more to answer.  With
   [~pass_on] every peer gets it. *)
let decide (t : t) (c : cert) ~(pass_on : bool) : unit =
  t.decided <- Some c;
  for dst = 0 to t.rt.Runtime.cfg.Config.n - 1 do
    if pass_on || heard_after t ~r:c.c_round dst then send_cert t c ~dst
  done;
  emit_decide t

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
       (* The n-t main-vote shares we decide on are the certificate. *)
       if t.decided = None then begin
         Charge.tsig_assemble t.rt.Runtime.charge ~k:(quorum t);
         let c_sig =
           Tsig.assemble (ag_pub t) ~ctx:t.pid (main_stmt t r (MV_bit b))
             (List.map (fun (_, mv) -> mv.mv_share) bit_votes)
         in
         decide t { c_round = r; c_value = b; c_sig } ~pass_on:false
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
            let coin_pub = t.rt.Runtime.keys.Dealer.coin_pub in
            let nonce =
              match st.coin_nonce with
              | Some nonce -> nonce    (* already paid for at round start *)
              | None ->
                Charge.coin_release t.rt.Runtime.charge;
                Crypto.Threshold_coin.draw_nonce ~drbg:t.rt.Runtime.drbg coin_pub
            in
            Trace.Ctx.incr t.rt.Runtime.trace "aba.coin_finished";
            let share =
              Crypto.Threshold_coin.finish coin_pub
                t.rt.Runtime.keys.Dealer.coin_share ~name:(coin_name t r) nonce
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
  if st.finished && t.decided = None
     && not (round_state t (r + 1)).sent_prevote
  then begin
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

(* A DECIDED frame.  Undecided, a valid certificate decides; decided with
   the validation data still due, it may carry that.  A certificate that
   fails its check (wrong round, bit or signature) flags its sender. *)
let on_certificate (t : t) ~(src : int) (c : cert) (proof : string option) : unit =
  let inv = t.rt.Runtime.inv in
  Invariant.sender_in_range inv src;
  match t.decided with
  | Some mine ->
    (match proof with
     | Some p when c.c_value = mine.c_value -> store_proof t c.c_value p
     | Some _ | None -> ())
  | None ->
    if c.c_round >= 1
       && Verify.tsig_signature t.rt ~pub:(ag_pub t) ~ctx:t.pid ~signature:c.c_sig
            (main_stmt t c.c_round (MV_bit c.c_value))
    then begin
      (match proof with Some p -> store_proof t c.c_value p | None -> ());
      Trace.Ctx.incr t.rt.Runtime.trace "aba.cert_decided";
      Hashtbl.replace t.answered src ();       (* it holds the certificate *)
      decide t c ~pass_on:true
    end
    else
      Invariant.flag inv ~offender:src
        (Printf.sprintf "aba %s: invalid decision certificate for round %d"
           t.pid c.c_round)

let handle (t : t) ~src body =
  if not t.aborted then begin
    match Wire.decode_prefix body (fun d -> (Wire.Dec.u8 d, d)) with
    | None -> ()
    | Some (tag, d) ->
      Runtime.handling t.rt ~pid:t.pid ~cat:"aba"
        (if tag = tag_prevote then "prevote"
         else if tag = tag_mainvote then "mainvote"
         else if tag = tag_coinshare then "coinshare"
         else if tag = tag_decided then "decided"
         else "other");
      (* Halted: a vote or coin share for a round after ours is answered
         with the certificate (every such frame starts with its round). *)
      (match t.decided with
       | Some c when tag <> tag_decided ->
         let round d = ignore (Wire.Dec.u8 d); Wire.Dec.int d in
         (match Wire.decode_prefix body round with
          | Some r when r > c.c_round -> send_cert t c ~dst:src
          | Some _ | None -> ())
       | Some _ | None -> ());
      (* Once decided, frames matter only for validation data still due. *)
      if not t.decide_emitted then begin
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
               when prev.pv_value <> pv.pv_value ->
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
                 if t.decided = None then try_advance t (pv.pv_round - 1)
               | J_initial | J_hard _ | J_coin _ -> ());
              if t.decided = None then begin
                try_send_mainvote t pv.pv_round;
                try_finish_round t pv.pv_round
              end;
              emit_decide t
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
               when prev.mv_value <> mv.mv_value && mainvote_valid t ~sender:src mv ->
               Invariant.flag inv ~offender:src
                 (Printf.sprintf "aba %s: equivocating main-vote in round %d"
                    t.pid mv.mv_round)
             | Some _ | None -> ());
            if not (Hashtbl.mem st.mainvotes src) && mainvote_valid t ~sender:src mv
            then begin
              Invariant.share_index inv (Tsig.share_origin mv.mv_share);
              Invariant.fresh_sender inv st.mainvotes src "main-vote tally";
              Hashtbl.add st.mainvotes src mv;
              if t.decided = None then begin
                try_finish_round t mv.mv_round;
                try_advance t mv.mv_round
              end;
              emit_decide t
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
                    if t.decided = None then try_advance t r
                  end
                end
              end
            end
        end
        else if tag = tag_decided then begin
          match (try Some (dec_cert d) with Wire.Decode _ -> None) with
          | None -> ()
          | Some (c, proof) ->
            on_certificate t ~src c proof;
            emit_decide t
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
    answered = Hashtbl.create 4;
    proposal = None;
    decided = None;
    decide_emitted = false;
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
  (* A certificate may have decided the instance before we proposed. *)
  if t.decided = None then begin
    send_prevote t 1 value J_initial;
    try_send_mainvote t 1;
    try_finish_round t 1
  end

let abort (t : t) : unit =
  t.aborted <- true;
  Runtime.unregister t.rt ~pid:t.pid
