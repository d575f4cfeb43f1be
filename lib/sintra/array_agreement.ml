(* Multi-valued Byzantine agreement with external validity ("array
   agreement"): the protocol of Cachin, Kursawe, Petzold and Shoup
   (CRYPTO 2001), Section 2.4 of the paper.

   1. Every party broadcasts its proposal with *verifiable consistent
      broadcast*; the threshold signature in the closing message later
      serves as transferable proof that the candidate proposed.
   2. After n-t validated proposals, the parties walk a common permutation
      of the candidates.  For each candidate P_a:
      (a) send a yes-vote carrying P_a's closing message if we hold the
          proposal, a no-vote otherwise;
      (b) wait for n-t votes (yes-votes also disseminate the proposal);
      (c) run *biased validated binary agreement*, proposing 1 iff we hold
          a valid proposal from P_a, with the closing message as proof;
      (d) on decision 1, deliver P_a's proposal — recovered from the
          agreement's validation data if we never received it directly —
          otherwise move to the next candidate.

   The permutation is either fixed or derived pseudo-randomly from the
   protocol identifier (the paper's "random from local information", which
   balances load; both variants are in SINTRA). *)

type candidate_state = {
  votes : (int, bool) Hashtbl.t;        (* voter -> yes/no *)
  mutable vba : Validated_agreement.t option;
}

type t = {
  rt : Runtime.t;
  pid : string;
  validator : string -> bool;
  on_decide : string -> unit;
  mutable vcbc : Consistent_broadcast.t array;  (* per-sender proposal bcast *)
  proposals : string option array;              (* validated payloads *)
  closings : string option array;               (* VCBC closing messages *)
  perm : int array;
  candidates : candidate_state array;           (* indexed by candidate party *)
  mutable proposed : bool;
  mutable started_loop : bool;
  mutable loop_index : int;                     (* position in perm *)
  mutable decided : bool;
  mutable aborted : bool;
}

let vcbc_pid (pid : string) (i : int) : string = Printf.sprintf "%s/p.%d" pid i
let vba_pid (pid : string) (a : int) : string = Printf.sprintf "%s/ba.%d" pid a

let tag_vote = 0

let permutation (cfg : Config.t) (pid : string) : int array =
  let n = cfg.Config.n in
  let perm = Array.init n (fun i -> i) in
  (match cfg.Config.perm_mode with
   | Config.Fixed -> ()
   | Config.Random_local ->
     (* Fisher-Yates driven by a hash of the pid: every party computes the
        same order from locally available information. *)
     let drbg = Hashes.Drbg.create ~seed:("mvba-perm|" ^ pid) in
     for i = n - 1 downto 1 do
       let j = Hashes.Drbg.int drbg (i + 1) in
       let tmp = perm.(i) in
       perm.(i) <- perm.(j);
       perm.(j) <- tmp
     done);
  perm

(* Number of stored proposals that satisfy the validator. *)
let valid_proposal_count (t : t) : int =
  Array.fold_left (fun acc p -> if p = None then acc else acc + 1) 0 t.proposals

let store_proposal (t : t) (a : int) ~(payload : string) ~(closing : string) : unit =
  if t.proposals.(a) = None && t.validator payload then begin
    t.proposals.(a) <- Some payload;
    t.closings.(a) <- Some closing
  end

let candidate_at (t : t) (idx : int) : int = t.perm.(idx)

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let rec maybe_start_loop (t : t) : unit =
  if not t.started_loop && not t.decided
     && valid_proposal_count t >= Config.vote_quorum t.rt.Runtime.cfg
  then begin
    t.started_loop <- true;
    (* The candidate-selection loop: from a quorum of proposals to the
       decided value (one biased agreement per rejected candidate). *)
    Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"mvba" "select";
    start_candidate t
  end

(* Step 2(a): vote on the current candidate. *)
and start_candidate (t : t) : unit =
  if not t.decided then begin
    let a = candidate_at t t.loop_index in
    let body =
      Wire.encode (fun b ->
        Wire.Enc.u8 b tag_vote;
        Wire.Enc.int b a;
        match t.closings.(a) with
        | Some closing -> Wire.Enc.bool b true; Wire.Enc.bytes b closing
        | None -> Wire.Enc.bool b false)
    in
    Runtime.broadcast t.rt ~pid:t.pid body;
    check_candidate_progress t a
  end

(* Step 2(b)-(c): once n-t votes are in, start the biased agreement. *)
and check_candidate_progress (t : t) (a : int) : unit =
  if not t.decided && t.started_loop && candidate_at t t.loop_index = a then begin
    let st = t.candidates.(a) in
    if st.vba = None
       && Hashtbl.length st.votes >= Config.vote_quorum t.rt.Runtime.cfg
    then begin
      let validator b proof =
        if not b then true
        else
          match Consistent_broadcast.payload_of_closing proof with
          | None -> false
          | Some payload ->
            Consistent_broadcast.closing_valid t.rt ~pid:(vcbc_pid t.pid a) proof
            && t.validator payload
      in
      let vba =
        Validated_agreement.create ~bias:true t.rt ~pid:(vba_pid t.pid a) ~validator
          ~on_decide:(fun value ~proof -> candidate_decided t a value ~proof)
      in
      st.vba <- Some vba;
      (match t.closings.(a) with
       | Some closing -> Validated_agreement.propose vba true ~proof:closing
       | None -> Validated_agreement.propose vba false ~proof:"")
    end
  end

(* Step 2(d) / step 3. *)
and candidate_decided (t : t) (a : int) (value : bool) ~(proof : string) : unit =
  if not t.decided then begin
    if value then begin
      (* Deliver P_a's proposal, falling back to the agreement's validation
         data if the consistent broadcast never reached us. *)
      (match t.proposals.(a) with
       | Some payload -> decide t payload
       | None ->
         (match Consistent_broadcast.payload_of_closing proof with
          | Some payload -> decide t payload
          | None -> ()))
    end
    else begin
      t.loop_index <- t.loop_index + 1;
      if t.loop_index < Array.length t.perm then start_candidate t
      (* All candidates rejected cannot happen: the loop always reaches a
         candidate whose proposal n-t parties hold. *)
    end
  end

and decide (t : t) (payload : string) : unit =
  if not t.decided then begin
    t.decided <- true;
    if t.started_loop then
      Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"mvba" "select";
    if Trace.Ctx.enabled (trace t) then
      Trace.Ctx.instant (trace t) ~pid:t.pid ~cat:"mvba"
        ~args:[ ("candidate", Trace.Event.Int (candidate_at t t.loop_index)) ]
        "decide";
    t.on_decide payload
  end

let handle (t : t) ~src body =
  if not t.aborted && not t.decided then begin
    match
      Wire.decode body (fun d ->
        let tag = Wire.Dec.u8 d in
        let a = Wire.Dec.int d in
        let yes = Wire.Dec.bool d in
        let closing = if yes then Some (Wire.Dec.bytes d) else None in
        (tag, a, yes, closing))
    with
    | None -> ()
    | Some (tag, a, yes, closing) ->
      Runtime.handling t.rt ~pid:t.pid ~cat:"aba"
        (if tag = tag_vote then "vote" else "other");
      if tag = tag_vote && a >= 0 && a < t.rt.Runtime.cfg.Config.n then begin
        let st = t.candidates.(a) in
        if not (Hashtbl.mem st.votes src) then begin
          let accept =
            if not yes then true
            else
              match closing with
              | None -> false
              | Some c ->
                (match Consistent_broadcast.payload_of_closing c with
                 | None -> false
                 | Some payload ->
                   if Consistent_broadcast.closing_valid t.rt ~pid:(vcbc_pid t.pid a) c
                      && t.validator payload
                   then begin
                     store_proposal t a ~payload ~closing:c;
                     true
                   end
                   else false)
          in
          if accept then begin
            Hashtbl.add st.votes src yes;
            maybe_start_loop t;
            check_candidate_progress t a
          end
        end
      end
  end

let create (rt : Runtime.t) ~(pid : string) ~(validator : string -> bool)
    ~(on_decide : string -> unit) : t =
  let n = rt.Runtime.cfg.Config.n in
  let t = {
    rt; pid; validator; on_decide;
    vcbc = [||];
    proposals = Array.make n None;
    closings = Array.make n None;
    perm = permutation rt.Runtime.cfg pid;
    candidates =
      Array.init n (fun _ ->
        { votes = Hashtbl.create 8; vba = None });
    proposed = false;
    started_loop = false;
    loop_index = 0;
    decided = false;
    aborted = false;
  }
  in
  t.vcbc <-
    Array.init n (fun i ->
      Consistent_broadcast.create rt ~pid:(vcbc_pid pid i) ~sender:i
        ~on_deliver:(fun payload ->
          (match Consistent_broadcast.get_closing t.vcbc.(i) with
           | Some closing -> store_proposal t i ~payload ~closing
           | None -> ());
          maybe_start_loop t;
          check_candidate_progress t i));
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  t

(* Propose this party's value; must satisfy the validator. *)
let propose (t : t) (value : string) : unit =
  if t.proposed then invalid_arg "Array_agreement.propose: already proposed";
  if not (t.validator value) then
    invalid_arg "Array_agreement.propose: proposal fails validation";
  t.proposed <- true;
  Consistent_broadcast.send t.vcbc.(t.rt.Runtime.me) value

let abort (t : t) : unit =
  t.aborted <- true;
  Array.iter Consistent_broadcast.abort t.vcbc;
  Array.iter
    (fun st -> match st.vba with Some v -> Validated_agreement.abort v | None -> ())
    t.candidates;
  Runtime.unregister t.rt ~pid:t.pid
