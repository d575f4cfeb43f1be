(* Consistent broadcast: Reiter's "echo broadcast" with threshold signatures
   (Section 2.2).

   The sender sends the payload to all parties; each replies to the sender
   with a threshold-signature share binding the payload to this protocol
   instance; from ceil((n+t+1)/2) valid shares the sender assembles the
   threshold signature and sends it with the payload to everyone, and a
   party delivers on receiving a valid (payload, signature) pair.

   Only consistency is guaranteed — parties that deliver, deliver the same
   payload, but some parties may deliver nothing.  Communication is linear
   in n (vs. quadratic for reliable broadcast), paid for with public-key
   operations: exactly the trade-off Table 1 measures.

   This implementation is *verifiable* (the paper's
   VerifiableConsistentBroadcast, Section 3.2): the (payload, signature)
   pair is the "closing message" that lets any third party deliver and
   terminate the instance without further communication; the multi-valued
   agreement protocol relies on this. *)

type t = {
  rt : Runtime.t;
  pid : string;
  sender : int;
  on_deliver : string -> unit;
  mutable echoed : bool;                  (* this party already sent a share *)
  mutable echoed_payload : string option; (* what we signed, for equivocation checks *)
  mutable shares : Tsig.share list;       (* sender only *)
  share_origins : (int, unit) Hashtbl.t;
  (* Sender only: echo shares awaiting verification.
     Shares are parked here unverified until enough distinct origins are on
     hand to close the quorum, then checked as ONE batch — the whole point
     of amortized verification.  Invalid shares are flagged and dropped;
     collection then continues. *)
  pending : (int, Tsig.share) Hashtbl.t;
  mutable sent_payload : string option;   (* sender only *)
  mutable final_sent : bool;
  mutable delivered : bool;
  mutable closing : (string * string) option;  (* payload, signature *)
  mutable aborted : bool;
}

let tag_send = 0
let tag_echo = 1
let tag_final = 2

(* The string actually signed: binds instance and payload. *)
let statement ~(pid : string) (payload : string) : string =
  "cbc-ready|" ^ pid ^ "|" ^ payload

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let trace_deliver (t : t) : unit =
  if t.echoed && t.rt.Runtime.me <> t.sender then
    Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"bcast" "echo";
  Trace.Ctx.instant (trace t) ~pid:t.pid ~cat:"bcast" "deliver"

let handle (t : t) ~src body =
  if not t.aborted then begin
    let cfg = t.rt.Runtime.cfg in
    let charge = t.rt.Runtime.charge in
    let inv = t.rt.Runtime.inv in
    Invariant.sender_in_range inv src;
    match Wire.decode_prefix body (fun d -> (Wire.Dec.u8 d, d)) with
    | None -> ()
    | Some (tag, d) ->
      Runtime.handling t.rt ~pid:t.pid ~cat:"bcast"
        (if tag = tag_send then "send"
         else if tag = tag_echo then "echo"
         else if tag = tag_final then "final"
         else "other");
      if tag = tag_send && src = t.sender then begin
        match (try Some (Wire.Dec.bytes d) with Wire.Decode _ -> None) with
        | None -> ()
        | Some payload when t.echoed ->
          (* A second SEND carrying a different payload is direct evidence
             of an equivocating sender (we sign only the first). *)
          (match t.echoed_payload with
           | Some p when p <> payload ->
             Invariant.flag inv ~offender:t.sender
               (Printf.sprintf "cbc %s: equivocating SEND" t.pid)
           | Some _ | None -> ())
        | Some payload ->
          t.echoed <- true;
          t.echoed_payload <- Some payload;
          if t.rt.Runtime.me <> t.sender then
            Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"bcast" "echo";
          Charge.tsig_release charge;
          let share =
            Runtime.release_share t.rt t.rt.Runtime.keys.Dealer.bc_tsig
              ~ctx:t.pid (statement ~pid:t.pid payload)
          in
          let body =
            Wire.encode (fun b ->
              Wire.Enc.u8 b tag_echo;
              Tsig.enc_share b share)
          in
          Runtime.send t.rt ~dst:t.sender ~pid:t.pid body
      end
      else if tag = tag_echo && t.rt.Runtime.me = t.sender && not t.final_sent then begin
        match t.sent_payload with
        | None -> ()  (* we have not sent yet; shares cannot be valid *)
        | Some payload ->
          (match (try Some (Tsig.dec_share d) with Wire.Decode _ -> None) with
           | None -> ()
           | Some share ->
             let stmt = statement ~pid:t.pid payload in
             let pub = Tsig.public_of_secret t.rt.Runtime.keys.Dealer.bc_tsig in
             let accept sh =
               let o = Tsig.share_origin sh in
               Invariant.share_index inv o;
               Invariant.require (not (Hashtbl.mem t.share_origins o))
                 "duplicate share origin in echo tally";
               Hashtbl.replace t.share_origins o ();
               t.shares <- sh :: t.shares
             in
             let try_final () =
               if Hashtbl.length t.share_origins >= Config.echo_quorum cfg
               then begin
                 t.final_sent <- true;
                 Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"bcast" "send";
                 Charge.tsig_assemble charge ~k:(Config.echo_quorum cfg);
                 let signature = Tsig.assemble pub ~ctx:t.pid stmt t.shares in
                 let body =
                   Wire.encode (fun b ->
                     Wire.Enc.u8 b tag_final;
                     Wire.Enc.bytes b payload;
                     Wire.Enc.bytes b signature)
                 in
                 Runtime.broadcast t.rt ~pid:t.pid body
               end
             in
             let origin = Tsig.share_origin share in
             if origin = src + 1 && not (Hashtbl.mem t.share_origins origin)
             then begin
               (* Park the share unverified; once enough distinct origins
                  are on hand to close the quorum, check them as one batch.
                  Invalid shares are identified exactly (bisection in
                  Crypto.Batch), flagged, and dropped — collection then
                  resumes until the quorum really closes. *)
               Hashtbl.replace t.pending origin share;
               if Hashtbl.length t.share_origins + Hashtbl.length t.pending
                  >= Config.echo_quorum cfg
               then begin
                 let batch = Det.bindings t.pending ~compare:Det.by_int in
                 Hashtbl.reset t.pending;
                 let valid =
                   Verify.tsig_shares t.rt ~pub ~ctx:t.pid stmt
                     (List.map snd batch)
                 in
                 List.iteri
                   (fun i (o, sh) ->
                     if valid.(i) then accept sh
                     else
                       Invariant.flag inv ~offender:(o - 1)
                         (Printf.sprintf "cbc %s: invalid echo share" t.pid))
                   batch;
                 try_final ()
               end
             end)
      end
      else if tag = tag_final && not t.delivered then begin
        match
          (try
             let payload = Wire.Dec.bytes d in
             let signature = Wire.Dec.bytes d in
             Some (payload, signature)
           with Wire.Decode _ -> None)
        with
        | None -> ()
        | Some (payload, signature) ->
          let pub = Tsig.public_of_secret t.rt.Runtime.keys.Dealer.bc_tsig in
          if
            Verify.tsig_signature t.rt ~pub ~ctx:t.pid ~signature
              (statement ~pid:t.pid payload)
          then begin
            (* A valid closing for a payload other than the one we signed
               means the sender showed different payloads to different
               parties.  Consistency still holds (only one payload can ever
               gather a quorum of shares), so we deliver — but we record the
               equivocator. *)
            (match t.echoed_payload with
             | Some p when p <> payload ->
               Invariant.flag inv ~offender:t.sender
                 (Printf.sprintf "cbc %s: FINAL differs from echoed payload" t.pid)
             | Some _ | None -> ());
            t.delivered <- true;
            t.closing <- Some (payload, signature);
            trace_deliver t;
            t.on_deliver payload
          end
      end
  end

let create (rt : Runtime.t) ~(pid : string) ~(sender : int)
    ~(on_deliver : string -> unit) : t =
  let t = {
    rt; pid; sender; on_deliver;
    echoed = false;
    echoed_payload = None;
    shares = [];
    share_origins = Hashtbl.create 8;
    pending = Hashtbl.create 8;
    sent_payload = None;
    final_sent = false;
    delivered = false;
    closing = None;
    aborted = false;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  t

let send (t : t) (payload : string) : unit =
  if t.rt.Runtime.me <> t.sender then invalid_arg "Consistent_broadcast.send: not the sender";
  if t.sent_payload <> None then invalid_arg "Consistent_broadcast.send: already sent";
  t.sent_payload <- Some payload;
  Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"bcast" "send";
  let body =
    Wire.encode (fun b ->
      Wire.Enc.u8 b tag_send;
      Wire.Enc.bytes b payload)
  in
  Runtime.broadcast t.rt ~pid:t.pid body

(* --- the verifiable interface (closing messages) --- *)

(* Encode the closing message of a terminated instance. *)
let get_closing (t : t) : string option =
  match t.closing with
  | None -> None
  | Some (payload, signature) ->
    Some (Wire.encode (fun b ->
      Wire.Enc.bytes b payload;
      Wire.Enc.bytes b signature))

(* (payload, signature), without verification. *)
let parse_closing (v : string) : (string * string) option =
  Wire.decode v (fun d ->
    let payload = Wire.Dec.bytes d in
    let signature = Wire.Dec.bytes d in
    (payload, signature))

let payload_of_closing (v : string) : string option =
  Option.map fst (parse_closing v)

(* Validity of a closing message for instance [pid], checkable by anyone who
   knows the group's public keys.  Routed through the verified-share cache:
   multi-valued agreement re-checks the same closings inside many
   justification vectors, and catch-up re-validates DECIDED batches — all
   repeats collapse to a cache probe. *)
let closing_valid (rt : Runtime.t) ~(pid : string) (v : string) : bool =
  match parse_closing v with
  | None -> false
  | Some (payload, signature) ->
    let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
    Verify.tsig_signature rt ~pub ~ctx:pid ~signature (statement ~pid payload)

(* Deliver from a closing message, terminating the instance locally without
   waiting for network messages. *)
let deliver_closing (t : t) (v : string) : bool =
  if t.delivered then true
  else
    match parse_closing v with
    | None -> false
    | Some (payload, signature) ->
      if closing_valid t.rt ~pid:t.pid v then begin
        t.delivered <- true;
        t.closing <- Some (payload, signature);
        trace_deliver t;
        t.on_deliver payload;
        true
      end
      else false

let abort (t : t) : unit =
  t.aborted <- true;
  Runtime.unregister t.rt ~pid:t.pid
