(* Reusable fault-injection scenarios over the network adversary hook.

   The asynchronous model gives the adversary full control of message
   scheduling; these helpers package the standard attacks so tests and
   experiments can say what they mean:

     Faults.partition cluster ~groups:[[0;1];[2;3]] ~heal_at:5.0

   Only one intercept can be active at a time (they compose by replacing,
   matching Sim.Net's single-hook design). *)

type spec = src:int -> dst:int -> string -> Sim.Net.action

let install (c : Cluster.t) (spec : spec) : unit = Cluster.set_intercept c spec

(* Delay all traffic into [party] by [delay] seconds (an eclipsed node). *)
let eclipse (party : int) ~(delay : float) : spec =
 fun ~src:_ ~dst _ -> if dst = party then Sim.Net.Delay delay else Sim.Net.Deliver

(* Drop every [nth] message globally (a flaky scheduler). *)
let drop_every (nth : int) : spec =
  let counter = ref 0 in
  fun ~src:_ ~dst:_ _ ->
    incr counter;
    if !counter mod nth = 0 then Sim.Net.Drop else Sim.Net.Deliver

(* Duplicate every [nth] message globally: both copies carry valid MACs, so
   deduplication is the protocols' job. *)
let duplicate_every (nth : int) : spec =
  let counter = ref 0 in
  fun ~src:_ ~dst:_ _ ->
    incr counter;
    if !counter mod nth = 0 then Sim.Net.Duplicate else Sim.Net.Deliver

(* Replay every [nth] message after [delay] extra seconds; the copy bypasses
   the FIFO clamp, modelling an adversary re-injecting recorded frames. *)
let replay_every (nth : int) ~(delay : float) : spec =
  let counter = ref 0 in
  fun ~src:_ ~dst:_ _ ->
    incr counter;
    if !counter mod nth = 0 then Sim.Net.Replay delay else Sim.Net.Deliver

(* Split the group into components: traffic inside a component flows,
   traffic across components is held back until [heal_at] (virtual time),
   after which everything is delivered.  With n <= 3t parties on each side
   no component can decide alone, so protocols stall and must resume after
   healing - the classic partition-tolerance check. *)
let partition (c : Cluster.t) ~(groups : int list list) ~(heal_at : float) : spec =
  let component = Hashtbl.create 8 in
  List.iteri
    (fun idx members -> List.iter (fun m -> Hashtbl.replace component m idx) members)
    groups;
  fun ~src ~dst _ ->
    let now = Cluster.now c in
    if now >= heal_at then Sim.Net.Deliver
    else
      match Hashtbl.find_opt component src, Hashtbl.find_opt component dst with
      | Some a, Some b when a <> b ->
        (* Hold the message until just after healing; links stay reliable,
           so nothing is lost - only delayed, as the asynchronous model
           allows. *)
        Sim.Net.Delay (heal_at -. now +. 0.001)
      | _ -> Sim.Net.Deliver

(* --- Byzantine party harnesses ---

   These run a *corrupted* party: instead of an honest protocol instance it
   emits hand-crafted frames under its genuine keys.  The wire layouts are
   deliberately duplicated from the protocol modules (a real attacker does
   not link against our implementation); the formats are part of each
   protocol's external interface. *)

(* Send a broadcast SEND frame (tag 0) for instance [pid] from [party]:
   payload [a] to the parties in [to_a], payload [b] to everyone else.
   Reliable and consistent broadcast share this opening frame layout, so the
   same equivocation works against both. *)
let equivocate_send (c : Cluster.t) ~(party : int) ~(pid : string)
    ~(to_a : int list) ~(a : string) ~(b : string) : unit =
  let rt = Cluster.runtime c party in
  let frame payload =
    Wire.encode (fun buf ->
      Wire.Enc.u8 buf 0;                 (* tag_send *)
      Wire.Enc.bytes buf payload)
  in
  Cluster.inject c party (fun () ->
    for dst = 0 to Cluster.n c - 1 do
      if dst <> party then
        Runtime.send rt ~dst ~pid (frame (if List.mem dst to_a then a else b))
    done)

(* The statement consistent broadcast binds into its threshold signature;
   must match Consistent_broadcast.statement. *)
let cbc_statement ~(pid : string) (payload : string) : string =
  "cbc-ready|" ^ pid ^ "|" ^ payload

(* A full equivocating consistent-broadcast sender: split SEND payloads as
   in {!equivocate_send}, then collect echo shares for [a] (contributing our
   own share) and broadcast the assembled closing message to everyone —
   including the parties that were shown [b], who deliver [a] anyway
   (consistency) and can flag the sender. *)
let equivocating_cbc_sender (c : Cluster.t) ~(party : int) ~(pid : string)
    ~(to_a : int list) ~(a : string) ~(b : string) : unit =
  let rt = Cluster.runtime c party in
  let cfg = rt.Runtime.cfg in
  let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
  let stmt = cbc_statement ~pid a in
  let shares = ref [] in
  let origins = Hashtbl.create 8 in
  let final_sent = ref false in
  Runtime.register rt ~pid (fun ~src body ->
    match Wire.decode_prefix body (fun d -> (Wire.Dec.u8 d, d)) with
    | Some (1, d) when not !final_sent ->    (* tag_echo *)
      (match (try Some (Tsig.dec_share d) with Wire.Decode _ -> None) with
       | Some share
         when Tsig.share_origin share = src + 1
              && not (Hashtbl.mem origins (src + 1))
              && Tsig.verify_share pub ~ctx:pid stmt share ->
         Hashtbl.replace origins (src + 1) ();
         shares := share :: !shares;
         if Hashtbl.length origins >= Config.echo_quorum cfg then begin
           final_sent := true;
           let signature = Tsig.assemble pub ~ctx:pid stmt !shares in
           Runtime.broadcast rt ~pid
             (Wire.encode (fun buf ->
                Wire.Enc.u8 buf 2;          (* tag_final *)
                Wire.Enc.bytes buf a;
                Wire.Enc.bytes buf signature))
         end
       | Some _ | None -> ())
    | Some _ | None -> ());
  (* Our own echo share for [a] counts toward the quorum. *)
  let own =
    Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.bc_tsig ~ctx:pid stmt
  in
  Hashtbl.replace origins (party + 1) ();
  shares := own :: !shares;
  equivocate_send c ~party ~pid ~to_a ~a ~b

(* A Byzantine echo responder against consistent broadcast: for each
   instance in [pids], answer the sender's SEND (tag 0) with an echo (tag 1)
   carrying a signature share released for a *corrupted* statement.  The
   share parses, carries our genuine origin, and its proof is internally
   consistent — it is just a proof about the wrong message, so every
   verification path (single, batched, cached) must reject it.  Against an
   amortizing sender this lands one bad share in the echo batch, forcing
   {!Crypto.Batch}'s bisection fall-back to isolate it; the sender flags us
   and still closes from the honest [echo_quorum]. *)
let bad_share_cbc_responder (c : Cluster.t) ~(party : int)
    ~(pids : string list) : unit =
  let rt = Cluster.runtime c party in
  List.iter
    (fun pid ->
      Runtime.register rt ~pid (fun ~src body ->
        match
          Wire.decode_prefix body (fun d ->
            let tag = Wire.Dec.u8 d in
            let payload = if tag = 0 then Wire.Dec.bytes d else "" in
            (tag, payload))
        with
        | Some (0, payload) ->               (* tag_send *)
          let bogus = cbc_statement ~pid (payload ^ "|corrupted") in
          let share =
            Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.bc_tsig
              ~ctx:pid bogus
          in
          Runtime.send rt ~dst:src ~pid
            (Wire.encode (fun buf ->
               Wire.Enc.u8 buf 1;            (* tag_echo *)
               Tsig.enc_share buf share))
        | Some _ | None -> ()))
    pids

(* An equivocating binary-agreement party: validly signed round-1 pre-votes
   for [true] to the parties in [to_true] and for [false] to everyone else.
   No single honest party sees both directly; the conflict surfaces through
   abstain justifications. *)
let equivocating_aba (c : Cluster.t) ~(party : int) ~(pid : string)
    ~(to_true : int list) : unit =
  let rt = Cluster.runtime c party in
  let forged (value : bool) : string =
    let stmt = Printf.sprintf "aba-pre|%s|%d|%b" pid 1 value in
    let share =
      Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.ag_tsig
        ~ctx:pid stmt
    in
    Wire.encode (fun buf ->
      Wire.Enc.u8 buf 0;                     (* tag_prevote *)
      Wire.Enc.int buf 1;                    (* round *)
      Wire.Enc.bool buf value;
      Tsig.enc_share buf share;
      Wire.Enc.u8 buf 0;                     (* J_initial *)
      Wire.Enc.option buf Wire.Enc.bytes None)
  in
  Cluster.inject c party (fun () ->
    for dst = 0 to Cluster.n c - 1 do
      if dst <> party then
        Runtime.send rt ~dst ~pid (forged (List.mem dst to_true))
    done)

(* A binary-agreement party that forges decision certificates instead of
   voting.  At the start it sends every peer a DECIDED frame for round 1
   and bit [true] (peers in [to_true]) or [false] (the rest), signed by a
   multi-signature shaped string whose every part is its own genuine
   signature under a different origin.  Then it collects the honest
   main-vote shares it is sent; the first time a quorum of them agree on a
   bit b in some round r, it assembles the genuine certificate and sends
   every peer that signature relabelled as bit (not b) in round r, and as
   bit b in round r+1. *)
let forging_aba (c : Cluster.t) ~(party : int) ~(pid : string)
    ~(to_true : int list) : unit =
  let rt = Cluster.runtime c party in
  let secret = rt.Runtime.keys.Dealer.ag_tsig in
  let pub = Tsig.public_of_secret secret in
  let main_stmt r b = Printf.sprintf "aba-main|%s|%d|%b" pid r b in
  let decided ~round ~value ~signature =
    Wire.encode (fun buf ->
      Wire.Enc.u8 buf 3;                     (* tag_decided *)
      Wire.Enc.int buf round;
      Wire.Enc.bool buf value;
      Wire.Enc.bytes buf signature;
      Wire.Enc.option buf Wire.Enc.bytes None)
  in
  let to_peers body =
    for dst = 0 to Cluster.n c - 1 do
      if dst <> party then Runtime.send rt ~dst ~pid (body dst)
    done
  in
  let forged (value : bool) : string =
    let own =
      match Tsig.release ~drbg:rt.Runtime.drbg secret ~ctx:pid (main_stmt 1 value) with
      | Tsig.Multi_share s -> s.Crypto.Multi_sig.signature
      | Tsig.Shoup_share s -> Bignum.Nat.to_bytes_be s.Crypto.Threshold_sig.x_i
    in
    let k = Tsig.k pub in
    String.concat ""
      (Printf.sprintf "%04d" k
       :: List.init k (fun i ->
            Printf.sprintf "%04d%08d%s" (((party + i) mod Cluster.n c) + 1)
              (String.length own) own))
  in
  Cluster.inject c party (fun () ->
    to_peers (fun dst ->
      let value = List.mem dst to_true in
      decided ~round:1 ~value ~signature:(forged value)));
  (* Main-vote frames: tag 1, round, value (0 false, 1 true, 2 abstain),
     then the sender's share on that vote. *)
  let shares : (int * bool, (int * Tsig.share) list) Hashtbl.t = Hashtbl.create 8 in
  let relabelled = ref false in
  Runtime.register rt ~pid (fun ~src body ->
    match
      Wire.decode_prefix body (fun d ->
        let tag = Wire.Dec.u8 d in
        let round = Wire.Dec.int d in
        let value = Wire.Dec.u8 d in
        (tag, round, value, Tsig.dec_share d))
    with
    | Some (1, round, (0 | 1 as v), share) when not !relabelled ->
      let b = v = 1 in
      let held = Option.value (Hashtbl.find_opt shares (round, b)) ~default:[] in
      if not (List.mem_assoc src held) then begin
        let held = held @ [ (src, share) ] in
        Hashtbl.replace shares (round, b) held;
        if List.length held >= Tsig.k pub then begin
          relabelled := true;
          let signature =
            Tsig.assemble pub ~ctx:pid (main_stmt round b) (List.map snd held)
          in
          to_peers (fun _ -> decided ~round ~value:(not b) ~signature);
          to_peers (fun _ -> decided ~round:(round + 1) ~value:b ~signature)
        end
      end
    | Some _ | None -> ())
