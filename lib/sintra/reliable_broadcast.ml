(* Reliable broadcast: the Bracha-Toueg echo/ready protocol (Section 2.2).

   1. the sender sends the payload to all parties;
   2. every party echoes it to everyone;
   3. on ceil((n+t+1)/2) matching ECHOs, or t+1 matching READYs, a party
      sends READY to everyone (once);
   4. on 2t+1 matching READYs it delivers.

   Agreement holds even against a corrupted sender that equivocates (counts
   are kept per payload digest); no public-key cryptography is used — only
   the authenticated links. *)

type t = {
  rt : Runtime.t;
  pid : string;
  sender : int;
  on_deliver : string -> unit;
  (* per-digest tallies; a Byzantine sender may push several payloads *)
  echoes : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  readies : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  payloads : (string, string) Hashtbl.t;       (* digest -> payload *)
  (* first digest echoed / readied by each sender, for equivocation checks *)
  echo_by_src : (int, string) Hashtbl.t;
  ready_by_src : (int, string) Hashtbl.t;
  mutable echo_sent : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  mutable aborted : bool;
}

let tag_send = 0
let tag_echo = 1
let tag_ready = 2

let encode ~tag (payload : string) : string =
  Wire.encode (fun b ->
    Wire.Enc.u8 b tag;
    Wire.Enc.bytes b payload)

let digest (t : t) (payload : string) : string =
  Charge.hash t.rt.Runtime.charge ~bytes:(String.length payload);
  Hashes.Sha256.digest_list [ "rbc|"; t.pid; "|"; payload ]

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let tally tbl key src =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.add tbl key s;
      s
  in
  Hashtbl.replace set src ();
  Hashtbl.length set

let rec handle (t : t) ~src body =
  if not t.aborted then
    match Wire.decode body (fun d ->
      let tag = Wire.Dec.u8 d in
      let payload = Wire.Dec.bytes d in
      (tag, payload))
    with
    | None -> ()
    | Some (tag, payload) ->
      let cfg = t.rt.Runtime.cfg in
      let inv = t.rt.Runtime.inv in
      Invariant.sender_in_range inv src;
      Runtime.handling t.rt ~pid:t.pid ~cat:"bcast"
        (if tag = tag_send then "send"
         else if tag = tag_echo then "echo"
         else if tag = tag_ready then "ready"
         else "other");
      if tag = tag_send && src = t.sender && not t.echo_sent then begin
        t.echo_sent <- true;
        Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"bcast" "echo";
        Runtime.broadcast t.rt ~pid:t.pid (encode ~tag:tag_echo payload)
      end
      else if tag = tag_echo then begin
        let dg = digest t payload in
        Hashtbl.replace t.payloads dg payload;
        (* An honest party echoes one payload per instance; a second,
           different digest from the same source is Byzantine evidence. *)
        (match Hashtbl.find_opt t.echo_by_src src with
         | Some dg' when dg' <> dg ->
           Invariant.flag inv ~offender:src
             (Printf.sprintf "rbc %s: equivocating ECHO" t.pid)
         | Some _ -> ()
         | None -> Hashtbl.add t.echo_by_src src dg);
        let count = tally t.echoes dg src in
        Invariant.require (count <= cfg.Config.n)
          "echo tally exceeds group size";
        if count >= Config.echo_quorum cfg then send_ready t dg
      end
      else if tag = tag_ready then begin
        let dg = digest t payload in
        Hashtbl.replace t.payloads dg payload;
        (match Hashtbl.find_opt t.ready_by_src src with
         | Some dg' when dg' <> dg ->
           Invariant.flag inv ~offender:src
             (Printf.sprintf "rbc %s: equivocating READY" t.pid)
         | Some _ -> ()
         | None -> Hashtbl.add t.ready_by_src src dg);
        let count = tally t.readies dg src in
        Invariant.require (count <= cfg.Config.n)
          "ready tally exceeds group size";
        if count >= Config.one_honest cfg then send_ready t dg;
        if count >= Config.ready_quorum cfg && not t.delivered then begin
          t.delivered <- true;
          if t.ready_sent then
            Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"bcast" "ready";
          Trace.Ctx.instant (trace t) ~pid:t.pid ~cat:"bcast" "deliver";
          t.on_deliver payload
        end
      end

and send_ready (t : t) (dg : string) =
  if not t.ready_sent then begin
    t.ready_sent <- true;
    if t.echo_sent then
      Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"bcast" "echo";
    Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"bcast" "ready";
    match Hashtbl.find_opt t.payloads dg with
    | Some payload -> Runtime.broadcast t.rt ~pid:t.pid (encode ~tag:tag_ready payload)
    | None -> ()
  end

let create (rt : Runtime.t) ~(pid : string) ~(sender : int)
    ~(on_deliver : string -> unit) : t =
  let t = {
    rt; pid; sender; on_deliver;
    echoes = Hashtbl.create 8;
    readies = Hashtbl.create 8;
    payloads = Hashtbl.create 8;
    echo_by_src = Hashtbl.create 8;
    ready_by_src = Hashtbl.create 8;
    echo_sent = false;
    ready_sent = false;
    delivered = false;
    aborted = false;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  t

(* Start the broadcast; only the designated sender may call this, once. *)
let send (t : t) (payload : string) : unit =
  if t.rt.Runtime.me <> t.sender then invalid_arg "Reliable_broadcast.send: not the sender";
  Runtime.broadcast t.rt ~pid:t.pid (encode ~tag:tag_send payload)

let abort (t : t) : unit =
  t.aborted <- true;
  Runtime.unregister t.rt ~pid:t.pid
