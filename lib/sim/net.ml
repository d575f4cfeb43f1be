(* The simulated network: n nodes with authenticated, reliable, FIFO
   point-to-point links over the discrete-event engine.

   Fidelity to the paper's model:
   - links carry opaque byte strings (real serialized protocol messages),
     authenticated by HMAC-SHA1 under a per-pair key from the dealer;
   - each node is a sequential processor: frames and injected calls are
     steps on a plane's inbox, each charging virtual CPU time to the plane's
     meter (calibrated by its `exp_ms') after the steps before it; messages
     sent from within a step depart only when it finishes — this is what
     makes slow hosts lag exactly as in Figures 4 and 5;
   - an adversary hook may drop, delay or replace messages in flight
     (replacement is detected by the MAC unless the adversary controls the
     sender), which models the asynchronous scheduler's power.

   Planes.  Every node runs two instances of one [plane] model: the
   protocol plane, and the storage plane that carries durability traffic
   (checkpoint shares, snapshot transfer) on a dedicated storage core and a
   separate transfer connection.  Each plane has its own CPU meter, busy
   clock, inbox, handler, send counters, FIFO clamp and latency jitter
   stream, so a durable run shares no schedule-bearing resource with the
   protocol plane and its delivery schedule stays byte-identical to a
   non-durable one.  Every frame of either plane arrives through [arrive]
   and is traced alike ("msg", "xmit", "recv").  What differs is kept to
   the protocol plane: sends from its handlers are buffered until the
   computation finishes (storage sends depart at once), only its frames
   count as [net.recv_msgs] and [link/*], and only it is shown to the
   adversary intercept and carried by lossy datagrams.  The transfer
   connection is modeled reliable; Byzantine storage-plane content is
   handled end-to-end (certificate verification), not at the link.

   Loopbacks.  A frame a node sends itself (src = dst, on either plane)
   crosses no link, so its bytes are neither tagged nor checked while they
   are the sender's: a plain delivery, a delay, a duplicate and a replay.
   A [Replace]d loopback is still tagged over the original bytes and
   checked, so it fails like any tampered frame.  Everything else is
   unchanged: the latency draw for the same size (payload + 20-byte tag +
   28), the FIFO clamp, the arrival event, the flow id, the trace
   records, and the intercept call.  The intercept still sees loopbacks
   because vopr's mutation indices and repro lines count every frame it
   is shown; hiding loopbacks from it would renumber every recorded
   schedule.  [publish_metrics] reports the HMACs actually computed
   ([net.macs]) and the loopback frames ([net.loopback_msgs]). *)

type action =
  | Deliver
  | Drop
  | Delay of float               (* extra seconds *)
  | Replace of string            (* tamper with the payload in flight *)
  | Duplicate                    (* deliver twice, back to back *)
  | Replay of float              (* deliver now and again after the delay *)

(* One queued step of a plane: a frame for its handler, or an injected
   call with the causal flow id that triggered it. *)
type step =
  | Frame of int * string * int     (* src, payload, flow id *)
  | Call of (unit -> unit) * int    (* action, cause *)

(* One message class of one node: a sequential core and its links. *)
type plane = {
  protocol : bool;                  (* the protocol plane; else storage *)
  meter : Cost.meter;
  mutable busy_until : float;
  inbox : step Queue.t;
  mutable handler : (src:int -> string -> unit) option;
  mutable wake_scheduled : bool;
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable received_msgs : int;
  latency : Hashes.Drbg.t;          (* the plane's jitter stream, shared by all nodes *)
  last_arrival : float array;       (* FIFO clamp per destination *)
}

type node = {
  id : int;
  proto : plane;
  store : plane;
  outbox : (int * string * int) Queue.t;     (* dst, payload, flow id;
                                                sends buffered in a
                                                protocol handler *)
  mutable crashed : bool;
  mutable in_handler : bool;        (* in a protocol-plane step *)
  mutable macs : int;               (* link HMACs computed: tags sent, tags checked *)
  mutable loopback_msgs : int;      (* frames to itself, both planes: no MAC *)
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  nodes : node array;
  mac_keys : string array array;       (* symmetric, per unordered pair *)
  link_keys : Hashes.Hmac.key array array;  (* [mac_keys] prepared, per directed pair *)
  link_headers : string array array;   (* "src>dst|", per directed pair *)
  mutable intercept : (src:int -> dst:int -> string -> action) option;
  mutable mac_failures : int;
  (* Lossy-datagram mode: when [lossy = Some p] the links are unreliable,
     reordering datagram channels losing each frame with probability [p],
     and reliability/FIFO/authentication come from a sliding-window
     {!Swlink} endpoint per directed pair - the paper's planned replacement
     for TCP, running under the whole protocol stack. *)
  lossy : float option;
  mutable links : Swlink.endpoint option array array;
  link_msgs : int array array;       (* per (src,dst) message counts *)
  link_bytes : int array array;      (* per (src,dst) payload bytes *)
  traces : Trace.Ctx.t array;        (* per-node tracing contexts *)
}

let make ?lossy ~(engine : Engine.t) ~(topo : Topology.t)
    ~(mac_keys : string array array) () : t =
  let n = Topology.n topo in
  let proto_latency = Hashes.Drbg.fork (Engine.drbg engine) "net-latency" in
  let store_latency = Hashes.Drbg.fork (Engine.drbg engine) "net-oob-latency" in
  let plane ~protocol ~exp_ms latency =
    { protocol; meter = Cost.create_meter ~exp_ms; busy_until = 0.0;
      inbox = Queue.create (); handler = None; wake_scheduled = false;
      sent_msgs = 0; sent_bytes = 0; received_msgs = 0; latency;
      last_arrival = Array.make n 0.0 }
  in
  let nodes =
    Array.init n (fun id ->
      let exp_ms = topo.Topology.hosts.(id).Topology.exp_ms in
      {
        id;
        proto = plane ~protocol:true ~exp_ms proto_latency;
        store = plane ~protocol:false ~exp_ms store_latency;
        outbox = Queue.create ();
        crashed = false;
        in_handler = false;
        macs = 0;
        loopback_msgs = 0;
      })
  in
  {
    engine;
    topo;
    nodes;
    mac_keys;
    link_keys =
      Array.init n (fun i ->
        Array.init n (fun j ->
          Hashes.Hmac.key ~algo:Hashes.Hmac.SHA1 mac_keys.(min i j).(max i j)));
    link_headers =
      Array.init n (fun src -> Array.init n (fun dst -> Printf.sprintf "%d>%d|" src dst));
    intercept = None;
    mac_failures = 0;
    lossy;
    links = [||];
    link_msgs = Array.init n (fun _ -> Array.make n 0);
    link_bytes = Array.init n (fun _ -> Array.make n 0);
    traces = Array.init n (fun id -> Engine.trace_ctx engine ~party:id);
  }

(* A frame's tag covers "src>dst|" and the payload, streamed as two parts
   under the pair's prepared key.  The sender pays for the tag, the
   receiver for the check. *)
let mac_tag (t : t) ~(src : int) ~(dst : int) (payload : string) : string =
  let nd = t.nodes.(src) in
  nd.macs <- nd.macs + 1;
  Hashes.Hmac.tag t.link_keys.(src).(dst) [ t.link_headers.(src).(dst); payload ]

let mac_ok (t : t) ~(src : int) ~(dst : int) ~(tag : string) (payload : string) : bool =
  let nd = t.nodes.(dst) in
  nd.macs <- nd.macs + 1;
  Hashes.Hmac.check t.link_keys.(src).(dst) ~tag [ t.link_headers.(src).(dst); payload ]

(* An HMAC-SHA1 tag's length.  A frame's modeled wire size counts it even
   on a loopback, which carries no tag, so latency draws do not depend on
   whether a frame crosses a link. *)
let tag_bytes = 20

(* The sender's own bytes on a loopback cross no link: no tag, no check. *)
let link_tag (t : t) ~(src : int) ~(dst : int) (payload : string) : string option =
  if src = dst then None else Some (mac_tag t ~src ~dst payload)

(* A trace instant of the "net" category naming flow [id]. *)
let net_instant (tr : Trace.Ctx.t) ~(time : float) ~(id : int) (name : string) : unit =
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time ~pid:"net" ~cat:"net" ~ph:Trace.Event.Instant
      ~args:[ ("id", Trace.Event.Int id) ]
      name

(* The one booking rule: a pending charge runs after what the CPU holds. *)
let book (t : t) (p : plane) : unit =
  p.busy_until <- Stdlib.max p.busy_until (Engine.now t.engine) +. Cost.take p.meter

(* Run at most one inbox step of plane [p] of node [nd], then reschedule.
   This is the only place work runs on a plane.  The wake flag stays set
   while the step runs, so what the step queues here waits for the one
   re-arm at [busy_until] below instead of scheduling a wake of its own. *)
let rec process_one (t : t) (nd : node) (p : plane) () : unit =
  let ready () = not nd.crashed && not (Queue.is_empty p.inbox) in
  if ready () && p.busy_until <= Engine.now t.engine then begin
    (* Records emitted inside a step carry its cause (a frame's flow id):
       the causal edge the analyzer follows. *)
    let run cause f =
      nd.in_handler <- p.protocol;
      Trace.Ctx.set_cause t.traces.(nd.id) cause;
      f ();
      Trace.Ctx.set_cause t.traces.(nd.id) (-1);
      nd.in_handler <- false
    in
    (match Queue.pop p.inbox with
     | Frame (src, payload, flow) ->
       p.received_msgs <- p.received_msgs + 1;
       Option.iter (fun h -> run flow (fun () -> h ~src payload)) p.handler
     | Call (f, cause) -> run cause f);
    book t p;
    flush_outbox t nd
  end;
  p.wake_scheduled <- false;
  if ready () then wake t nd p p.busy_until

and wake (t : t) (nd : node) (p : plane) (at : float) : unit =
  if not p.wake_scheduled then begin
    p.wake_scheduled <- true;
    Engine.schedule_at t.engine ~time:at (process_one t nd p)
  end

and enqueue (t : t) (nd : node) (p : plane) (step : step) : unit =
  Queue.push step p.inbox;
  wake t nd p (Stdlib.max (Engine.now t.engine) p.busy_until)

(* The one arrival path: one copy of a frame from [src] to [dst] on the
   sender's plane [sp], departing at [depart].  Draws its latency from the
   plane's jitter stream, adds [extra], clamps it to the pair's FIFO order
   when [fifo] (TCP streams in the prototype), and on arrival checks [tag]
   ([None] for a loopback's own bytes), queues the frame and wakes the
   receiver.  A frame that passes its check is always handled. *)
and arrive (t : t) (sp : plane) ~(src : int) ~(dst : int) ~(id : int)
    ~(depart : float) ~(tag : string option) ~(extra : float) ~(fifo : bool)
    (payload : string) : unit =
  let size = String.length payload + tag_bytes + 28 in
  let latency = t.topo.Topology.one_way src dst size sp.latency in
  let arrival = depart +. latency +. extra in
  let arrival =
    if fifo then Stdlib.max arrival (sp.last_arrival.(dst) +. 1e-9) else arrival
  in
  if fifo then sp.last_arrival.(dst) <- arrival;
  let nd = t.nodes.(dst) in
  let rp = if sp.protocol then nd.proto else nd.store in
  Engine.schedule_at t.engine ~time:arrival (fun () ->
    if not nd.crashed then
      match tag with
      | Some tag when not (mac_ok t ~src ~dst ~tag payload) ->
        t.mac_failures <- t.mac_failures + 1
      | Some _ | None ->
        net_instant t.traces.(dst) ~time:arrival ~id "recv";
        enqueue t nd rp (Frame (src, payload, id)))

(* Put a protocol-plane [payload] on the wire from [src] to [dst],
   departing at [depart].  [id] is the causal flow id allocated at send
   time; the sliding-window path cannot carry it through retransmission
   frames, so lossy-mode deliveries enter the inbox with id -1 (no causal
   edge). *)
and transmit (t : t) ~(src : int) ~(dst : int) ~(id : int) ~(depart : float)
    (payload : string) : unit =
  if t.lossy <> None && src <> dst then
    (* Hand the payload to the sliding-window link at departure time. *)
    Option.iter
      (fun ep -> Engine.schedule_at t.engine ~time:depart (fun () -> Swlink.send ep payload))
      t.links.(src).(dst)
  else begin
    let decide = match t.intercept with
      | None -> Deliver
      | Some f -> f ~src ~dst payload
    in
    (* The bytes leave src's virtual CPU here: the end of the message's
       send→xmit compute window.  One record per transmit, even when the
       adversary duplicates the delivery below. *)
    (match decide with
     | Drop -> ()
     | Deliver | Delay _ | Replace _ | Duplicate | Replay _ ->
       net_instant t.traces.(src) ~time:depart ~id "xmit");
    let sp = t.nodes.(src).proto in
    let copy ~extra ~fifo =
      arrive t sp ~src ~dst ~id ~depart ~tag:(link_tag t ~src ~dst payload) ~extra ~fifo
        payload
    in
    (match decide with
     | Deliver -> copy ~extra:0.0 ~fifo:true
     | Drop -> ()
     | Delay d -> copy ~extra:d ~fifo:true
     | Duplicate ->
       copy ~extra:0.0 ~fifo:true;
       copy ~extra:0.0 ~fifo:true
     | Replay d ->
       (* The recorded copy bypasses the FIFO clamp: the adversary is not
          bound by the link's stream order when it replays old frames.  The
          MAC is the genuine one, so honest receivers accept the copy —
          deduplication is the protocol's job, which is exactly what replay
          schedules probe. *)
       copy ~extra:0.0 ~fifo:true;
       copy ~extra:d ~fifo:false
     | Replace p ->
       (* The tag is computed over the original payload, so honest
          receivers detect tampering; used to test robustness of link
          authentication.  A loopback is tagged and checked here too: the
          bytes are no longer the sender's. *)
       arrive t sp ~src ~dst ~id ~depart ~tag:(Some (mac_tag t ~src ~dst payload))
         ~extra:0.0 ~fifo:false p)
  end

and flush_outbox (t : t) (nd : node) : unit =
  while not (Queue.is_empty nd.outbox) do
    let dst, payload, id = Queue.pop nd.outbox in
    transmit t ~src:nd.id ~dst ~id ~depart:nd.proto.busy_until payload
  done

(* Build the sliding-window endpoints for lossy mode.  The datagram channel
   below them loses each frame with probability [p] and is free to reorder
   (latency jitter, no FIFO clamp); everything above sees a reliable FIFO
   authenticated link again. *)
let init_links (t : t) (p : float) : unit =
  let n = Array.length t.nodes in
  let chaos = Hashes.Drbg.fork (Engine.drbg t.engine) "net-loss" in
  let datagram ~src ~dst frame =
    let nd = t.nodes.(src) in
    if not nd.crashed && Hashes.Drbg.float chaos 1.0 >= p then begin
      let size = String.length frame + 28 in
      let latency = t.topo.Topology.one_way src dst size nd.proto.latency in
      Engine.schedule t.engine ~delay:latency (fun () ->
        if not t.nodes.(dst).crashed then
          match t.links.(dst).(src) with
          | Some ep -> Swlink.on_datagram ep frame
          | None -> ())
    end
  in
  t.links <-
    Array.init n (fun i ->
      Array.init n (fun j ->
        if i = j then None
        else
          Some
            (Swlink.create ~engine:t.engine
               ~mac_key:(t.mac_keys.(min i j).(max i j))
               ~rto:0.4
               ~out:(fun frame -> datagram ~src:i ~dst:j frame)
               ~deliver:(fun payload ->
                 let nd = t.nodes.(i) in
                 (* Flow ids don't survive sliding-window reassembly; the
                    causal edge is severed in lossy mode. *)
                 if not nd.crashed then enqueue t nd nd.proto (Frame (j, payload, -1)))
               ())))

(* Count a send on plane [p] of node [nd] and open its causal flow: the
   "msg" record's parent edge is the context's current cause (stamped
   automatically when sent from inside a handler). *)
let open_flow (t : t) (nd : node) (p : plane) ~(dst : int) (payload : string) : int =
  p.sent_msgs <- p.sent_msgs + 1;
  p.sent_bytes <- p.sent_bytes + String.length payload;
  if nd.id = dst then nd.loopback_msgs <- nd.loopback_msgs + 1;
  (* Allocate the flow id unconditionally (a pure counter), so traced and
     untraced runs make identical allocations and the schedule is never
     perturbed by observability. *)
  let id = Engine.fresh_flow_id t.engine in
  let tr = t.traces.(nd.id) in
  if Trace.Ctx.enabled tr then begin
    let now = Engine.now t.engine in
    if p.protocol then
      Trace.Ctx.emit_at tr ~time:now ~pid:"net" ~cat:"net" ~ph:Trace.Event.Counter
        ~args:
          [ ("msgs", Trace.Event.Int p.sent_msgs);
            ("bytes", Trace.Event.Int p.sent_bytes) ]
        "sent";
    Trace.Ctx.emit_at tr ~time:now ~pid:"net" ~cat:"net" ~ph:Trace.Event.Flow_start
      ~args:
        [ ("id", Trace.Event.Int id);
          ("dst", Trace.Event.Int dst);
          ("bytes", Trace.Event.Int (String.length payload)) ]
      "msg"
  end;
  id

(* Send on the storage plane: departs at once (the protocol thread's
   handoff to the storage core is modeled free), never intercepted. *)
let send_oob (t : t) ~(src : int) ~(dst : int) (payload : string) : unit =
  let nd = t.nodes.(src) in
  if not nd.crashed then begin
    let id = open_flow t nd nd.store ~dst payload in
    let depart = Engine.now t.engine in
    net_instant t.traces.(src) ~time:depart ~id "xmit";
    arrive t nd.store ~src ~dst ~id ~depart ~tag:(link_tag t ~src ~dst payload)
      ~extra:0.0 ~fifo:true payload
  end

let set_oob_handler (t : t) (i : int) (h : src:int -> string -> unit) : unit =
  t.nodes.(i).store.handler <- Some h

let oob_meter (t : t) (i : int) = t.nodes.(i).store.meter

(* Flush work charged to the storage meter outside a storage handler (log
   appends and checkpoint crypto triggered synchronously by a delivered
   round) into the storage core's busy clock, so snapshot service queues
   behind it honestly. *)
let oob_advance (t : t) (i : int) : unit = book t t.nodes.(i).store

let meter (t : t) (i : int) = t.nodes.(i).proto.meter

let set_handler (t : t) (i : int) (h : src:int -> string -> unit) : unit =
  t.nodes.(i).proto.handler <- Some h

let set_intercept (t : t) (f : src:int -> dst:int -> string -> action) : unit =
  t.intercept <- Some f

(* A power-off loses the injected calls its CPU never began; queued frames
   stay for [recover]. *)
let crash (t : t) (i : int) : unit =
  let nd = t.nodes.(i) in
  nd.crashed <- true;
  let queued = Queue.copy nd.proto.inbox in
  Queue.clear nd.proto.inbox;
  Queue.iter (function Frame _ as s -> Queue.push s nd.proto.inbox | Call _ -> ()) queued

(* Bring a crashed node back: messages that arrived while it was down were
   dropped at arrival time (crash = power-off, volatile buffers lost), but
   frames still in flight or queued before the crash are processed again. *)
let recover (t : t) (i : int) : unit =
  let nd = t.nodes.(i) in
  if nd.crashed then begin
    nd.crashed <- false;
    List.iter
      (fun p ->
        if not (Queue.is_empty p.inbox) then
          wake t nd p (Stdlib.max (Engine.now t.engine) p.busy_until))
      [ nd.proto; nd.store ]
  end

(* Public constructors: reliable FIFO links (the default, like the
   prototype's TCP), or unreliable datagrams losing each frame with
   probability [loss], recovered by the sliding-window protocol. *)
let create ~(engine : Engine.t) ~(topo : Topology.t)
    ~(mac_keys : string array array) : t =
  make ~engine ~topo ~mac_keys ()

let create_lossy ~(loss : float) ~(engine : Engine.t) ~(topo : Topology.t)
    ~(mac_keys : string array array) : t =
  let t = make ~lossy:loss ~engine ~topo ~mac_keys () in
  init_links t loss;
  t

(* Send [payload] from [src] to [dst].  Inside a handler the message is
   buffered and departs when the handler's charged computation completes;
   outside (e.g. from a test driver), it departs immediately. *)
let send (t : t) ~(src : int) ~(dst : int) (payload : string) : unit =
  let nd = t.nodes.(src) in
  if not nd.crashed then begin
    t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
    t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + String.length payload;
    let id = open_flow t nd nd.proto ~dst payload in
    if nd.in_handler then Queue.push (dst, payload, id) nd.outbox
    else
      transmit t ~src ~dst ~id
        ~depart:(Stdlib.max (Engine.now t.engine) nd.proto.busy_until)
        payload
  end

(* Queue a computation on node [i]'s protocol CPU, behind every step already
   queued there, as if an external request arrived: the harness's client
   requests (the paper's send events).  [cause] optionally names the causal
   flow id (e.g. a load generator's submit record) that triggered it, so
   records emitted inside [f] join the DAG. *)
let inject ?(cause = -1) (t : t) (i : int) (f : unit -> unit) : unit =
  let nd = t.nodes.(i) in
  if not nd.crashed then enqueue t nd nd.proto (Call (f, cause))

let mac_failures (t : t) = t.mac_failures

let trace_ctx (t : t) (i : int) : Trace.Ctx.t = t.traces.(i)

(* Dump the accumulated network and CPU counters into the engine's metrics
   registry.  Idempotent ([Metrics.set], not add), so harnesses may call it
   whenever a report is wanted. *)
let publish_metrics (t : t) : unit =
  let m = Engine.metrics t.engine in
  let setc name v = Trace.Metrics.set (Trace.Metrics.counter m name) v in
  Array.iteri
    (fun i nd ->
      let p = nd.proto and s = nd.store in
      setc (Printf.sprintf "p%d/net.sent_msgs" i) (float_of_int p.sent_msgs);
      setc (Printf.sprintf "p%d/net.sent_bytes" i) (float_of_int p.sent_bytes);
      setc (Printf.sprintf "p%d/net.recv_msgs" i) (float_of_int p.received_msgs);
      (* In lossy mode the link HMACs are the node's Swlink endpoints'. *)
      let link_macs =
        Array.fold_left
          (fun acc ep -> match ep with Some ep -> acc + Swlink.macs ep | None -> acc)
          0
          (if i < Array.length t.links then t.links.(i) else [||])
      in
      setc (Printf.sprintf "p%d/net.macs" i) (float_of_int (nd.macs + link_macs));
      setc (Printf.sprintf "p%d/net.loopback_msgs" i) (float_of_int nd.loopback_msgs);
      setc (Printf.sprintf "p%d/cpu.charged_s" i) (p.meter.Cost.total_ms /. 1000.0);
      setc (Printf.sprintf "p%d/crypto.exps" i) (float_of_int p.meter.Cost.exp_count);
      setc (Printf.sprintf "p%d/crypto.exp2s" i) (float_of_int p.meter.Cost.exp2_count);
      setc (Printf.sprintf "p%d/crypto.fixed" i) (float_of_int p.meter.Cost.fixed_count);
      setc (Printf.sprintf "p%d/store.cpu_s" i) (s.meter.Cost.total_ms /. 1000.0);
      setc (Printf.sprintf "p%d/store.net_msgs" i) (float_of_int s.sent_msgs);
      setc (Printf.sprintf "p%d/store.net_bytes" i) (float_of_int s.sent_bytes))
    t.nodes;
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst msgs ->
          if msgs > 0 then begin
            setc (Printf.sprintf "link/%d>%d/msgs" src dst) (float_of_int msgs);
            setc
              (Printf.sprintf "link/%d>%d/bytes" src dst)
              (float_of_int t.link_bytes.(src).(dst))
          end)
        row)
    t.link_msgs;
  setc "net/mac_failures" (float_of_int t.mac_failures)
