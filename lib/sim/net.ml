(* The simulated network: n nodes with authenticated, reliable, FIFO
   point-to-point links over the discrete-event engine.

   Fidelity to the paper's model:
   - links carry opaque byte strings (real serialized protocol messages),
     authenticated by HMAC-SHA1 under a per-pair key from the dealer;
   - each node is a sequential processor: handling a message charges virtual
     CPU time to the node's meter (calibrated by its `exp_ms'), and messages
     sent from within a handler depart only when the computation finishes —
     this is what makes slow hosts lag exactly as in Figures 4 and 5;
   - an adversary hook may drop, delay or replace messages in flight
     (replacement is detected by the MAC unless the adversary controls the
     sender), which models the asynchronous scheduler's power.

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

type node = {
  id : int;
  meter : Cost.meter;
  mutable busy_until : float;
  inbox : (int * string * int) Queue.t;      (* src, payload, flow id *)
  outbox : (int * string * int) Queue.t;     (* dst, payload, flow id;
                                                sends buffered in a handler *)
  mutable handler : (src:int -> string -> unit) option;
  mutable wake_scheduled : bool;
  mutable crashed : bool;
  mutable in_handler : bool;
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable received_msgs : int;
  mutable macs : int;               (* link HMACs computed: tags sent, tags checked *)
  mutable loopback_msgs : int;      (* frames to itself, both planes: no MAC *)
  (* The storage plane: a second, out-of-band message class with its own
     CPU meter, busy clock and inbox — a dedicated storage core and a
     separate transfer connection per host.  Durability traffic (checkpoint
     shares, snapshot transfer) rides here so it shares NO schedule-bearing
     resource with the protocol plane: neither the protocol meter nor the
     protocol latency stream is ever touched, which is what keeps a durable
     run's delivery schedule byte-identical to a non-durable one. *)
  oob_meter : Cost.meter;
  mutable oob_busy_until : float;
  oob_inbox : (int * string * int) Queue.t;
  mutable oob_handler : (src:int -> string -> unit) option;
  mutable oob_wake_scheduled : bool;
  mutable oob_sent_msgs : int;
  mutable oob_sent_bytes : int;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  nodes : node array;
  mac_keys : string array array;       (* symmetric, per unordered pair *)
  link_keys : Hashes.Hmac.key array array;  (* [mac_keys] prepared, per directed pair *)
  link_headers : string array array;   (* "src>dst|", per directed pair *)
  latency_drbg : Hashes.Drbg.t;
  oob_latency_drbg : Hashes.Drbg.t;    (* storage plane's own jitter stream *)
  oob_last_arrival : float array array;  (* FIFO per (src,dst), oob plane *)
  mutable intercept : (src:int -> dst:int -> string -> action) option;
  mutable mac_failures : int;
  last_arrival : float array array;  (* FIFO ordering per (src,dst) *)
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
  let nodes =
    Array.init n (fun id ->
      {
        id;
        meter = Cost.create_meter ~exp_ms:topo.Topology.hosts.(id).Topology.exp_ms;
        busy_until = 0.0;
        inbox = Queue.create ();
        outbox = Queue.create ();
        handler = None;
        wake_scheduled = false;
        crashed = false;
        in_handler = false;
        sent_msgs = 0;
        sent_bytes = 0;
        received_msgs = 0;
        macs = 0;
        loopback_msgs = 0;
        oob_meter =
          Cost.create_meter ~exp_ms:topo.Topology.hosts.(id).Topology.exp_ms;
        oob_busy_until = 0.0;
        oob_inbox = Queue.create ();
        oob_handler = None;
        oob_wake_scheduled = false;
        oob_sent_msgs = 0;
        oob_sent_bytes = 0;
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
    latency_drbg = Hashes.Drbg.fork (Engine.drbg engine) "net-latency";
    oob_latency_drbg = Hashes.Drbg.fork (Engine.drbg engine) "net-oob-latency";
    intercept = None;
    mac_failures = 0;
    last_arrival = Array.init n (fun _ -> Array.make n 0.0);
    oob_last_arrival = Array.init n (fun _ -> Array.make n 0.0);
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

(* The sender's own bytes on a loopback cross no link: no tag, no check.
   Every other frame is tagged here and checked by [authentic]. *)
let link_tag (t : t) ~(src : int) ~(dst : int) (payload : string) : string =
  if src = dst then "" else mac_tag t ~src ~dst payload

let authentic (t : t) ~(src : int) ~(dst : int) ~(tag : string) (payload : string)
    : bool =
  src = dst || mac_ok t ~src ~dst ~tag payload

(* Process at most one inbox message of node [nd], then reschedule. *)
let rec process_one (t : t) (nd : node) () : unit =
  nd.wake_scheduled <- false;
  if not nd.crashed && not (Queue.is_empty nd.inbox) then begin
    let now = Engine.now t.engine in
    if nd.busy_until > now then wake t nd nd.busy_until
    else begin
      let src, payload, flow = Queue.pop nd.inbox in
      nd.received_msgs <- nd.received_msgs + 1;
      (match nd.handler with
       | None -> ()
       | Some h ->
         nd.in_handler <- true;
         (* Records emitted while the handler runs carry the triggering
            message's flow id — the causal edge the analyzer follows. *)
         Trace.Ctx.set_cause t.traces.(nd.id) flow;
         h ~src payload;
         Trace.Ctx.set_cause t.traces.(nd.id) (-1);
         nd.in_handler <- false);
      let cost = Cost.take nd.meter in
      nd.busy_until <- now +. cost;
      flush_outbox t nd;
      if not (Queue.is_empty nd.inbox) then wake t nd nd.busy_until
    end
  end

and wake (t : t) (nd : node) (at : float) : unit =
  if not nd.wake_scheduled then begin
    nd.wake_scheduled <- true;
    Engine.schedule_at t.engine ~time:at (process_one t nd)
  end

(* Lossy-datagram mode: hand the payload to the sliding-window link at
   departure time; frames below travel as unreliable datagrams. *)
and transmit_lossy (t : t) ~(src : int) ~(dst : int) ~(depart : float) (payload : string)
    : unit =
  match t.links.(src).(dst) with
  | None -> ()
  | Some ep -> Engine.schedule_at t.engine ~time:depart (fun () -> Swlink.send ep payload)

(* Put [payload] on the wire from [src] to [dst], departing at [depart].
   [id] is the causal flow id allocated at send time; the sliding-window
   path cannot carry it through retransmission frames, so lossy-mode
   deliveries enter the inbox with id -1 (no causal edge). *)
and transmit (t : t) ~(src : int) ~(dst : int) ~(id : int) ~(depart : float)
    (payload : string) : unit =
  if t.lossy <> None && src <> dst then transmit_lossy t ~src ~dst ~depart payload
  else transmit_reliable t ~src ~dst ~id ~depart payload

and transmit_reliable (t : t) ~(src : int) ~(dst : int) ~(id : int)
    ~(depart : float) (payload : string) : unit =
  let decide = match t.intercept with
    | None -> Deliver
    | Some f -> f ~src ~dst payload
  in
  (* The bytes leave src's virtual CPU here: the end of the message's
     send→xmit compute window.  One record per transmit, even when the
     adversary duplicates the delivery below. *)
  let tr_src = t.traces.(src) in
  let dropped =
    match decide with
    | Drop -> true
    | Deliver | Delay _ | Replace _ | Duplicate | Replay _ -> false
  in
  if Trace.Ctx.enabled tr_src && not dropped then
    Trace.Ctx.emit_at tr_src ~time:depart ~pid:"net" ~cat:"net"
      ~ph:Trace.Event.Instant
      ~args:[ ("id", Trace.Event.Int id) ]
      "xmit";
  let arrived ~(arrival : float) : unit =
    let tr_dst = t.traces.(dst) in
    if Trace.Ctx.enabled tr_dst then
      Trace.Ctx.emit_at tr_dst ~time:arrival ~pid:"net" ~cat:"net"
        ~ph:Trace.Event.Instant
        ~args:[ ("id", Trace.Event.Int id) ]
        "recv"
  in
  let deliver ~extra_delay payload =
    let tag = link_tag t ~src ~dst payload in
    let size = String.length payload + tag_bytes + 28 in
    let latency = t.topo.Topology.one_way src dst size t.latency_drbg in
    let arrival = depart +. latency +. extra_delay in
    (* FIFO per directed pair, like the TCP streams in the prototype. *)
    let arrival = Stdlib.max arrival (t.last_arrival.(src).(dst) +. 1e-9) in
    t.last_arrival.(src).(dst) <- arrival;
    let nd = t.nodes.(dst) in
    Engine.schedule_at t.engine ~time:arrival (fun () ->
      if not nd.crashed then begin
        (* Verify the link MAC on arrival. *)
        if authentic t ~src ~dst ~tag payload then begin
          arrived ~arrival;
          Queue.push (src, payload, id) nd.inbox;
          wake t nd (Stdlib.max arrival nd.busy_until)
        end
        else t.mac_failures <- t.mac_failures + 1
      end)
  in
  (* Re-inject a recorded copy of [payload] after [d] extra seconds.  Like
     [Replace], the copy bypasses the FIFO clamp: the adversary is not bound
     by the link's stream order when it replays old frames.  The MAC is the
     genuine one, so honest receivers accept the copy — deduplication is the
     protocol's job, which is exactly what replay schedules probe. *)
  let replay_copy ~extra_delay payload =
    let tag = link_tag t ~src ~dst payload in
    let size = String.length payload + tag_bytes + 28 in
    let latency = t.topo.Topology.one_way src dst size t.latency_drbg in
    let arrival = depart +. latency +. extra_delay in
    let nd = t.nodes.(dst) in
    Engine.schedule_at t.engine ~time:arrival (fun () ->
      if not nd.crashed then begin
        if authentic t ~src ~dst ~tag payload then begin
          arrived ~arrival;
          Queue.push (src, payload, id) nd.inbox;
          wake t nd (Stdlib.max arrival nd.busy_until)
        end
        else t.mac_failures <- t.mac_failures + 1
      end)
  in
  match decide with
  | Deliver -> deliver ~extra_delay:0.0 payload
  | Drop -> ()
  | Delay d -> deliver ~extra_delay:d payload
  | Duplicate ->
    deliver ~extra_delay:0.0 payload;
    deliver ~extra_delay:0.0 payload
  | Replay d ->
    deliver ~extra_delay:0.0 payload;
    replay_copy ~extra_delay:d payload
  | Replace p ->
    (* The tag is computed over the original payload, so honest receivers
       detect tampering; used to test robustness of link authentication.
       A loopback is tagged and checked here too: the bytes are no longer
       the sender's. *)
    let tag = mac_tag t ~src ~dst payload in
    let size = String.length p + tag_bytes + 28 in
    let latency = t.topo.Topology.one_way src dst size t.latency_drbg in
    let arrival = depart +. latency in
    let nd = t.nodes.(dst) in
    Engine.schedule_at t.engine ~time:arrival (fun () ->
      if not nd.crashed then begin
        if mac_ok t ~src ~dst ~tag p then begin
          arrived ~arrival;
          Queue.push (src, p, id) nd.inbox
        end
        else t.mac_failures <- t.mac_failures + 1
      end)

and flush_outbox (t : t) (nd : node) : unit =
  while not (Queue.is_empty nd.outbox) do
    let dst, payload, id = Queue.pop nd.outbox in
    transmit t ~src:nd.id ~dst ~id ~depart:nd.busy_until payload
  done

(* Build the sliding-window endpoints for lossy mode.  The datagram channel
   below them loses each frame with probability [p] and is free to reorder
   (latency jitter, no FIFO clamp); everything above sees a reliable FIFO
   authenticated link again. *)
let init_links (t : t) (p : float) : unit =
  let n = Array.length t.nodes in
  let chaos = Hashes.Drbg.fork (Engine.drbg t.engine) "net-loss" in
  let datagram ~src ~dst frame =
    if not t.nodes.(src).crashed && Hashes.Drbg.float chaos 1.0 >= p then begin
      let size = String.length frame + 28 in
      let latency = t.topo.Topology.one_way src dst size t.latency_drbg in
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
                 if not nd.crashed then begin
                   (* Flow ids don't survive sliding-window reassembly; the
                      causal edge is severed in lossy mode. *)
                   Queue.push (j, payload, -1) nd.inbox;
                   wake t nd (Stdlib.max (Engine.now t.engine) nd.busy_until)
                 end)
               ())))

(* --- the storage plane --- *)

(* Process at most one storage-plane message of node [nd]: same sequential
   core model as [process_one], on the node's storage meter and busy clock.
   Storage handlers send protocol messages only on recovery paths (snapshot
   catch-up), so there is no oob outbox — those sends depart directly. *)
let rec process_oob_one (t : t) (nd : node) () : unit =
  nd.oob_wake_scheduled <- false;
  if not nd.crashed && not (Queue.is_empty nd.oob_inbox) then begin
    let now = Engine.now t.engine in
    if nd.oob_busy_until > now then oob_wake t nd nd.oob_busy_until
    else begin
      let src, payload, flow = Queue.pop nd.oob_inbox in
      (match nd.oob_handler with
       | None -> ()
       | Some h ->
         Trace.Ctx.set_cause t.traces.(nd.id) flow;
         h ~src payload;
         Trace.Ctx.set_cause t.traces.(nd.id) (-1));
      let cost = Cost.take nd.oob_meter in
      nd.oob_busy_until <- now +. cost;
      if not (Queue.is_empty nd.oob_inbox) then oob_wake t nd nd.oob_busy_until
    end
  end

and oob_wake (t : t) (nd : node) (at : float) : unit =
  if not nd.oob_wake_scheduled then begin
    nd.oob_wake_scheduled <- true;
    Engine.schedule_at t.engine ~time:at (process_oob_one t nd)
  end

(* Send on the storage plane: authenticated FIFO point-to-point, latency
   drawn from the plane's own jitter stream, arrival clamped by the plane's
   own per-pair FIFO order.  The adversary intercept and lossy-datagram
   mode apply to the protocol plane only — the transfer connection is
   modeled reliable; Byzantine storage-plane content is handled end-to-end
   (certificate verification), not at the link. *)
let send_oob (t : t) ~(src : int) ~(dst : int) (payload : string) : unit =
  let nd = t.nodes.(src) in
  if not nd.crashed then begin
    nd.oob_sent_msgs <- nd.oob_sent_msgs + 1;
    nd.oob_sent_bytes <- nd.oob_sent_bytes + String.length payload;
    if src = dst then nd.loopback_msgs <- nd.loopback_msgs + 1;
    let id = Engine.fresh_flow_id t.engine in
    let tag = link_tag t ~src ~dst payload in
    let size = String.length payload + tag_bytes + 28 in
    let latency = t.topo.Topology.one_way src dst size t.oob_latency_drbg in
    let depart = Engine.now t.engine in
    let arrival = depart +. latency in
    let arrival = Stdlib.max arrival (t.oob_last_arrival.(src).(dst) +. 1e-9) in
    t.oob_last_arrival.(src).(dst) <- arrival;
    let rcv = t.nodes.(dst) in
    Engine.schedule_at t.engine ~time:arrival (fun () ->
      if not rcv.crashed then begin
        if authentic t ~src ~dst ~tag payload then begin
          Queue.push (src, payload, id) rcv.oob_inbox;
          oob_wake t rcv (Stdlib.max arrival rcv.oob_busy_until)
        end
        else t.mac_failures <- t.mac_failures + 1
      end)
  end

let set_oob_handler (t : t) (i : int) (h : src:int -> string -> unit) : unit =
  t.nodes.(i).oob_handler <- Some h

let oob_meter (t : t) (i : int) = t.nodes.(i).oob_meter

(* Flush work charged to the storage meter outside a storage handler (log
   appends and checkpoint crypto triggered synchronously by a delivered
   round) into the storage core's busy clock, so snapshot service queues
   behind it honestly. *)
let oob_advance (t : t) (i : int) : unit =
  let nd = t.nodes.(i) in
  let cost = Cost.take nd.oob_meter in
  if cost > 0.0 then
    nd.oob_busy_until <-
      Stdlib.max nd.oob_busy_until (Engine.now t.engine) +. cost

let meter (t : t) (i : int) = t.nodes.(i).meter

let set_handler (t : t) (i : int) (h : src:int -> string -> unit) : unit =
  t.nodes.(i).handler <- Some h

let set_intercept (t : t) (f : src:int -> dst:int -> string -> action) : unit =
  t.intercept <- Some f


let crash (t : t) (i : int) = t.nodes.(i).crashed <- true

(* Bring a crashed node back: messages that arrived while it was down were
   dropped at arrival time (crash = power-off, volatile buffers lost), but
   frames still in flight or queued before the crash are processed again. *)
let recover (t : t) (i : int) : unit =
  let nd = t.nodes.(i) in
  if nd.crashed then begin
    nd.crashed <- false;
    if not (Queue.is_empty nd.inbox) then
      wake t nd (Stdlib.max (Engine.now t.engine) nd.busy_until);
    if not (Queue.is_empty nd.oob_inbox) then
      oob_wake t nd (Stdlib.max (Engine.now t.engine) nd.oob_busy_until)
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
    nd.sent_msgs <- nd.sent_msgs + 1;
    nd.sent_bytes <- nd.sent_bytes + String.length payload;
    if src = dst then nd.loopback_msgs <- nd.loopback_msgs + 1;
    t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
    t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + String.length payload;
    (* Allocate the flow id unconditionally (a pure counter), so traced
       and untraced runs make identical allocations and the schedule is
       never perturbed by observability. *)
    let id = Engine.fresh_flow_id t.engine in
    let tr = t.traces.(src) in
    if Trace.Ctx.enabled tr then begin
      Trace.Ctx.emit_at tr ~time:(Engine.now t.engine) ~pid:"net" ~cat:"net"
        ~ph:Trace.Event.Counter
        ~args:
          [ ("msgs", Trace.Event.Int nd.sent_msgs);
            ("bytes", Trace.Event.Int nd.sent_bytes) ]
        "sent";
      (* The flow starts here; its parent edge is the context's current
         cause (stamped automatically when sent from inside a handler). *)
      Trace.Ctx.emit_at tr ~time:(Engine.now t.engine) ~pid:"net" ~cat:"net"
        ~ph:Trace.Event.Flow_start
        ~args:
          [ ("id", Trace.Event.Int id);
            ("dst", Trace.Event.Int dst);
            ("bytes", Trace.Event.Int (String.length payload)) ]
        "msg"
    end;
    if nd.in_handler then Queue.push (dst, payload, id) nd.outbox
    else
      transmit t ~src ~dst ~id
        ~depart:(Stdlib.max (Engine.now t.engine) nd.busy_until)
        payload
  end

(* Run a computation on node [i] "now": charge its meter and flush sends,
   as if an external request arrived.  Used by the harness for client
   requests (the paper's send events).  [cause] optionally names the causal
   flow id (e.g. a load generator's submit record) that triggered the
   computation, so records emitted inside [f] join the DAG. *)
let inject ?(cause = -1) (t : t) (i : int) (f : unit -> unit) : unit =
  let nd = t.nodes.(i) in
  if not nd.crashed then begin
    let now = Engine.now t.engine in
    let start = Stdlib.max now nd.busy_until in
    Engine.schedule_at t.engine ~time:start (fun () ->
      if not nd.crashed then begin
        nd.in_handler <- true;
        Trace.Ctx.set_cause t.traces.(i) cause;
        f ();
        Trace.Ctx.set_cause t.traces.(i) (-1);
        nd.in_handler <- false;
        let cost = Cost.take nd.meter in
        nd.busy_until <- Engine.now t.engine +. cost;
        flush_outbox t nd
      end)
  end

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
      setc (Printf.sprintf "p%d/net.sent_msgs" i) (float_of_int nd.sent_msgs);
      setc (Printf.sprintf "p%d/net.sent_bytes" i) (float_of_int nd.sent_bytes);
      setc (Printf.sprintf "p%d/net.recv_msgs" i) (float_of_int nd.received_msgs);
      setc (Printf.sprintf "p%d/net.macs" i) (float_of_int nd.macs);
      setc (Printf.sprintf "p%d/net.loopback_msgs" i) (float_of_int nd.loopback_msgs);
      setc (Printf.sprintf "p%d/cpu.charged_s" i) (nd.meter.Cost.total_ms /. 1000.0);
      setc (Printf.sprintf "p%d/crypto.exps" i) (float_of_int nd.meter.Cost.exp_count);
      setc (Printf.sprintf "p%d/crypto.exp2s" i) (float_of_int nd.meter.Cost.exp2_count);
      setc (Printf.sprintf "p%d/crypto.fixed" i) (float_of_int nd.meter.Cost.fixed_count);
      setc (Printf.sprintf "p%d/store.cpu_s" i) (nd.oob_meter.Cost.total_ms /. 1000.0);
      setc (Printf.sprintf "p%d/store.net_msgs" i) (float_of_int nd.oob_sent_msgs);
      setc (Printf.sprintf "p%d/store.net_bytes" i) (float_of_int nd.oob_sent_bytes))
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
