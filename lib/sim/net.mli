(** The simulated network: authenticated, reliable, FIFO point-to-point
    links over the event engine, with per-node sequential virtual CPUs.

    - Links carry opaque bytes (real serialized protocol messages),
      authenticated with HMAC-SHA1 under per-pair keys, like the paper's
      TCP links;
    - each node is a sequential processor: frames and injected calls are
      steps on one inbox, each charging virtual CPU after the steps before
      it, and messages sent from inside a step depart when it finishes —
      this is what makes slow hosts lag exactly as in Figures 4 and 5;
    - an adversary hook can drop, delay or replace messages in flight
      (replacement is caught by the MAC unless the adversary controls the
      sender), modelling the asynchronous scheduler's power;
    - a loopback (a node's frame to itself) crosses no link and carries no
      MAC while its bytes are the sender's; it still draws its latency,
      keeps FIFO order and is shown to the adversary hook, and a replaced
      loopback is tagged, checked and rejected like any tampered frame;
    - every node runs two instances of one plane model, the protocol plane
      and the storage plane below.  Frames of both arrive the same way
      (latency draw, FIFO clamp, MAC check, queueing, wake-up), so a frame
      that passes its check is always handled, and both are traced alike
      (["msg"], ["xmit"], ["recv"]). *)

type action =
  | Deliver
  | Drop
  | Delay of float               (** extra seconds *)
  | Replace of string            (** tamper with the payload in flight *)
  | Duplicate                    (** deliver two copies, back to back *)
  | Replay of float
      (** deliver normally, then re-inject a recorded copy after the given
          extra delay — the copy carries a genuine MAC and bypasses the
          FIFO clamp, so protocols must deduplicate *)

type node

type t

val create :
  engine:Engine.t -> topo:Topology.t -> mac_keys:string array array -> t
(** Reliable FIFO authenticated links, like the prototype's TCP.
    [mac_keys.(i).(j)] must be defined for all pairs (symmetric layout). *)

val create_lossy :
  loss:float -> engine:Engine.t -> topo:Topology.t ->
  mac_keys:string array array -> t
(** Unreliable, reordering datagram links losing each frame with
    probability [loss]; reliability, FIFO order and authentication are
    restored by a per-pair {!Swlink} sliding-window endpoint — the paper's
    planned TCP replacement, carrying the whole protocol stack. *)

val meter : t -> int -> Cost.meter
(** Node [i]'s virtual-CPU meter. *)

val set_handler : t -> int -> (src:int -> string -> unit) -> unit
(** Install node [i]'s message handler (one per node). *)

val set_intercept : t -> (src:int -> dst:int -> string -> action) -> unit
(** Install the network adversary.  It sees every protocol-plane frame,
    loopbacks included, so schedules that count frames are unchanged. *)

val crash : t -> int -> unit
(** Silence a node until {!recover}: it neither sends nor processes, and
    the {!inject}ed calls it has not started are lost. *)

val recover : t -> int -> unit
(** Undo {!crash}: the node resumes sending and processing.  Messages that
    arrived while it was down are lost (dropped at arrival time); frames
    queued before the crash are processed on wake-up. *)

val send : t -> src:int -> dst:int -> string -> unit
(** Transmit bytes.  Inside a handler the message departs when the charged
    computation completes; outside, immediately.  Every send allocates a
    causal flow id from the engine (traced or not); with a sink installed
    it also emits a ["msg"] flow-start record whose ["cause"] argument is
    the message being handled, plus ["xmit"]/["recv"] instants as the
    bytes leave the CPU and arrive. *)

val inject : ?cause:int -> t -> int -> (unit -> unit) -> unit
(** Queue an application action (a client request) as a step on node
    [i]'s virtual CPU, behind all work queued there: one made inside a
    running step starts when that step's charged computation ends.  It
    charges the meter and flushes sends like a handler; a {!crash} before
    it starts drops it.  [cause] (default -1 = none) names the causal flow
    id that triggered it, so records emitted inside it join the trace DAG. *)

(** {2 The storage plane}

    The second instance of the node's plane model, modelling a dedicated
    storage core and a separate transfer connection: its own CPU meter,
    busy clock, inbox, send counters, FIFO clamp and latency jitter
    stream.  Durability
    traffic (checkpoint shares, snapshot transfer) rides here so that a
    durable run shares {e no} schedule-bearing resource with the protocol
    plane — neither the protocol meter nor the protocol latency stream is
    touched — which keeps its delivery schedule byte-identical to a
    non-durable run at the same seed.  The plane is authenticated with the
    same per-pair MACs but is modelled reliable: the adversary intercept
    and lossy-datagram mode apply to the protocol plane only; Byzantine
    storage-plane {e content} is rejected end-to-end by certificate
    verification, not at the link. *)

val set_oob_handler : t -> int -> (src:int -> string -> unit) -> unit
(** Install node [i]'s storage-plane message handler (one per node). *)

val send_oob : t -> src:int -> dst:int -> string -> unit
(** Transmit bytes on the storage plane.  Departs immediately (the
    protocol thread's handoff to the storage core is modelled free);
    latency is drawn from the plane's own jitter stream and arrival obeys
    the plane's own per-pair FIFO order.  Crashed senders and receivers
    drop the message, and a sink records the same ["msg"], ["xmit"] and
    ["recv"] records, as on the protocol plane. *)

val oob_meter : t -> int -> Cost.meter
(** Node [i]'s storage-core meter.  Work done inside a storage-plane
    handler is charged here automatically; synchronous storage work done
    from protocol handlers should charge here too and then call
    {!oob_advance}. *)

val oob_advance : t -> int -> unit
(** Fold cost accrued on the storage meter outside a storage handler
    (e.g. log appends triggered by a delivered round) into the storage
    core's busy clock, so later storage-plane messages queue behind it.
    No-op when the meter holds no pending cost. *)

val mac_failures : t -> int
(** Count of messages dropped by link-authentication failure. *)

val trace_ctx : t -> int -> Trace.Ctx.t
(** Node [i]'s tracing context (bound to the engine's sink and clock). *)

val publish_metrics : t -> unit
(** Dump per-node and per-link message/byte/CPU/exponentiation counters
    into the engine's metrics registry, with each node's link HMACs
    computed ([p<i>/net.macs]: tags it sent plus tags it checked, on both
    planes) and its loopback frames ([p<i>/net.loopback_msgs]).
    Idempotent. *)
