(* The per-party protocol runtime: multiplexes the single authenticated
   network endpoint among protocol instances, which register by protocol
   identifier (the paper's [pid]).

   Messages for a pid with no registered handler yet are buffered ("orphan"
   messages) and replayed on registration — protocol instances are created
   lazily and asynchronously at different parties, so early messages from
   faster parties must not be lost.  The buffer is bounded per pid so a
   corrupted party cannot exhaust memory. *)

type t = {
  me : int;
  cfg : Config.t;
  keys : Dealer.party_keys;
  net : Sim.Net.t;
  engine : Sim.Engine.t;
  drbg : Hashes.Drbg.t;
  charge : Charge.t;
  store_charge : Charge.t;
      (* charges land on the storage core's meter, not the protocol CPU *)
  inv : Invariant.t;
  trace : Trace.Ctx.t;
  handlers : (string, src:int -> string -> unit) Hashtbl.t;
  store_handlers : (string, src:int -> string -> unit) Hashtbl.t;
  orphans : (string, (int * string * int) Queue.t) Hashtbl.t;
      (* src, body, causal flow id at buffering time *)
  mutable rebuild : (unit -> unit) list;   (* newest first *)
  mutable after_rebuild : (unit -> unit) list option;
      (* while the rebuild hooks run: what runs after them, newest first *)
  cache : Crypto.Share_cache.t;
      (* verified shares, grouped by pid; volatile (cleared on crash),
         a pid's group is evicted when the instance unregisters *)
  stmts : Crypto.Stmt_table.t;
      (* prepared threshold-signature statements, same lifecycle *)
}

let orphan_cap_per_pid = 4096

(* Bound on prepared statements per party.  Fault-free runs keep a few
   hundred live across all parties; the bound only matters against a
   stream of statements for instances that never unregister here. *)
let stmt_cap = 1024

(* Emit the "msg" flow-end closing a causal edge: the dispatched message's
   id is the context's current cause (installed by the network layer), and
   the envelope pid names the protocol stage the analyzer attributes the
   hop to. *)
let dispatched (trace : Trace.Ctx.t) ~(pid : string) : unit =
  if Trace.Ctx.enabled trace then begin
    let id = Trace.Ctx.cause trace in
    if id >= 0 then
      Trace.Ctx.emit_at trace ~time:(Trace.Ctx.now trace) ~pid ~cat:"net"
        ~ph:Trace.Event.Flow_end
        ~args:[ ("id", Trace.Event.Int id) ]
        "msg"
  end

let envelope ~(pid : string) (body : string) : string =
  Wire.encode (fun b ->
    Wire.Enc.bytes b pid;
    Wire.Enc.bytes b body)

(* The pid and body of an [envelope]; [None] for a malformed frame, which
   both planes drop, as a real server would. *)
let open_envelope (payload : string) : (string * string) option =
  Wire.decode payload (fun d ->
    let pid = Wire.Dec.bytes d in
    let body = Wire.Dec.bytes d in
    (pid, body))

let create ~(engine : Sim.Engine.t) ~(net : Sim.Net.t) ~(cfg : Config.t)
    ~(keys : Dealer.party_keys) : t =
  let me = keys.Dealer.index in
  let inv = Invariant.create cfg in
  let trace = Sim.Net.trace_ctx net me in
  let rt = {
    me;
    cfg;
    keys;
    net;
    engine;
    drbg = Hashes.Drbg.fork (Sim.Engine.drbg engine) (Printf.sprintf "party-%d" me);
    charge = { Charge.meter = Sim.Net.meter net me; cfg; trace };
    store_charge = { Charge.meter = Sim.Net.oob_meter net me; cfg; trace };
    inv;
    trace;
    handlers = Hashtbl.create 64;
    store_handlers = Hashtbl.create 8;
    orphans = Hashtbl.create 64;
    rebuild = [];
    after_rebuild = None;
    cache = Crypto.Share_cache.create ~cap:cfg.Config.share_cache_cap;
    stmts = Crypto.Stmt_table.create ~cap:stmt_cap;
  }
  in
  Sim.Net.set_handler net me (fun ~src payload ->
    Sim.Cost.per_message rt.charge.Charge.meter ~bytes:(String.length payload);
    match open_envelope payload with
    | None -> ()
    | Some (pid, body) ->
      (match Hashtbl.find_opt rt.handlers pid with
       | Some h ->
         dispatched rt.trace ~pid;
         h ~src body
       | None ->
         let q =
           match Hashtbl.find_opt rt.orphans pid with
           | Some q -> q
           | None ->
             let q = Queue.create () in
             Hashtbl.add rt.orphans pid q;
             q
         in
         if Queue.length q < orphan_cap_per_pid then begin
           Queue.push (src, body, Trace.Ctx.cause rt.trace) q;
           Trace.Ctx.incr rt.trace "runtime.orphans_buffered"
         end
         else begin
           Trace.Ctx.incr rt.trace "runtime.dropped_orphans";
           Trace.Ctx.instant rt.trace ~pid ~cat:"runtime"
             ~level:Trace.Event.Warn
             ~args:[ ("src", Trace.Event.Int src) ]
             "orphan_dropped"
         end));
  (* Storage-plane dispatcher: same envelope format and flow-end record,
     costs charged to the storage core's meter.  No orphan buffering — a
     durability endpoint solicits peer traffic only after registering (it
     broadcasts its snapshot request from [Durable.attach]), so an unknown
     pid here means a stale or hostile frame and is dropped. *)
  Sim.Net.set_oob_handler net me (fun ~src payload ->
    Sim.Cost.per_message rt.store_charge.Charge.meter
      ~bytes:(String.length payload);
    match open_envelope payload with
    | None -> ()
    | Some (pid, body) ->
      (match Hashtbl.find_opt rt.store_handlers pid with
       | Some h ->
         dispatched rt.trace ~pid;
         h ~src body
       | None -> ()));
  rt

let register (rt : t) ~(pid : string) (h : src:int -> string -> unit) : unit =
  if Hashtbl.mem rt.handlers pid then
    invalid_arg (Printf.sprintf "Runtime.register: duplicate pid %S" pid);
  Hashtbl.replace rt.handlers pid h;
  (* Replay buffered messages for this pid, preserving arrival order.  The
     replay runs asynchronously on the party's virtual CPU so that (a) the
     instance being constructed is complete before callbacks fire and
     (b) the handling cost is charged like any other message. *)
  match Hashtbl.find_opt rt.orphans pid with
  | None -> ()
  | Some q ->
    Hashtbl.remove rt.orphans pid;
    Sim.Net.inject rt.net rt.me (fun () ->
      Queue.iter
        (fun (src, body, cause) ->
          match Hashtbl.find_opt rt.handlers pid with
          (* lint: allow poly-compare — intentional physical identity check:
             replay must target exactly the handler closure that buffered the
             orphans, not a successor registered under the same pid. *)
          | Some h' when h' == h ->
            (* Restore the buffering-time cause so the replayed dispatch —
               and everything the handler emits — keeps its causal edge. *)
            Trace.Ctx.set_cause rt.trace cause;
            dispatched rt.trace ~pid;
            h ~src body
          | Some _ | None -> ())
        q;
      Trace.Ctx.set_cause rt.trace (-1))

let unregister (rt : t) ~(pid : string) : unit =
  Hashtbl.remove rt.handlers pid;
  (* The instance is gone: its cached verification state must go with it,
     so a replayed frame arriving after GC cannot resurrect it. *)
  Crypto.Share_cache.evict_group rt.cache pid;
  Crypto.Stmt_table.evict_group rt.stmts pid

(* The threshold-signature statement [(ctx, msg)] under [pub], hashed at
   most once while the instance [ctx] lives: every Tsig release and check
   a protocol makes on it reuses the first preparation.  A pid that never
   unregisters has its owner call [forget_statements]; closings checked
   for a peer's instance stay until [stmt_cap] empties the table. *)
let statement (rt : t) ~(pub : Tsig.public) ~(ctx : string) (msg : string)
    : Crypto.Rsa.stmt =
  Crypto.Stmt_table.find rt.stmts ~nbytes:(Tsig.modulus_bytes pub) ~ctx msg

(* Release our threshold-signature share on [(ctx, msg)] from the
   prepared statement.  A multi-signature share is an RSA-FDH signature,
   valid by construction, so it goes on the statement's known list: when
   it comes back — our own echo or vote, or a part of a signature
   assembled from it — the check is answered without an exponentiation.
   The caller charges [Charge.tsig_release]. *)
let release_share ?drbg (rt : t) (sec : Tsig.secret) ~(ctx : string) (msg : string)
    : Tsig.share =
  let drbg = Option.value drbg ~default:rt.drbg in
  let pub = Tsig.public_of_secret sec in
  (* lint: allow charge-coverage — priced at every caller of release_share *)
  let share = Tsig.release_stmt ~drbg sec (statement rt ~pub ~ctx msg) in
  (match sec, share with
   | Tsig.Multi_sec (p, _), Tsig.Multi_share s ->
     Crypto.Stmt_table.learn rt.stmts ~ctx msg
       ~key:p.Crypto.Multi_sig.party_keys.(s.Crypto.Multi_sig.origin - 1)
       s.Crypto.Multi_sig.signature
   | _ -> ());
  share

let forget_statements (rt : t) ~(pid : string) : unit =
  Crypto.Stmt_table.evict_group rt.stmts pid

(* Tag the in-flight dispatch with its decoded protocol message kind, so
   the causal analyzer can label the hop ("vcbc.echo", "aba.coinshare"…).
   A no-op outside a causal dispatch or without a sink. *)
let handling (rt : t) ~(pid : string) ~(cat : string) (kind : string) : unit =
  if Trace.Ctx.enabled rt.trace && Trace.Ctx.cause rt.trace >= 0 then
    Trace.Ctx.instant rt.trace ~pid ~cat ("h." ^ kind)

let send (rt : t) ~(dst : int) ~(pid : string) (body : string) : unit =
  Sim.Net.send rt.net ~src:rt.me ~dst (envelope ~pid body)

(* Send to every party, including ourselves: self-delivery goes through the
   network, keeping the protocol code uniform.  The loopback frame carries
   no link MAC, but it still draws a latency from the topology, which is
   negligible only on the Internet topology (1 us).  The LAN topology
   charges a jittered 0.2 ms hop, the combined topology the same for
   every same-site pair, self included, and [Topology.uniform] a full
   jittered link latency.  One loopback rule for every topology waits for
   ROADMAP item 6, because it moves virtual time. *)
let broadcast (rt : t) ~(pid : string) (body : string) : unit =
  let payload = envelope ~pid body in
  for dst = 0 to rt.cfg.Config.n - 1 do
    Sim.Net.send rt.net ~src:rt.me ~dst payload
  done

(* The storage plane: registration and sends for durability endpoints.
   Messages travel out-of-band (see {!Sim.Net.send_oob}) so durable runs
   never perturb the protocol plane's schedule. *)

let register_store (rt : t) ~(pid : string) (h : src:int -> string -> unit)
    : unit =
  if Hashtbl.mem rt.store_handlers pid then
    invalid_arg (Printf.sprintf "Runtime.register_store: duplicate pid %S" pid);
  Hashtbl.replace rt.store_handlers pid h

let send_store (rt : t) ~(dst : int) ~(pid : string) (body : string) : unit =
  Sim.Net.send_oob rt.net ~src:rt.me ~dst (envelope ~pid body)

let broadcast_store (rt : t) ~(pid : string) (body : string) : unit =
  let payload = envelope ~pid body in
  for dst = 0 to rt.cfg.Config.n - 1 do
    Sim.Net.send_oob rt.net ~src:rt.me ~dst payload
  done

let now (rt : t) : float = Sim.Engine.now rt.engine

(* Crash/recovery.  A crash models a power failure: the party stops sending
   and processing (at the network layer) and loses all volatile protocol
   state — registered handlers and buffered orphans.  Durable state is
   whatever the application chooses to rebuild on recovery: [on_rebuild]
   registers a hook (e.g. "re-create my atomic channel instance") that runs
   on the party's virtual CPU when [recover] is called, so reconstruction
   cost is charged like any other computation. *)

let on_rebuild (rt : t) (f : unit -> unit) : unit =
  rt.rebuild <- f :: rt.rebuild

let rebuilding (rt : t) : bool = Option.is_some rt.after_rebuild

let after_rebuild (rt : t) (f : unit -> unit) : unit =
  match rt.after_rebuild with
  | Some fs -> rt.after_rebuild <- Some (f :: fs)
  | None -> ()

let crash (rt : t) : unit =
  Sim.Net.crash rt.net rt.me;
  Hashtbl.reset rt.handlers;
  Hashtbl.reset rt.store_handlers;
  Hashtbl.reset rt.orphans;
  Crypto.Share_cache.clear rt.cache;
  Crypto.Stmt_table.clear rt.stmts;
  Trace.Ctx.instant rt.trace ~pid:"runtime" ~cat:"runtime"
    ~level:Trace.Event.Warn "crash"

let recover (rt : t) : unit =
  Sim.Net.recover rt.net rt.me;
  Trace.Ctx.instant rt.trace ~pid:"runtime" ~cat:"runtime"
    ~level:Trace.Event.Warn "recover";
  let hooks = List.rev rt.rebuild in
  if hooks <> [] then
    Sim.Net.inject rt.net rt.me (fun () ->
      rt.after_rebuild <- Some [];
      List.iter (fun f -> f ()) hooks;
      let after = Option.value rt.after_rebuild ~default:[] in
      rt.after_rebuild <- None;
      List.iter (fun f -> f ()) (List.rev after))
