(** The per-party protocol runtime: multiplexes the single authenticated
    network endpoint among protocol instances, which register by protocol
    identifier (the paper's [pid]).

    Messages for an unregistered pid are buffered (bounded per pid) and
    replayed asynchronously on registration: instances are created lazily at
    different times at different parties, and early messages from faster
    parties must not be lost. *)

type t = {
  me : int;
  cfg : Config.t;
  keys : Dealer.party_keys;
  net : Sim.Net.t;
  engine : Sim.Engine.t;
  drbg : Hashes.Drbg.t;
  charge : Charge.t;
  store_charge : Charge.t;
  (** Charging context bound to the storage core's meter
      ({!Sim.Net.oob_meter}): all durability work — log appends, checkpoint
      crypto, snapshot verification — charges here, never to the protocol
      CPU, so durable runs keep the protocol schedule byte-identical. *)
  inv : Invariant.t;
  trace : Trace.Ctx.t;
  handlers : (string, src:int -> string -> unit) Hashtbl.t;
  store_handlers : (string, src:int -> string -> unit) Hashtbl.t;
  orphans : (string, (int * string * int) Queue.t) Hashtbl.t;
  mutable rebuild : (unit -> unit) list;
  mutable after_rebuild : (unit -> unit) list option;
  (** While {!recover}'s rebuild hooks run: the actions queued by
      {!after_rebuild}, newest first; [None] otherwise. *)
  cache : Crypto.Share_cache.t;
  (** Verified shares, grouped by protocol instance (pid): {!unregister}
      evicts the pid's group, {!crash} clears everything — the cache is
      volatile and can never outlive the state it summarizes. *)
  stmts : Crypto.Stmt_table.t;
  (** Prepared threshold-signature statements ({!statement}), with the
      cache's lifecycle: grouped by pid, evicted by {!unregister}, cleared
      by {!crash}, and bounded. *)
}

val create :
  engine:Sim.Engine.t -> net:Sim.Net.t -> cfg:Config.t ->
  keys:Dealer.party_keys -> t
(** One party's runtime, wired to its network endpoint; installs the
    frame-dispatch handler on creation. *)

val register : t -> pid:string -> (src:int -> string -> unit) -> unit
(** @raise Invalid_argument on a duplicate pid. *)

val unregister : t -> pid:string -> unit
(** Remove a pid's handler; later messages for it are buffered again.  The
    pid's cached shares and prepared statements go with it. *)

val statement :
  t -> pub:Tsig.public -> ctx:string -> string -> Crypto.Rsa.stmt
(** The threshold-signature statement [(ctx, msg)] prepared for [pub],
    from the party's statement table: hashed on the first release or check
    while the instance [ctx] lives, reused by every later one.  The lookup
    compares the full [(ctx, msg)], so the result is exactly a fresh
    {!Crypto.Rsa.prepare}'s.  A [ctx] that never unregisters needs its
    owner to call {!forget_statements}; statements of a pid this party
    never runs (a peer's closing, checked in catch-up) stay until the
    table's bound empties it. *)

val release_share :
  ?drbg:Hashes.Drbg.t -> t -> Tsig.secret -> ctx:string -> string -> Tsig.share
(** Our share on [(ctx, msg)] from {!statement}'s prepared form, drawing
    from [drbg] (default: the party's).  A multi-signature share is valid
    by construction, so it is recorded on the statement's known list
    ({!Crypto.Stmt_table.learn}): {!Verify} accepts it back, alone or as
    a part, without an RSA check.  The caller charges the release. *)

val forget_statements : t -> pid:string -> unit
(** Evict the prepared statements of [pid] — for an owner whose pid never
    unregisters ({!Durable}'s, at checkpoint GC). *)

val handling : t -> pid:string -> cat:string -> string -> unit
(** Emit an ["h.<kind>"] instant tagging the message currently being
    dispatched with its decoded protocol kind (e.g. ["echo"]), so the
    causal analyzer can label the hop.  No-op outside a causal dispatch
    or when tracing is off. *)

val send : t -> dst:int -> pid:string -> string -> unit
(** Send a protocol message body to one party. *)

val broadcast : t -> pid:string -> string -> unit
(** Send to every party including ourselves (self-delivery goes through the
    network, keeping protocol code uniform). *)

val register_store : t -> pid:string -> (src:int -> string -> unit) -> unit
(** Register a durability endpoint on the storage plane.  Unlike
    {!register} there is no orphan buffering: an endpoint solicits peer
    traffic only after registering, so frames for an unknown pid are
    dropped.
    @raise Invalid_argument on a duplicate pid. *)

val send_store : t -> dst:int -> pid:string -> string -> unit
(** Send a storage-plane message body to one party, out-of-band
    ({!Sim.Net.send_oob}): no protocol-plane resource is touched. *)

val broadcast_store : t -> pid:string -> string -> unit
(** {!send_store} to every party including ourselves. *)

val now : t -> float
(** Current virtual time at this party. *)

val on_rebuild : t -> (unit -> unit) -> unit
(** Register a durable-state reconstruction hook, run (in registration
    order, on the party's virtual CPU) when {!recover} is called after a
    {!crash}.  Typically re-creates protocol instances from persisted
    application state. *)

val rebuilding : t -> bool
(** Whether {!recover}'s rebuild hooks are running. *)

val after_rebuild : t -> (unit -> unit) -> unit
(** Inside a rebuild, run [f] once every {!on_rebuild} hook has run, in
    the same step on the party's virtual CPU, so what [f] sends departs
    after the whole rebuild's charged work.  Outside a rebuild, do
    nothing: a fresh start has nothing to recover. *)

val crash : t -> unit
(** Power-fail this party: it stops sending and processing at the network
    layer, and all volatile protocol state (registered handlers, buffered
    orphans, the share cache and the statement table) is discarded. *)

val recover : t -> unit
(** Restart a crashed party: the network endpoint resumes and the
    {!on_rebuild} hooks run to reconstruct protocol instances.  Messages
    that arrived during the outage are lost. *)
