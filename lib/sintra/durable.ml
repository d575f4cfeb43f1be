(* The durability controller: one per party and channel, binding the
   deterministic store (lib/store) to the atomic broadcast channel.

   Three jobs:

   1. WAL.  Every delivered round is appended to the device through the
      channel's round hook — the decided batch exactly as agreed on the
      wire — so a restart replays the delivery sequence byte for byte.
      Replayed tail rounds are NOT trusted from disk: each batch is
      re-validated through the channel's signature checks
      (Atomic_channel.adopt_round), so a tampered disk can at worst lose
      data, never forge it.  The CRC catches accidents; the signatures
      catch malice.

   2. Checkpoints.  Every [interval] rounds each party digests its
      canonical channel state (Abc_core.encode_state — identical
      bytes at every honest party), threshold-signs the statement
      (pid, round, digest) with its agreement-quorum key, and broadcasts
      the share.  n-t valid shares assemble into a certificate no
      coalition of t parties can forge.  A stable checkpoint compacts the
      log (snapshot record + history since) and garbage-collects the
      channel's in-memory DECIDED backlog below it.

   3. Snapshots.  A straggler whose catch-up REQUEST (the channel's; the
      controller itself never asks) reaches below the GC floor is served
      the latest certificate plus state blob on the storage plane; the
      receiver re-digests the blob, verifies the certificate, and only
      then installs the state, after which its channel asks for the tail.
      A bad snapshot from a Byzantine peer is flagged and dropped. *)

type stats = {
  mutable checkpoints : int;
  mutable snapshots_served : int;
  mutable snapshots_adopted : int;
  mutable replayed_rounds : int;
  mutable restored_from : int;
}

type t = {
  rt : Runtime.t;
  base_pid : string;          (* the channel's pid: names the statement *)
  dpid : string;              (* our own network pid *)
  chan : Atomic_channel.t;
  dev : Store.Device.t;
  interval : int;
  pub : Tsig.public;
  charge : Charge.t;
      (* the storage core's charging context (rt.store_charge): durability
         work never lands on the protocol CPU meter *)
  drbg : Hashes.Drbg.t;
      (* own randomness stream, forked from the party's: checkpoint share
         blinding must not consume protocol randomness, or a durable run's
         protocol schedule would diverge from a non-durable one *)
  (* cp round -> (state blob, digest, signed statement) for checkpoints we
     computed ourselves *)
  pending : (int, string * string * string) Hashtbl.t;
  (* cp round -> signer -> share (verified lazily, through the cache) *)
  shares : (int, (int, Tsig.share) Hashtbl.t) Hashtbl.t;
  (* dst -> stable round last served, to avoid re-sending one snapshot *)
  served : (int, int) Hashtbl.t;
  mutable stable : Store.Checkpoint.t option;
  mutable stable_state : string;
  mutable init_hwm : int;
      (* the highest round we ever INITed, from the log's [Init] records
         and the channel's log_init; -1 before the first *)
  stats : stats;
}

type msg =
  | Cp_share of int * Tsig.share
  | Snap of Store.Checkpoint.t * string

let enc_msg (b : Wire.Enc.t) (m : msg) : unit =
  match m with
  | Cp_share (round, share) ->
    Wire.Enc.u8 b 0;
    Wire.Enc.int b round;
    Tsig.enc_share b share
  | Snap (cp, state) ->
    Wire.Enc.u8 b 1;
    Store.Checkpoint.enc b cp;
    Wire.Enc.bytes b state

let dec_msg (d : Wire.Dec.t) : msg =
  match Wire.Dec.u8 d with
  | 0 ->
    let round = Wire.Dec.int d in
    let share = Tsig.dec_share d in
    Cp_share (round, share)
  | 1 ->
    let cp = Store.Checkpoint.dec d in
    let state = Wire.Dec.bytes d in
    Snap (cp, state)
  | tag -> Wire.fail "durable: unknown tag %d" tag

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace
let core (t : t) : Abc_core.t = Atomic_channel.core t.chan

let stable_round (t : t) : int =
  match t.stable with Some cp -> cp.Store.Checkpoint.round | None -> 0

let gauges (t : t) : unit =
  let tr = trace t in
  Trace.Ctx.gauge tr "store.log_bytes" (float_of_int (Store.Device.size t.dev));
  Trace.Ctx.gauge tr "store.ckpt_rounds" (float_of_int (stable_round t));
  Trace.Ctx.gauge tr "store.backlog"
    (float_of_int (Abc_core.backlog_rounds (core t)))

(* Rewrite the device to [Snapshot; Init water-mark; rounds >= cp]. *)
let compact (t : t) (cp : Store.Checkpoint.t) (state : string) : unit =
  let rp = Store.Log.replay t.dev in
  let rounds =
    List.filter
      (function
        | Store.Log.Round { round; _ } -> round >= cp.Store.Checkpoint.round
        | _ -> false)
      rp.Store.Log.records
  in
  let hwm =
    if t.init_hwm >= 0 then [ Store.Log.Init { round = t.init_hwm } ] else []
  in
  let records =
    (Store.Log.Snapshot { checkpoint = cp; state } :: hwm) @ rounds
  in
  let bytes = Store.Log.rewrite t.dev records in
  Charge.store_append t.charge ~bytes

let stabilize (t : t) (cp : Store.Checkpoint.t) (state : string) : unit =
  t.stable <- Some cp;
  t.stable_state <- state;
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  compact t cp state;
  (* GC with one interval of slack below the stable round (PBFT's high/low
     water marks): a transiently-lagging party is then caught up by DECIDED
     round replay — which re-delivers the payloads its application missed —
     rather than a snapshot, which would skip them. *)
  Abc_core.gc_below (core t)
    ~round:(max 0 (cp.Store.Checkpoint.round - t.interval));
  (* Our pid never unregisters: checkpoint GC is when its prepared
     statements go. *)
  Runtime.forget_statements t.rt ~pid:t.dpid;
  List.iter
    (fun r ->
      if r <= cp.Store.Checkpoint.round then begin
        Hashtbl.remove t.pending r;
        Hashtbl.remove t.shares r
      end)
    (Det.keys t.pending ~compare:Det.by_int);
  List.iter
    (fun r -> if r <= cp.Store.Checkpoint.round then Hashtbl.remove t.shares r)
    (Det.keys t.shares ~compare:Det.by_int);
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.span_end tr ~pid:t.dpid ~cat:"store"
      ~args:[ ("round", Trace.Event.Int cp.Store.Checkpoint.round) ]
      (Printf.sprintf "checkpoint %d" cp.Store.Checkpoint.round);
  gauges t

(* Try to assemble a certificate for a checkpoint we computed: batch-verify
   the collected shares (cached ones cost a probe), assemble n-t of them,
   and check the result before trusting it. *)
let try_stable (t : t) (round : int) : unit =
  if round > stable_round t then
    match Hashtbl.find_opt t.pending round with
    | None -> ()
    | Some (state, digest, stmt) ->
      (match Hashtbl.find_opt t.shares round with
       | None -> ()
       | Some by_signer ->
         let entries = Det.bindings by_signer ~compare:Det.by_int in
         let shares = List.map snd entries in
         let k = Tsig.k t.pub in
         if List.length shares >= k then begin
           let ok =
             Verify.tsig_shares ~charge:t.charge t.rt ~pub:t.pub ~ctx:t.dpid
               stmt shares
           in
           let valid =
             List.filteri (fun i _ -> ok.(i)) shares |> List.filteri (fun i _ -> i < k)
           in
           if List.length valid >= k then begin
             Charge.tsig_assemble t.charge ~k;
             let cert = Tsig.assemble t.pub ~ctx:t.dpid stmt valid in
             if
               Verify.tsig_signature ~charge:t.charge t.rt ~pub:t.pub
                 ~ctx:t.dpid ~signature:cert stmt
             then stabilize t { Store.Checkpoint.round; digest; cert } state
           end
         end)

(* Open a checkpoint at [cp_round] = the channel's current base: digest the
   canonical state, sign our share, broadcast it (the broadcast includes
   ourselves, so our own share arrives through the same handler). *)
let begin_checkpoint (t : t) ~(cp_round : int) : unit =
  let state = Abc_core.encode_state (core t) in
  Charge.hash t.charge ~bytes:(String.length state);
  let digest = Hashes.Sha256.digest state in
  let stmt =
    Store.Checkpoint.statement ~pid:t.base_pid ~round:cp_round ~digest
  in
  Hashtbl.replace t.pending cp_round (state, digest, stmt);
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.span_begin tr ~pid:t.dpid ~cat:"store"
      ~args:[ ("round", Trace.Event.Int cp_round) ]
      (Printf.sprintf "checkpoint %d" cp_round);
  Charge.tsig_release t.charge;
  let share =
    Runtime.release_share ~drbg:t.drbg t.rt t.rt.Runtime.keys.Dealer.ag_tsig
      ~ctx:t.dpid stmt
  in
  Runtime.broadcast_store t.rt ~pid:t.dpid
    (Wire.encode (fun b -> enc_msg b (Cp_share (cp_round, share))));
  (* Shares from faster parties may have arrived before we reached the
     round; they were parked and can be judged now. *)
  try_stable t cp_round

let on_round (t : t) ~(round : int) ~(batch : string) : unit =
  let bytes = Store.Log.append t.dev (Store.Log.Round { round; batch }) in
  Charge.store_append t.charge ~bytes;
  gauges t;
  if t.interval > 0 && (round + 1) mod t.interval = 0 then
    begin_checkpoint t ~cp_round:(round + 1);
  (* The round hook runs inside a protocol handler: fold the storage
     work just charged into the storage core's busy clock. *)
  Sim.Net.oob_advance t.rt.Runtime.net t.rt.Runtime.me

(* Serve the latest stable snapshot to a straggler whose needed history is
   below the GC floor; at most once per (party, stable round). *)
let serve_snapshot (t : t) ~(dst : int) : unit =
  match t.stable with
  | None -> ()
  | Some cp ->
    let r = cp.Store.Checkpoint.round in
    if Hashtbl.find_opt t.served dst <> Some r then begin
      Hashtbl.replace t.served dst r;
      t.stats.snapshots_served <- t.stats.snapshots_served + 1;
      let tr = trace t in
      if Trace.Ctx.enabled tr then
        Trace.Ctx.instant tr ~pid:t.dpid ~cat:"store"
          ~args:
            [ ("dst", Trace.Event.Int dst); ("round", Trace.Event.Int r) ]
          "snapshot_serve";
      Runtime.send_store t.rt ~dst ~pid:t.dpid
        (Wire.encode (fun b -> enc_msg b (Snap (cp, t.stable_state))));
      (* serve_snapshot fires from the channel's protocol-plane backlog
         service: flush the transfer cost onto the storage core. *)
      Sim.Net.oob_advance t.rt.Runtime.net t.rt.Runtime.me
    end

(* Verify a snapshot before trusting it — wherever it came from (a peer or
   our own disk): the state blob must hash to the certified digest and the
   certificate must verify under the agreement-quorum public key.  This is
   the Byzantine-safety core: no single replica's word (or disk) is ever
   adopted unverified. *)
let snapshot_valid (t : t) (cp : Store.Checkpoint.t) (state : string) : bool =
  Charge.hash t.charge ~bytes:(String.length state);
  let digest = Hashes.Sha256.digest state in
  String.equal digest cp.Store.Checkpoint.digest
  && begin
    let stmt =
      Store.Checkpoint.statement ~pid:t.base_pid
        ~round:cp.Store.Checkpoint.round ~digest
    in
    Verify.tsig_signature ~charge:t.charge t.rt ~pub:t.pub ~ctx:t.dpid
      ~signature:cp.Store.Checkpoint.cert stmt
  end

let adopt_snapshot (t : t) ~(src : int) (cp : Store.Checkpoint.t)
    (state : string) : unit =
  if cp.Store.Checkpoint.round > Atomic_channel.current_round t.chan then begin
    if not (snapshot_valid t cp state) then
      Invariant.flag t.rt.Runtime.inv ~offender:src
        (Printf.sprintf "durable %s: invalid snapshot for round %d" t.base_pid
           cp.Store.Checkpoint.round)
    else if Abc_core.install_state (core t) state then begin
      t.stable <- Some cp;
      t.stable_state <- state;
      compact t cp state;
      Abc_core.gc_below (core t) ~round:cp.Store.Checkpoint.round;
      Runtime.forget_statements t.rt ~pid:t.dpid;
      t.stats.snapshots_adopted <- t.stats.snapshots_adopted + 1;
      let tr = trace t in
      if Trace.Ctx.enabled tr then
        Trace.Ctx.instant tr ~pid:t.dpid ~cat:"store"
          ~args:
            [ ("src", Trace.Event.Int src);
              ("round", Trace.Event.Int cp.Store.Checkpoint.round) ]
          "snapshot_adopt";
      gauges t
    end
  end

let handle (t : t) ~(src : int) (body : string) : unit =
  match Wire.decode body dec_msg with
  | None -> ()
  | Some m ->
    Invariant.sender_in_range t.rt.Runtime.inv src;
    Runtime.handling t.rt ~pid:t.dpid ~cat:"store"
      (match m with
       | Cp_share _ -> "cp_share"
       | Snap _ -> "snap");
    (match m with
     | Cp_share (round, share) ->
       (* Park the share (bounded lead) and judge it lazily: verification
          needs the statement, which needs our own state at that round. *)
       if
         round > stable_round t
         && round <= stable_round t + (4 * max 1 t.interval)
         && Tsig.share_origin share = src + 1
       then begin
         let by_signer =
           match Hashtbl.find_opt t.shares round with
           | Some m -> m
           | None ->
             let m = Hashtbl.create 8 in
             Hashtbl.add t.shares round m;
             m
         in
         if not (Hashtbl.mem by_signer src) then begin
           Hashtbl.add by_signer src share;
           try_stable t round
         end
       end
     | Snap (cp, state) -> adopt_snapshot t ~src cp state)

(* The channel's init hook: persist a new own-INIT water-mark, the highest
   round this party ever initiated.  It is written write-ahead (before the
   INIT leaves) and read back at restore to bar re-initiating rounds a
   pre-crash INIT may already cover — a second INIT for the same round is
   equivocation in every peer's eyes. *)
let log_init (t : t) ~(round : int) : unit =
  if round > t.init_hwm then begin
    t.init_hwm <- round;
    let bytes = Store.Log.append t.dev (Store.Log.Init { round }) in
    Charge.store_append t.charge ~bytes;
    gauges t;
    Sim.Net.oob_advance t.rt.Runtime.net t.rt.Runtime.me
  end

(* Restore from the device at attach time.  The snapshot record (if the
   log was compacted) is verified exactly like a network snapshot; tail
   rounds re-enter through Atomic_channel.adopt_round, which re-validates
   the batch signatures.  A torn tail is tolerated (valid prefix kept); a
   snapshot that fails verification distrusts the whole device — the party
   restarts empty and fetches a snapshot from its peers instead. *)
let restore (t : t) : unit =
  let rp = Store.Log.replay t.dev in
  (match rp.Store.Log.status with
   | Store.Log.Complete -> ()
   | Store.Log.Torn off ->
     Trace.Ctx.instant (trace t) ~pid:t.dpid ~cat:"store"
       ~args:[ ("offset", Trace.Event.Int off) ]
       "store_torn_tail"
   | Store.Log.Corrupt (off, _) ->
     Trace.Ctx.instant (trace t) ~pid:t.dpid ~cat:"store"
       ~args:[ ("offset", Trace.Event.Int off) ]
       "store_corrupt");
  let distrusted = ref false in
  List.iter
    (fun r ->
      if not !distrusted then
        match r with
        | Store.Log.Snapshot { checkpoint; state } ->
          if
            snapshot_valid t checkpoint state
            && Abc_core.install_state (core t) state
          then begin
            t.stable <- Some checkpoint;
            t.stable_state <- state;
            t.stats.restored_from <- checkpoint.Store.Checkpoint.round
          end
          else distrusted := true
        | Store.Log.Round { round; batch } ->
          let before = Atomic_channel.current_round t.chan in
          Atomic_channel.adopt_round t.chan ~round ~batch;
          if Atomic_channel.current_round t.chan > before then
            t.stats.replayed_rounds <-
              t.stats.replayed_rounds + (Atomic_channel.current_round t.chan - before)
        | Store.Log.Init { round } -> t.init_hwm <- max t.init_hwm round)
    rp.Store.Log.records;
  if !distrusted then begin
    ignore (Store.Log.rewrite t.dev []);
    t.stable <- None;
    t.stable_state <- "";
    t.stats.restored_from <- -1;
    Trace.Ctx.instant (trace t) ~pid:t.dpid ~cat:"store" "store_distrusted"
  end;
  (* Re-anchor the GC floor at whatever we restored: history below it is
     covered by the (verified) snapshot, not the backlog. *)
  (match t.stable with
   | Some cp -> Abc_core.gc_below (core t) ~round:cp.Store.Checkpoint.round
   | None -> ());
  gauges t

let attach (rt : Runtime.t) ~(chan : Atomic_channel.t) ~(pid : string)
    ~(dev : Store.Device.t) ?(interval = 256) () : t =
  let t =
    {
      rt;
      base_pid = pid;
      dpid = pid ^ "!dur";
      chan;
      dev;
      interval;
      pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.ag_tsig;
      charge = rt.Runtime.store_charge;
      drbg = Hashes.Drbg.fork rt.Runtime.drbg (pid ^ "!store");
      pending = Hashtbl.create 4;
      shares = Hashtbl.create 4;
      served = Hashtbl.create 4;
      stable = None;
      stable_state = "";
      init_hwm = -1;
      stats =
        {
          checkpoints = 0;
          snapshots_served = 0;
          snapshots_adopted = 0;
          replayed_rounds = 0;
          restored_from = -1;
        };
    }
  in
  Runtime.register_store rt ~pid:t.dpid (fun ~src body -> handle t ~src body);
  restore t;
  (* The one registration, after the restore: the channel logs each
     delivered round and, write-ahead, each own INIT; it bars self-INITs
     at or below the restored water-mark, since a pre-crash INIT may still
     be in flight; and a REQUEST from below the GC floor is served a
     snapshot. *)
  Abc_core.set_durability (core t)
    { Abc_core.log_round = on_round t; serve_snapshot = serve_snapshot t;
      log_init = log_init t; init_floor = t.init_hwm + 1 };
  (* Restore ran synchronously (attach or rebuild hook): its cost belongs
     to the storage core, not the protocol CPU.  A rebuilt channel asks
     for what it missed once the rebuild is over, from the base the
     restore reached. *)
  Sim.Net.oob_advance rt.Runtime.net rt.Runtime.me;
  t

let device (t : t) : Store.Device.t = t.dev
let stable_checkpoint (t : t) : Store.Checkpoint.t option = t.stable
let checkpoints (t : t) : int = t.stats.checkpoints
let snapshots_served (t : t) : int = t.stats.snapshots_served
let snapshots_adopted (t : t) : int = t.stats.snapshots_adopted
let replayed_rounds (t : t) : int = t.stats.replayed_rounds
let restored_from (t : t) : int = t.stats.restored_from
