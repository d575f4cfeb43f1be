(* The atomic broadcast channel (Section 2.5): Chandra-Toueg-style rounds of
   multi-valued Byzantine agreement on batches of signed messages.

   Every round r agrees on a *batch of payload vectors* (the paper proposes
   whole queues of undelivered payloads per round; HoneyBadgerBFT calls the
   same lever "batching" and shows it is what turns agreement latency into
   throughput):
   - each party signs the vector of its locally-queued undelivered
     payloads — capped at the adaptive batch limit, at most
     [Config.max_batch] — together with r, and sends this INIT to everyone;
     one RSA signature covers the whole vector, so per-round crypto cost is
     amortized over every payload in it.  A party with nothing of its own
     to send adopts (and re-signs) the undelivered payloads it has seen in
     this round's INITs; failing that it signs an empty vector, which keeps
     the round from stalling without spinning up rounds of its own;
   - once a party holds INITs from B = batch_size distinct signers (and a
     vote quorum of n-t, which is guaranteed to arrive) it proposes that
     batch of vectors to the round's multi-valued agreement, whose external
     validity checks all B signatures, that the signers are distinct and
     that no vector exceeds the cap — so at least B - t vectors come from
     honest parties, which yields the fairness property;
   - the decided batch's union of payloads is delivered in one round in a
     deterministic order (by original sender, then sequence number),
     skipping duplicates — identical bytes decide at every party, so the
     union order is identical everywhere.

   Payloads are identified by (original sender, per-sender sequence number),
   exactly the weakened integrity the paper adopts for practicality.

   Pipelining: up to [Config.pipeline_depth] rounds run their agreements
   concurrently.  [base] is the next round to deliver; rounds in the window
   [base, base + w) may be INITed and proposed while earlier rounds are
   still undecided, each round carrying a disjoint chunk of the local queue
   (an own payload is assigned to exactly one in-flight round at a time).
   Decisions can land out of order; a decided round parks in the reorder
   buffer ([decided_batches] entries at or beyond [base]) until every
   earlier round has delivered, so delivery order — and hence the paper's
   total-order obligation — is exactly the sequential protocol's.  With
   [pipeline_depth = 1] the window is one round and the channel reproduces
   the strictly sequential protocol.

   Batching adapts: the per-round vector cap self-tunes by AIMD on the
   observed queue depth — additive increase while the backlog exceeds the
   cap, halving when the backlog falls below a quarter of it — between a
   floor of [min 8 max_batch] and the [max_batch] ceiling, so with
   [max_batch <= 8] the cap is pinned at [max_batch].  With
   [max_batch = 1] each vector carries at most one payload and the channel
   degrades to the original one-payload-per-party rounds (the benchmarks'
   --no-batching baseline).

   Termination: [close] broadcasts a termination request as a regular
   payload; the channel closes after the round in which t+1 distinct
   parties' requests have been delivered (so it terminates iff at least one
   honest party asked).

   Catch-up: a party whose round-r agreement messages were delayed past the
   point where its peers garbage-collected the round-r instance can never
   finish round r through the agreement itself.  (The schedule explorer
   found exactly this: delay one link long enough and the victim stalls
   forever, losing its own payloads.)  Three extra message kinds repair it:
   - REQUEST(r): broadcast when we see a validly signed INIT for a round
     beyond our window — proof that someone delivered our base round;
   - DECIDED(r, batch): sent point-to-point in reply to a REQUEST or to a
     stale INIT, carrying the whole batch we decided in round r (catch-up
     moves whole batches, never single payloads);
   - a straggler adopts a batch for any undelivered round once t+1 distinct
     parties claim the same one — any t+1 set contains an honest party, so
     the batch really is the round's decision and agreement is preserved
     without re-verifying its signatures.  Adopted rounds beyond [base]
     park in the reorder buffer like any other decision, so a rebuilt party
     can absorb a whole backlog while its own window is still open. *)

type item = {
  it_orig : int;          (* original sender, 0-based *)
  it_seq : int;           (* per-original-sender sequence number *)
  it_payload : string;
}

(* One party's signed payload vector for a round: what an INIT carries and
   what the agreed batch is made of. *)
type entry = {
  en_signer : int;
  en_items : item list;   (* at most [Config.max_batch] *)
  en_sig : string;        (* one signature over the whole vector *)
}

type t = {
  rt : Runtime.t;
  pid : string;
  on_deliver : sender:int -> string -> unit;
  on_close : unit -> unit;
  (* outgoing queue of this party's own payloads *)
  queue : (int * string) Queue.t;               (* seq, marked payload *)
  mutable next_seq : int;
  mutable base : int;                  (* next round to deliver, in order *)
  (* round -> signer -> (arrival rank, entry); the rank (table size at
     insertion) reproduces the paper's behaviour of considering messages in
     the order they arrive in the current round *)
  inits : (int, (int, int * entry) Hashtbl.t) Hashtbl.t;
  delivered : (int * int, unit) Hashtbl.t;          (* (orig, seq) *)
  term_requests : (int, unit) Hashtbl.t;            (* parties asking to close *)
  my_init : (int, entry) Hashtbl.t;         (* round -> our own INIT *)
  mvbas : (int, Array_agreement.t) Hashtbl.t;      (* open, per in-flight round *)
  past_mvba : (int, Array_agreement.t) Hashtbl.t;  (* delivered, awaiting GC *)
  proposed_rounds : (int, unit) Hashtbl.t;  (* rounds we proposed a batch for *)
  mutable cur_batch : int;         (* adaptive per-round vector cap *)
  mutable parked : int;            (* decided-but-undelivered rounds *)
  mutable closing : bool;                            (* close requested here *)
  mutable closed : bool;
  mutable deliveries : int;
  mutable rounds_completed : int;
  (* Backpressure: while the gate is closed this party neither INITs nor
     proposes for any in-window round.  Models a consumer that has not yet
     drained the channel's outputs (the paper: "if the outputs are not
     removed ... the channel will stall"). *)
  mutable gate : unit -> bool;
  enqueued_at : (int, float) Hashtbl.t;   (* seq -> enqueue virtual time *)
  (* Catch-up state.  [decided_batches] keeps decided batches down to
     [floor] so we can serve stragglers; entries at or beyond [base] double
     as the reorder buffer.  Without a durability layer the floor stays at
     0 and the backlog is unbounded; with one ({!Durable}), [gc_below]
     raises the floor to the latest stable checkpoint and stragglers
     further behind are served a signed snapshot instead ([catchup_miss]).
     [claims] tallies DECIDED messages for rounds we have not finished:
     round -> batch -> claiming senders. *)
  decided_batches : (int, string) Hashtbl.t;
  mutable floor : int;           (* lowest round still in decided_batches *)
  claims : (int, (string, (int, unit) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  mutable requested_for : int;   (* highest future round that triggered a REQUEST *)
  (* Durability hooks: [round_hook] fires after each round is delivered and
     the window slides (WAL append); [catchup_miss] fires when a straggler
     asks for history below [floor] (snapshot state transfer). *)
  mutable round_hook : (round:int -> batch:string -> unit) option;
  mutable catchup_miss : (dst:int -> unit) option;
  (* Crash-recovery discipline for our own INITs.  [init_hook] fires
     write-ahead — before the INIT for a round first leaves this party —
     so a durability layer can persist the round number; [init_floor] bars
     self-INITs below it.  A restarted party must never re-initiate a
     round it may already have initiated pre-crash: the old INIT can still
     be in flight, and a second one with different content is
     equivocation, indistinguishable from Byzantine behaviour to every
     peer.  Rounds below the floor still complete — the other n-1 parties
     INIT and propose them; we merely abstain from initiating. *)
  mutable init_hook : (round:int -> unit) option;
  mutable init_floor : int;
}

let tag_init = 0
let tag_decided = 1
let tag_request = 2

(* DECIDED batches sent per stale INIT or REQUEST; the straggler re-INITs
   (or re-REQUESTs) as it advances, so a small window still converges. *)
let catchup_window = 8

(* Future-round DECIDED claims kept at most this far ahead, bounding what a
   Byzantine flood can make us store. *)
let max_claim_lead = 256

(* AIMD parameters for the adaptive vector cap: grow by [adaptive_step]
   while the backlog exceeds the cap, halve when it falls below a quarter
   of it, never below the floor. *)
let adaptive_step = 8

(* Batch-occupancy and queue-depth buckets: payload counts, not latencies. *)
let count_buckets =
  [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

(* Payload framing: 0x01 = application payload, 0x00 = termination request. *)
let frame_payload (s : string) : string = "\x01" ^ s
let frame_term : string = "\x00"

let enc_item (b : Wire.Enc.t) (it : item) : unit =
  Wire.Enc.int b it.it_orig;
  Wire.Enc.int b it.it_seq;
  Wire.Enc.bytes b it.it_payload

let dec_item (d : Wire.Dec.t) : item =
  let it_orig = Wire.Dec.int d in
  let it_seq = Wire.Dec.int d in
  let it_payload = Wire.Dec.bytes d in
  { it_orig; it_seq; it_payload }

let enc_entry (b : Wire.Enc.t) (en : entry) : unit =
  Wire.Enc.int b en.en_signer;
  Wire.Enc.list b enc_item en.en_items;
  Wire.Enc.bytes b en.en_sig

let dec_entry (d : Wire.Dec.t) : entry =
  let en_signer = Wire.Dec.int d in
  let en_items = Wire.Dec.list d dec_item in
  let en_sig = Wire.Dec.bytes d in
  { en_signer; en_items; en_sig }

(* The signed statement: one signature binds the round, the signer and a
   digest of the whole payload vector — per-round crypto cost is constant
   in the vector length. *)
let init_stmt (t : t) ~(round : int) ~(signer : int) (items : item list) : string =
  let encoded = Wire.encode (fun b -> Wire.Enc.list b enc_item items) in
  Charge.hash t.rt.Runtime.charge ~bytes:(String.length encoded);
  let digest = Hashes.Sha256.digest encoded in
  Printf.sprintf "abc-init|%s|%d|%d|%s" t.pid round signer digest

let mvba_pid (t : t) (round : int) : string = Printf.sprintf "%s/mv.%d" t.pid round

(* The in-flight window: rounds [base, base + window) may run concurrently. *)
let window (t : t) : int = t.rt.Runtime.cfg.Config.pipeline_depth

let batch_floor (t : t) : int = min adaptive_step t.rt.Runtime.cfg.Config.max_batch

(* How deep the agreement pipeline currently runs: proposed, undecided
   rounds inside the window. *)
let inflight_rounds (t : t) : int =
  let count = ref 0 in
  for r = t.base to t.base + window t - 1 do
    if Hashtbl.mem t.proposed_rounds r && not (Hashtbl.mem t.decided_batches r)
    then incr count
  done;
  !count

let entry_signature_valid (t : t) ~(round : int) (en : entry) : bool =
  en.en_signer >= 0 && en.en_signer < t.rt.Runtime.cfg.Config.n
  && List.for_all
       (fun it ->
         it.it_orig >= 0 && it.it_orig < t.rt.Runtime.cfg.Config.n
         && it.it_seq >= 0)
       en.en_items
  && begin
    Charge.rsa_verify t.rt.Runtime.charge;
    Crypto.Rsa.verify t.rt.Runtime.keys.Dealer.sign_pks.(en.en_signer)
      ~ctx:t.pid ~signature:en.en_sig
      (init_stmt t ~round ~signer:en.en_signer en.en_items)
  end

(* External validity for a round's batch: B entries, distinct signers, no
   vector over the cap, all vector signatures valid for this round (one
   verification per entry, not per payload). *)
let batch_valid (t : t) ~(round : int) (batch : string) : bool =
  match Wire.decode batch (fun d -> Wire.Dec.list d dec_entry) with
  | None -> false
  | Some entries ->
    let b = t.rt.Runtime.cfg.Config.batch_size in
    List.length entries = b
    && begin
      let signers =
        List.sort_uniq compare (List.map (fun en -> en.en_signer) entries)
      in
      List.length signers = b
    end
    && List.for_all
         (fun en -> List.length en.en_items <= t.rt.Runtime.cfg.Config.max_batch)
         entries
    && List.for_all (fun en -> entry_signature_valid t ~round en) entries

(* --- tracing: queue -> agree -> deliver, one round span per round on the
   channel's thread with the agreement span nested inside it; concurrent
   rounds interleave their spans on the same lane (the Chrome sink checks
   begin/end balance, not nesting). --- *)

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let trace_phase (t : t) (name : string) (r : int) (ph : Trace.Event.phase) :
    unit =
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time:(Trace.Ctx.now tr) ~pid:t.pid ~cat:"abc" ~ph
      ~args:[ ("round", Trace.Event.Int r) ]
      (Printf.sprintf "%s %d" name r)

let round_inits (t : t) (round : int) : (int, int * entry) Hashtbl.t =
  match Hashtbl.find_opt t.inits round with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add t.inits round tbl;
    tbl

type msg =
  | Init of int * entry
  | Decided of int * string
  | Request of int

let decode_msg (body : string) : msg option =
  Wire.decode body (fun d ->
    let tag = Wire.Dec.u8 d in
    let round = Wire.Dec.int d in
    if tag = tag_init then Init (round, dec_entry d)
    else if tag = tag_decided then Decided (round, Wire.Dec.bytes d)
    else if tag = tag_request then Request round
    else Wire.fail "abc: unknown tag %d" tag)

(* Reply to a straggler with the batches it is missing, oldest first; only
   rounds already delivered here — parked decisions are served once they
   clear our own reorder buffer.  History below [floor] has been garbage
   collected under a stable checkpoint: fire [catchup_miss] so the
   durability layer can serve a signed snapshot instead, and send whatever
   retained rounds still help. *)
let send_backlog (t : t) ~(dst : int) ~(from_round : int) : unit =
  if from_round < t.floor then
    (match t.catchup_miss with Some f -> f ~dst | None -> ());
  let from_round = max from_round t.floor in
  let upto = min (from_round + catchup_window - 1) (t.base - 1) in
  for r = from_round to upto do
    match Hashtbl.find_opt t.decided_batches r with
    | Some batch ->
      Runtime.send t.rt ~dst ~pid:t.pid
        (Wire.encode (fun b ->
          Wire.Enc.u8 b tag_decided;
          Wire.Enc.int b r;
          Wire.Enc.bytes b batch))
    | None -> ()
  done

(* Sign and broadcast our INIT vector for one in-window round.  The init
   hook fires first — write-ahead — so the round number is on disk before
   the INIT can reach any peer. *)
let send_init (t : t) (round : int) (items : item list) : unit =
  (match t.init_hook with Some h -> h ~round | None -> ());
  trace_phase t "round" round Trace.Event.Span_begin;
  Charge.rsa_sign t.rt.Runtime.charge;
  let signature =
    Crypto.Rsa.sign t.rt.Runtime.keys.Dealer.sign_sk ~ctx:t.pid
      (init_stmt t ~round ~signer:t.rt.Runtime.me items)
  in
  let en = { en_signer = t.rt.Runtime.me; en_items = items; en_sig = signature } in
  Hashtbl.replace t.my_init round en;
  let body =
    Wire.encode (fun b ->
      Wire.Enc.u8 b tag_init;
      Wire.Enc.int b round;
      enc_entry b en)
  in
  Runtime.broadcast t.rt ~pid:t.pid body

(* Drop the delivered prefix so the queue never regrows past deliveries. *)
let trim_queue (t : t) : unit =
  let rec trim () =
    match Queue.peek_opt t.queue with
    | Some (seq, _) when Hashtbl.mem t.delivered (t.rt.Runtime.me, seq) ->
      ignore (Queue.pop t.queue);
      trim ()
    | Some _ | None -> ()
  in
  trim ()

(* After a state-losing rebuild our early sequence numbers can collide with
   pre-crash history adopted through catch-up: the old payload owns the
   (party, seq) identity, so a queued payload reusing that seq would be
   silently treated as delivered and lost.  When a delivered own item
   reveals such a clash, renumber the whole undelivered queue past the
   adopted history (relative order — and so FIFO — is preserved; any
   in-flight vector still carrying the stale identity deduplicates away at
   delivery). *)
let heal_seq_collision (t : t) (it : item) : unit =
  let me = t.rt.Runtime.me in
  let clash =
    Queue.fold
      (fun acc (seq, framed) ->
        acc || (seq = it.it_seq && not (String.equal framed it.it_payload)))
      false t.queue
  in
  if clash then begin
    let entries = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.queue) in
    Queue.clear t.queue;
    List.iter
      (fun (old_seq, framed) ->
        while Hashtbl.mem t.delivered (me, t.next_seq) do
          t.next_seq <- t.next_seq + 1
        done;
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        Queue.push (seq, framed) t.queue;
        match Hashtbl.find_opt t.enqueued_at old_seq with
        | Some t0 ->
          Hashtbl.remove t.enqueued_at old_seq;
          Hashtbl.replace t.enqueued_at seq t0
        | None -> ())
      entries
  end

(* AIMD self-tuning of the vector cap from the observed backlog. *)
let adapt_batch (t : t) (depth : int) : unit =
  let cur = t.cur_batch in
  let next =
    if depth > cur then
      min t.rt.Runtime.cfg.Config.max_batch (cur + adaptive_step)
    else if depth * 4 < cur then max (batch_floor t) (cur / 2)
    else cur
  in
  if next <> cur then begin
    t.cur_batch <- next;
    Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.batch_limit"
      (float_of_int next)
  end

(* The undelivered prefix of our own queue, up to the current adaptive cap.
   Every in-flight round's vector is such a prefix — never a disjoint
   chunk — which is what preserves per-sender FIFO order under pipelining:
   a batch can only carry our payload s together with (or after the
   delivery of) every earlier payload, whichever rounds our vectors end up
   riding in.  Concurrent rounds deduplicate the overlap at delivery. *)
let own_items (t : t) : item list =
  let cap = t.cur_batch in
  trim_queue t;
  let items = ref [] in
  let count = ref 0 in
  (try
     Queue.iter
       (fun (seq, payload) ->
         if !count >= cap then raise Exit;
         if not (Hashtbl.mem t.delivered (t.rt.Runtime.me, seq)) then begin
           items :=
             { it_orig = t.rt.Runtime.me; it_seq = seq; it_payload = payload }
             :: !items;
           incr count
         end)
       t.queue
   with Exit -> ());
  List.rev !items

(* The highest own sequence number riding in any open INIT of ours; fresh
   payloads beyond it are what justify opening a deeper pipeline round. *)
let own_hwm (t : t) : int =
  Det.fold t.my_init ~compare:Det.by_int
    (fun _ en acc ->
      List.fold_left
        (fun acc it ->
          if it.it_orig = t.rt.Runtime.me && it.it_seq > acc then it.it_seq
          else acc)
        acc en.en_items)
    (-1)

(* Is there an undelivered own payload no open INIT of ours carries yet? *)
let has_fresh_items (t : t) : bool =
  let hwm = own_hwm t in
  let fresh = ref false in
  (try
     Queue.iter
       (fun (seq, _) ->
         if seq > hwm && not (Hashtbl.mem t.delivered (t.rt.Runtime.me, seq))
         then begin
           fresh := true;
           raise Exit
         end)
       t.queue
   with Exit -> ());
  !fresh

(* Undelivered payloads seen in one round's INITs, in arrival order and
   capped — what an empty-queue party adopts so that slow parties' payloads
   appear in more than one vector (the fairness lever). *)
let adoptable_items (t : t) (round : int) : item list =
  let cap = t.cur_batch in
  let tbl = round_inits t round in
  let entries = Det.values tbl ~compare:Det.by_int in
  let entries = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) entries in
  let chosen = Hashtbl.create 8 in
  let items = ref [] in
  let count = ref 0 in
  List.iter
    (fun (_, en) ->
      List.iter
        (fun it ->
          if !count < cap
             && not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq))
             && not (Hashtbl.mem chosen (it.it_orig, it.it_seq))
          then begin
            Hashtbl.replace chosen (it.it_orig, it.it_seq) ();
            items := it :: !items;
            incr count
          end)
        en.en_items)
    entries;
  List.rev !items

(* Anti-spin, generalized per in-window round: INIT round r only when we
   have fresh payloads no open INIT of ours carries yet (new content
   justifies a deeper pipeline round), or someone else already started
   round r — then we join it, with our undelivered prefix if we have one,
   adopting their undelivered payloads or contributing an empty vector
   otherwise.  Never start a round unprompted, or idle parties would spin
   empty (or redundant) rounds forever. *)
let rec try_send_init_round (t : t) (round : int) : unit =
  if not t.closed && t.gate () && round >= t.base && round < t.base + window t
     && round >= t.init_floor
     && not (Hashtbl.mem t.my_init round)
  then begin
    trim_queue t;
    let depth = Queue.length t.queue in
    if depth > 0 then adapt_batch t depth;
    let joined = Hashtbl.length (round_inits t round) > 0 in
    if has_fresh_items t || joined then begin
      match own_items t with
      | _ :: _ as items ->
        Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.queue_depth"
          (float_of_int (Queue.length t.queue));
        send_init t round items
      | [] -> if joined then send_init t round (adoptable_items t round)
    end
  end

and try_send_inits (t : t) : unit =
  for r = t.base to t.base + window t - 1 do
    try_send_init_round t r
  done

and try_propose_round (t : t) (round : int) : unit =
  if not t.closed && round >= t.base && round < t.base + window t
     && not (Hashtbl.mem t.proposed_rounds round)
     && Hashtbl.mem t.my_init round
  then begin
    let tbl = round_inits t round in
    (* Include our own INIT in the pool. *)
    (match Hashtbl.find_opt t.my_init round with
     | Some en ->
       if not (Hashtbl.mem tbl en.en_signer) then
         Hashtbl.replace tbl en.en_signer (Hashtbl.length tbl, en)
     | None -> ());
    let b = t.rt.Runtime.cfg.Config.batch_size in
    (* Wait for INITs from n-t distinct signers (guaranteed to arrive, since
       every honest party signs or adopts) before choosing the batch: the
       extra signers usually contribute *distinct* payloads from slower
       hosts, which is what fills the paper's 0-second band in Figures 4-5
       with messages from P2/AIX and P3/Win2k. *)
    let need = max b (Config.vote_quorum t.rt.Runtime.cfg) in
    if Hashtbl.length tbl >= need then begin
      (* Batch selection: walk the INIT vectors in arrival order and prefer
         those contributing at least one payload not already covered, so
         the union usually carries every queued message in the pool; fall
         back to redundant vectors from distinct signers only when short. *)
      let entries = Det.values tbl ~compare:Det.by_int in
      let entries = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) entries in
      let entries = List.map snd entries in
      let covered = Hashtbl.create 16 in
      let contributes (en : entry) : bool =
        List.exists
          (fun it ->
            not (Hashtbl.mem covered (it.it_orig, it.it_seq))
            && not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)))
          en.en_items
      in
      let cover (en : entry) : unit =
        List.iter
          (fun it -> Hashtbl.replace covered (it.it_orig, it.it_seq) ())
          en.en_items
      in
      let primary, rest =
        List.partition
          (fun en ->
            if contributes en then begin
              cover en;
              true
            end
            else false)
          entries
      in
      let batch = List.filteri (fun i _ -> i < b) (primary @ rest) in
      let encoded = Wire.encode (fun b -> Wire.Enc.list b enc_entry batch) in
      Hashtbl.replace t.proposed_rounds round ();
      trace_phase t "agree" round Trace.Event.Span_begin;
      let mvba =
        match Hashtbl.find_opt t.mvbas round with
        | Some m -> m
        | None ->
          let m =
            Array_agreement.create t.rt ~pid:(mvba_pid t round)
              ~validator:(fun batch -> batch_valid t ~round batch)
              ~on_decide:(fun decided -> round_decided t round decided)
          in
          Hashtbl.replace t.mvbas round m;
          m
      in
      Array_agreement.propose mvba encoded;
      Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.inflight_rounds"
        (float_of_int (inflight_rounds t))
    end
  end

and try_propose_all (t : t) : unit =
  for r = t.base to t.base + window t - 1 do
    try_propose_round t r
  done

(* A round decided — through its own agreement or a claims quorum.  Park
   the batch in the reorder buffer and deliver whatever prefix is ready:
   out-of-order decisions wait here until every earlier round has
   delivered, which is all it takes to keep total order. *)
and round_decided (t : t) (round : int) (batch : string) : unit =
  if (not t.closed) && round >= t.base
     && not (Hashtbl.mem t.decided_batches round)
  then begin
    Hashtbl.replace t.decided_batches round batch;
    t.parked <- t.parked + 1;
    if Hashtbl.mem t.proposed_rounds round then
      trace_phase t "agree" round Trace.Event.Span_end;
    Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.reorder_depth"
      (float_of_int t.parked);
    advance t
  end

(* Deliver decided rounds in round order from the reorder buffer, opening
   the window one round at a time; after each delivery give the freed
   window slot a chance to INIT/propose and absorb any claims that became
   adoptable. *)
and advance (t : t) : unit =
  match Hashtbl.find_opt t.decided_batches t.base with
  | None -> ()
  | Some batch ->
    deliver_round t t.base batch;
    if not t.closed then begin
      try_send_inits t;
      try_propose_all t;
      try_adopt_claims t;
      advance t
    end

(* Deliver round [base]'s batch (union order: by original sender, then
   sequence number) and slide the window forward one round. *)
and deliver_round (t : t) (round : int) (batch : string) : unit =
  t.parked <- t.parked - 1;
  (match Wire.decode batch (fun d -> Wire.Dec.list d dec_entry) with
   | None -> ()   (* cannot happen: validator enforced the format *)
   | Some entries ->
     (* Deterministic union order: flatten every vector, sort by original
        sender then sequence number, drop duplicates.  The decided bytes
        are identical at every party, so this order is too. *)
     let items = List.concat_map (fun en -> en.en_items) entries in
     let items =
       List.sort_uniq
         (fun a b -> compare (a.it_orig, a.it_seq) (b.it_orig, b.it_seq))
         items
     in
     let fresh = ref 0 in
     List.iter
       (fun it ->
         if not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)) then begin
           Hashtbl.replace t.delivered (it.it_orig, it.it_seq) ();
           t.deliveries <- t.deliveries + 1;
           incr fresh;
           (* Own-payload end-to-end latency: enqueue -> atomic delivery
              (the per-message latency of Figures 4 and 5). *)
           if it.it_orig = t.rt.Runtime.me then begin
             heal_seq_collision t it;
             match Hashtbl.find_opt t.enqueued_at it.it_seq with
             | Some t0 ->
               Hashtbl.remove t.enqueued_at it.it_seq;
               Trace.Ctx.observe (trace t) "abc.latency" (Runtime.now t.rt -. t0)
             | None -> ()
           end;
           let tr = trace t in
           if Trace.Ctx.enabled tr then
             Trace.Ctx.instant tr ~pid:t.pid ~cat:"abc"
               ~args:
                 [ ("sender", Trace.Event.Int it.it_orig);
                   ("seq", Trace.Event.Int it.it_seq) ]
               "deliver";
           if it.it_payload = frame_term then
             Hashtbl.replace t.term_requests it.it_orig ()
           else if String.length it.it_payload >= 1 && it.it_payload.[0] = '\x01' then
             t.on_deliver ~sender:it.it_orig
               (String.sub it.it_payload 1 (String.length it.it_payload - 1))
         end)
       items;
     t.rounds_completed <- t.rounds_completed + 1;
     (* Throughput accounting: rounds, payloads carried, and how full the
        decided batches run (the batch-occupancy histogram behind the
        latency-vs-throughput crossover). *)
     Trace.Ctx.incr (trace t) "abc.rounds";
     Trace.Ctx.count (trace t) "abc.batch_payloads" (float_of_int !fresh);
     Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.batch_occupancy"
       (float_of_int !fresh));
  (* Rounds adopted through catch-up never opened a round span. *)
  if Hashtbl.mem t.my_init round then
    trace_phase t "round" round Trace.Event.Span_end;
  (* Close once t+1 distinct parties asked. *)
  if Hashtbl.length t.term_requests >= Config.one_honest t.rt.Runtime.cfg then begin
    t.closed <- true;
    Det.iter t.mvbas ~compare:Det.by_int (fun _ m -> Array_agreement.abort m);
    Hashtbl.reset t.mvbas;
    t.on_close ()
  end
  else begin
    t.base <- round + 1;
    (* Keep the delivered round's agreement registered for a grace period:
       lagging parties may still need our (already broadcast) messages
       replayed from their orphan buffers, but instances a full window
       behind the base are dead weight.  This GC is what makes catch-up
       necessary: a party whose round-r traffic was delayed past this point
       can no longer finish round r through the agreement, and recovers by
       adopting DECIDED claims instead. *)
    (match Hashtbl.find_opt t.mvbas round with
     | Some m ->
       Hashtbl.remove t.mvbas round;
       Hashtbl.replace t.past_mvba round m
     | None -> ());
    let gc = round - max 2 (window t) in
    (match Hashtbl.find_opt t.past_mvba gc with
     | Some old ->
       Array_agreement.abort old;
       Hashtbl.remove t.past_mvba gc
     | None -> ());
    Hashtbl.remove t.inits round;
    Hashtbl.remove t.my_init round;
    Hashtbl.remove t.claims round;
    Hashtbl.remove t.proposed_rounds round;
    (* The WAL hook sees the round only after the window slid, so the
       durability layer observes the post-delivery state (base = round+1).
       The closing round is not logged: a closed channel never restarts. *)
    (match t.round_hook with
     | Some f -> f ~round ~batch
     | None -> ())
  end

(* Adopt a round's batch once t+1 distinct parties claim the same one; the
   adopted decision parks in the reorder buffer like any other, so claims
   for any undelivered round — in-window or far ahead — are usable the
   moment their quorum completes. *)
and maybe_adopt_round (t : t) (round : int) : unit =
  if (not t.closed) && round >= t.base
     && not (Hashtbl.mem t.decided_batches round)
  then
    match Hashtbl.find_opt t.claims round with
    | None -> ()
    | Some by_batch ->
      let quorum = Config.one_honest t.rt.Runtime.cfg in
      let winner = ref None in
      Det.iter by_batch ~compare:String.compare (fun batch senders ->
        if !winner = None && Hashtbl.length senders >= quorum then
          winner := Some batch);
      (match !winner with
       | Some batch -> round_decided t round batch
       | None -> ())

and try_adopt_claims (t : t) : unit =
  if not t.closed then
    Det.iter t.claims ~compare:Det.by_int (fun round _ ->
      maybe_adopt_round t round)

let handle (t : t) ~src body =
  if not t.closed then begin
    match decode_msg body with
    | None -> ()
    | Some m ->
      let inv = t.rt.Runtime.inv in
      Invariant.sender_in_range inv src;
      Runtime.handling t.rt ~pid:t.pid ~cat:"abc"
        (match m with
        | Init _ -> "init"
        | Decided _ -> "decided"
        | Request _ -> "request");
      match m with
      | Init (round, en) when en.en_signer = src && round >= t.base ->
        let tbl = round_inits t round in
        (* A conflicting, validly signed INIT from a signer we already hold
           one from is Byzantine evidence — record it, drop the duplicate. *)
        (match Hashtbl.find_opt tbl src with
         | Some (_, prev)
           when Invariant.enabled inv
                && prev.en_items <> en.en_items
                && entry_signature_valid t ~round en ->
           Invariant.flag inv ~offender:src
             (Printf.sprintf "abc %s: conflicting INIT in round %d" t.pid round)
         | Some _ | None -> ());
        if not (Hashtbl.mem tbl src)
           && List.length en.en_items <= t.rt.Runtime.cfg.Config.max_batch
           && entry_signature_valid t ~round en
        then begin
          Invariant.fresh_sender inv tbl src "INIT pool";
          Hashtbl.add tbl src (Hashtbl.length tbl, en);
          (* An INIT for a round beyond our window proves its signer
             delivered our base round: ask everyone for the decided
             batches.  An INIT merely ahead of [base] is normal pipelining —
             unless our base round shows no activity at all (no INITs, no
             decision), which after a rebuild means the round is long dead
             and only catch-up can revive us. *)
          let base_dark () =
            (not (Hashtbl.mem t.decided_batches t.base))
            && (not (Hashtbl.mem t.my_init t.base))
            && (match Hashtbl.find_opt t.inits t.base with
                | Some tbl -> Hashtbl.length tbl = 0
                | None -> true)
          in
          if round > t.base && round > t.requested_for
             && (round >= t.base + window t || base_dark ())
          then begin
            t.requested_for <- round;
            Runtime.broadcast t.rt ~pid:t.pid
              (Wire.encode (fun b ->
                Wire.Enc.u8 b tag_request;
                Wire.Enc.int b t.base))
          end;
          if round < t.base + window t then begin
            try_send_init_round t round;
            try_propose_round t round
          end
        end
      | Init (round, en) when en.en_signer = src ->
        (* Stale INIT: the sender is behind — help it catch up. *)
        send_backlog t ~dst:src ~from_round:round
      | Init _ -> ()
      | Request round ->
        if round >= 0 && round < t.base then
          send_backlog t ~dst:src ~from_round:round
      | Decided (round, batch) ->
        if round >= t.base && round <= t.base + max_claim_lead then begin
          let by_batch =
            match Hashtbl.find_opt t.claims round with
            | Some m -> m
            | None ->
              let m = Hashtbl.create 4 in
              Hashtbl.add t.claims round m;
              m
          in
          (* One claim per (round, sender); a second claim with a different
             batch is Byzantine evidence. *)
          let conflicting = ref false and already = ref false in
          Det.iter by_batch ~compare:String.compare (fun b srcs ->
            if Hashtbl.mem srcs src then
              if b = batch then already := true else conflicting := true);
          if !conflicting then
            Invariant.flag inv ~offender:src
              (Printf.sprintf "abc %s: conflicting DECIDED for round %d" t.pid
                 round)
          else if not !already then begin
            let srcs =
              match Hashtbl.find_opt by_batch batch with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 4 in
                Hashtbl.add by_batch batch s;
                s
            in
            Hashtbl.replace srcs src ();
            maybe_adopt_round t round
          end
        end
  end

let create (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit)
    ?(on_close = fun () -> ()) () : t =
  let cfg = rt.Runtime.cfg in
  let t = {
    rt; pid; on_deliver; on_close;
    queue = Queue.create ();
    next_seq = 0;
    base = 0;
    inits = Hashtbl.create 16;
    delivered = Hashtbl.create 64;
    term_requests = Hashtbl.create 4;
    my_init = Hashtbl.create 16;
    mvbas = Hashtbl.create 8;
    past_mvba = Hashtbl.create 8;
    proposed_rounds = Hashtbl.create 8;
    cur_batch = min adaptive_step cfg.Config.max_batch;
    parked = 0;
    closing = false;
    closed = false;
    deliveries = 0;
    rounds_completed = 0;
    gate = (fun () -> true);
    enqueued_at = Hashtbl.create 16;
    decided_batches = Hashtbl.create 32;
    floor = 0;
    claims = Hashtbl.create 8;
    requested_for = -1;
    round_hook = None;
    catchup_miss = None;
    init_hook = None;
    init_floor = 0;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  t

let enqueue (t : t) (framed : string) : unit =
  (* A rebuilt party restarts its counter at 0 but learns its own pre-crash
     deliveries through catch-up; skip those sequence numbers, or the fresh
     payload would be mistaken for an already-delivered one and dropped. *)
  while Hashtbl.mem t.delivered (t.rt.Runtime.me, t.next_seq) do
    t.next_seq <- t.next_seq + 1
  done;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Queue.push (seq, framed) t.queue;
  Hashtbl.replace t.enqueued_at seq (Runtime.now t.rt);
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.instant tr ~pid:t.pid ~cat:"abc"
      ~args:[ ("seq", Trace.Event.Int seq) ]
      "enqueue";
  try_send_inits t;
  try_propose_all t

(* Broadcast a payload on the channel (the paper's send event). *)
let send (t : t) (payload : string) : unit =
  if t.closed then invalid_arg "Atomic_channel.send: channel closed";
  enqueue t (frame_payload payload)

(* Request channel termination (the paper's close event). *)
let close (t : t) : unit =
  if not t.closing && not t.closed then begin
    t.closing <- true;
    enqueue t frame_term
  end

let is_closed (t : t) = t.closed
let deliveries (t : t) = t.deliveries
let current_round (t : t) = t.base
let rounds_completed (t : t) = t.rounds_completed
let queue_depth (t : t) = Queue.length t.queue
let batch_limit (t : t) = t.cur_batch
let reorder_depth (t : t) = t.parked

(* --- the durability seam --- *)

let set_round_hook (t : t) (f : round:int -> batch:string -> unit) : unit =
  t.round_hook <- Some f

let set_catchup_miss (t : t) (f : dst:int -> unit) : unit =
  t.catchup_miss <- Some f

let set_init_hook (t : t) (f : round:int -> unit) : unit = t.init_hook <- Some f

let set_init_floor (t : t) ~(round : int) : unit =
  t.init_floor <- Stdlib.max t.init_floor round

let backlog_rounds (t : t) : int = Hashtbl.length t.decided_batches

let gc_floor (t : t) : int = t.floor

(* Drop retained batches strictly below [round], never past [base]: a
   parked (decided-but-undelivered) round is part of the reorder buffer
   and must survive any GC, whatever checkpoint round the caller names. *)
let gc_below (t : t) ~(round : int) : unit =
  let limit = min round t.base in
  List.iter
    (fun r -> if r < limit then Hashtbl.remove t.decided_batches r)
    (Det.keys t.decided_batches ~compare:Det.by_int);
  if limit > t.floor then t.floor <- limit

(* Re-feed one decided round from the local WAL (recovery replay).  The
   batch re-enters through the normal reorder buffer, so replaying rounds
   in log order re-delivers them in round order, byte for byte.  The disk
   is NOT trusted: the batch must carry its full complement of valid INIT
   signatures over this round number (the same external-validity predicate
   the agreement enforces), so a tampered log can lose history but never
   forge it.  The CRC catches accidents; this check catches malice. *)
let adopt_round (t : t) ~(round : int) ~(batch : string) : unit =
  if
    (not t.closed) && round >= t.base
    && (not (Hashtbl.mem t.decided_batches round))
    && batch_valid t ~round batch
  then round_decided t round batch

(* Serve a straggler's catch-up request on behalf of the durability layer
   (its snapshot-request message funnels into the same path as REQUEST). *)
let serve_backlog (t : t) ~(dst : int) ~(from_round : int) : unit =
  if from_round >= 0 && from_round < t.base then
    send_backlog t ~dst ~from_round

(* The channel state a checkpoint covers: the next round to deliver, the
   delivered (origin, seq) set as per-origin runs, and the termination
   requests seen so far.  Everything else (open agreements, claims, the
   reorder buffer) is in-flight traffic the protocol regenerates.  The
   encoding is canonical — runs are sorted — so every honest party
   checkpointing the same round produces identical bytes, which is what
   lets a threshold quorum sign one digest. *)
let encode_state (t : t) : string =
  let pairs = Det.keys t.delivered ~compare:Det.by_int_pair in
  let runs = ref [] in
  let cur = ref None in
  List.iter
    (fun (o, s) ->
      match !cur with
      | Some (co, lo, hi) when co = o && s = hi + 1 -> cur := Some (co, lo, s)
      | Some r ->
        runs := r :: !runs;
        cur := Some (o, s, s)
      | None -> cur := Some (o, s, s))
    pairs;
  (match !cur with Some r -> runs := r :: !runs | None -> ());
  let runs = List.rev !runs in
  let terms = Det.keys t.term_requests ~compare:Det.by_int in
  Wire.encode (fun b ->
    Wire.Enc.int b t.base;
    Wire.Enc.list b
      (fun b (o, lo, hi) ->
        Wire.Enc.int b o;
        Wire.Enc.int b lo;
        Wire.Enc.int b (hi - lo))
      runs;
    Wire.Enc.list b (fun b p -> Wire.Enc.int b p) terms)

(* Adopt a verified snapshot state: jump [base] forward, replace the
   delivered set and termination votes, and drop now-stale bookkeeping
   below the new base.  Refuses stale or malformed blobs — the caller has
   already verified the certificate, but the state must still move us
   strictly forward.  Queued own payloads whose sequence numbers collide
   with the adopted history are renumbered past it (same healing rule as
   post-rebuild catch-up). *)
let install_state (t : t) (state : string) : bool =
  match
    Wire.decode state (fun d ->
      let base = Wire.Dec.int d in
      let runs =
        Wire.Dec.list d (fun d ->
          let o = Wire.Dec.int d in
          let lo = Wire.Dec.int d in
          let len = Wire.Dec.int d in
          (o, lo, lo + len))
      in
      let terms = Wire.Dec.list d Wire.Dec.int in
      (base, runs, terms))
  with
  | None -> false
  | Some (base, runs, terms) ->
    let n = t.rt.Runtime.cfg.Config.n in
    if t.closed || base <= t.base
       || not
            (List.for_all
               (fun (o, lo, hi) -> o >= 0 && o < n && lo >= 0 && hi >= lo)
               runs)
       || not (List.for_all (fun p -> p >= 0 && p < n) terms)
    then false
    else begin
      Hashtbl.reset t.delivered;
      List.iter
        (fun (o, lo, hi) ->
          for s = lo to hi do
            Hashtbl.replace t.delivered (o, s) ()
          done)
        runs;
      Hashtbl.reset t.term_requests;
      List.iter (fun p -> Hashtbl.replace t.term_requests p ()) terms;
      let drop_below (type k) (tbl : (int, k) Hashtbl.t) (f : k -> unit) : unit
          =
        List.iter
          (fun r ->
            if r < base then begin
              (match Hashtbl.find_opt tbl r with Some v -> f v | None -> ());
              Hashtbl.remove tbl r
            end)
          (Det.keys tbl ~compare:Det.by_int)
      in
      List.iter
        (fun r ->
          if r < base then begin
            if r >= t.base then t.parked <- t.parked - 1;
            Hashtbl.remove t.decided_batches r
          end)
        (Det.keys t.decided_batches ~compare:Det.by_int);
      drop_below t.inits (fun _ -> ());
      drop_below t.my_init (fun _ -> ());
      drop_below t.claims (fun _ -> ());
      drop_below t.proposed_rounds (fun _ -> ());
      drop_below t.mvbas (fun m -> Array_agreement.abort m);
      drop_below t.past_mvba (fun m -> Array_agreement.abort m);
      t.base <- base;
      if base > t.floor then t.floor <- base;
      (* Renumber queued payloads shadowed by the adopted history. *)
      let me = t.rt.Runtime.me in
      let entries = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.queue) in
      Queue.clear t.queue;
      List.iter
        (fun (old_seq, framed) ->
          if Hashtbl.mem t.delivered (me, old_seq) then begin
            while Hashtbl.mem t.delivered (me, t.next_seq) do
              t.next_seq <- t.next_seq + 1
            done;
            let seq = t.next_seq in
            t.next_seq <- seq + 1;
            Queue.push (seq, framed) t.queue;
            match Hashtbl.find_opt t.enqueued_at old_seq with
            | Some t0 ->
              Hashtbl.remove t.enqueued_at old_seq;
              Hashtbl.replace t.enqueued_at seq t0
            | None -> ()
          end
          else Queue.push (old_seq, framed) t.queue)
        entries;
      (* Parked decisions at or past the new base may be deliverable now. *)
      advance t;
      if not t.closed then begin
        try_send_inits t;
        try_propose_all t;
        try_adopt_claims t
      end;
      true
    end

(* Install a backpressure gate; call {!kick} when it opens again. *)
let set_gate (t : t) (gate : unit -> bool) : unit = t.gate <- gate

let kick (t : t) : unit =
  try_send_inits t;
  try_propose_all t

let abort (t : t) : unit =
  t.closed <- true;
  Det.iter t.mvbas ~compare:Det.by_int (fun _ m -> Array_agreement.abort m);
  Hashtbl.reset t.mvbas;
  Det.iter t.past_mvba ~compare:Det.by_int (fun _ m -> Array_agreement.abort m);
  Hashtbl.reset t.past_mvba;
  Runtime.unregister t.rt ~pid:t.pid
