(* The atomic broadcast channel (Section 2.5): Chandra-Toueg-style rounds of
   multi-valued Byzantine agreement on batches of signed messages.

   Every round r agrees on a *batch of payload vectors* (the paper proposes
   whole queues of undelivered payloads per round; HoneyBadgerBFT calls the
   same lever "batching" and shows it is what turns agreement latency into
   throughput):
   - each party signs the vector of its locally-queued undelivered
     payloads — capped at [Config.max_batch] — together with r, and sends
     this INIT to everyone;
     one RSA signature covers the whole vector, so per-round crypto cost is
     amortized over every payload in it.  A party with nothing of its own
     to send adopts (and re-signs) the undelivered payloads it has seen in
     this round's INITs; failing that it signs an empty vector, which keeps
     the round from stalling without spinning up rounds of its own;
   - once a party holds INITs from B = batch_size distinct signers (and a
     vote quorum of n-t, which is guaranteed to arrive) it proposes B of
     them, those carrying a payload the last delivered round left out
     first, to the round's multi-valued agreement, whose external
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
   still undecided, each round's own vector a prefix of the pending own
   payloads (see [own_items]).
   Decisions can land out of order; a decided round parks in the reorder
   buffer ([decided_batches] entries at or beyond [base]) until every
   earlier round has delivered, so delivery order — and hence the paper's
   total-order obligation — is exactly the sequential protocol's.  With
   [pipeline_depth = 1] the window is one round and the channel reproduces
   the strictly sequential protocol.
   The default window is 2.  Every round in flight costs every party a
   full round of signatures and frames and re-carries the pending
   prefix, so once the virtual CPUs are busy a deeper window buys
   queueing, not capacity.  At 4 the benchmark's virtual CPUs ran
   saturated, and a depth sweep put 4 behind 1, 2 and 3 on median
   latency and on saturation throughput; 2 is the one depth that beat 4
   on every point measured (EXPERIMENTS.md, "Round pipelining").  Rounds
   deliver in order, so no round of the window may stay un-INITed below
   one we start ([init_below]).

   One cap: every vector carries its pending prefix up to [max_batch].
   One signature covers a vector whatever its length, and hashing and wire
   bytes scale with the payloads it carries, so a lower cap only holds a
   backlog back (EXPERIMENTS.md, "One batch cap").  With [max_batch = 1]
   each vector carries at most one payload and the channel degrades to the
   original one-payload-per-party rounds (the benchmarks' --no-batching
   baseline).

   Termination: [close] broadcasts a termination request as a regular
   payload; the channel closes after the round in which t+1 distinct
   parties' requests have been delivered (so it terminates iff at least one
   honest party asked).

   Catch-up: a party whose round-r agreement messages were delayed past the
   point where its peers garbage-collected the round-r instance can never
   finish round r through the agreement itself.  (The schedule explorer
   found exactly this: delay one link long enough and the victim stalls
   forever, losing its own payloads.)  Catch-up repairs it, and the
   channel is the only party that asks for it:
   - REQUEST(base), broadcast by [request] on evidence in peers' traffic
     that our base round went on without us (a validly signed INIT beyond
     our window, once per base and then as t+1 signers move on, or one
     ahead of a base round with no activity at all; a later round
     deciding here while we never proposed in the base round)
     and on our own progress (the end of a rebuild, a snapshot install,
     each catch-up window of base progress made by adopted claims), since
     a quiet cluster sends no traffic that would make a rebuilt party ask;
   - DECIDED(r, batch): sent point-to-point only in reply to a REQUEST,
     carrying the whole batch we decided in round r (catch-up moves whole
     batches, never single payloads), at most a window of rounds per
     reply; a request from below the GC floor also fires the durability
     layer's snapshot service ([catchup_miss]).  A stale INIT is dropped:
     its sender either finishes the round through the agreement's grace
     period or asks with a REQUEST;
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

(* One own payload in the ledger: queued here and not yet delivered.  Its
   seq moves only when a renumber gives it a fresh one; its enqueue time,
   which the latency histogram reads at delivery, never moves. *)
type own = {
  mutable seq : int;
  mutable init_round : int;
      (* the lowest round whose INIT of ours carried it under [seq], or
         [max_int] *)
  framed : string;        (* the payload with its frame byte *)
  enqueued : float;       (* virtual time of [enqueue] *)
}

(* Everything the channel keeps for one undelivered round; [drop_rounds]
   removes it in one step. *)
type round = {
  (* signer -> (arrival rank, entry); the rank (pool size at insertion)
     reproduces the paper's behaviour of considering messages in the order
     they arrive in the current round *)
  pool : (int, int * entry) Hashtbl.t;
  mutable mine : entry option;                 (* our own INIT *)
  mutable proposed : bool;                     (* we proposed a batch *)
  claims : (int, string) Hashtbl.t;            (* DECIDED: sender -> batch *)
  mutable mvba : Array_agreement.t option;     (* the round's open agreement *)
}

type t = {
  rt : Runtime.t;
  pid : string;
  on_deliver : sender:int -> string -> unit;
  on_round_end : unit -> unit;    (* after each round's [on_deliver] calls *)
  on_close : unit -> unit;
  (* The own-payload ledger, in send order: every payload of ours still
     pending.  A payload leaves it when delivered, so no entry's seq is
     ever in [delivered]. *)
  pending : own Queue.t;
  mutable next_seq : int;
  mutable base : int;                  (* next round to deliver, in order *)
  rounds : (int, round) Hashtbl.t;     (* undelivered rounds we hold state for *)
  delivered : (int * int, unit) Hashtbl.t;          (* (orig, seq) *)
  term_requests : (int, unit) Hashtbl.t;            (* parties asking to close *)
  past_mvba : (int, Array_agreement.t) Hashtbl.t;  (* delivered, awaiting GC *)
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
  (* Catch-up state.  [decided_batches] keeps decided batches down to
     [floor] so we can serve stragglers; entries at or beyond [base] double
     as the reorder buffer.  Without a durability layer the floor stays at
     0 and the backlog is unbounded; with one ({!Durable}), [gc_below]
     raises the floor to the latest stable checkpoint and stragglers
     further behind are served a signed snapshot instead ([catchup_miss]). *)
  decided_batches : (int, string) Hashtbl.t;
  mutable floor : int;           (* lowest round still in decided_batches *)
  mutable requested_for : int;   (* highest later round that triggered a REQUEST *)
  ahead : int array;             (* per signer: its highest INIT round
                                    beyond our window *)
  mutable behind_at : int;       (* [base] when such an INIT last asked *)
  mutable pulled_at : int;       (* [base] when we last sent a REQUEST *)
  (* Starved-first batch selection: the payloads that sat in the pooled
     INITs of the round last delivered but were not delivered by it.  It
     is rebuilt from that one round's pool at each delivery, so it never
     holds more than n * max_batch entries. *)
  missed : (int * int, unit) Hashtbl.t;
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
     INIT and propose them; we merely abstain from initiating, and keep our
     own payloads out of every INIT until [base] reaches the floor. *)
  mutable init_hook : (round:int -> unit) option;
  mutable init_floor : int;
}

let tag_init = 0
let tag_decided = 1
let tag_request = 2

(* DECIDED batches sent per REQUEST; the straggler re-REQUESTs as it
   advances, so a small window still converges. *)
let catchup_window = 8

(* Future-round INITs and DECIDED claims kept at most this far ahead,
   bounding what a Byzantine flood can make us store. *)
let max_claim_lead = 256

(* Batch-occupancy and queue-depth buckets: payload counts, not latencies. *)
let count_buckets =
  [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

(* Wait buckets: rounds a payload waited, one bucket per round where the
   tail lives. *)
let wait_buckets = [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 8.; 12.; 16.; 32.; 64. |]

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

(* A round's record, created on first use. *)
let round_state (t : t) (r : int) : round =
  match Hashtbl.find_opt t.rounds r with
  | Some rd -> rd
  | None ->
    let rd =
      { pool = Hashtbl.create 8; mine = None; proposed = false;
        claims = Hashtbl.create 4; mvba = None }
    in
    Hashtbl.add t.rounds r rd;
    rd

let my_init (t : t) (r : int) : entry option =
  match Hashtbl.find_opt t.rounds r with Some rd -> rd.mine | None -> None

let proposed (t : t) (r : int) : bool =
  match Hashtbl.find_opt t.rounds r with Some rd -> rd.proposed | None -> false

(* The one place a round's state is dropped: every round below [below]
   leaves [rounds] in one step, and its open agreement is aborted — or,
   with [~retire], kept registered in [past_mvba] for a grace period
   ([expire_agreements] ends it). *)
let drop_rounds (t : t) ~(below : int) ~(retire : bool) : unit =
  Det.iter t.rounds ~compare:Det.by_int (fun r rd ->
    if r < below then begin
      Hashtbl.remove t.rounds r;
      match rd.mvba with
      | Some m when retire -> Hashtbl.replace t.past_mvba r m
      | Some m -> Array_agreement.abort m
      | None -> ()
    end)

(* Abort the retired agreements of rounds below [below]. *)
let expire_agreements (t : t) ~(below : int) : unit =
  Det.iter t.past_mvba ~compare:Det.by_int (fun r m ->
    if r < below then begin
      Array_agreement.abort m;
      Hashtbl.remove t.past_mvba r
    end)

(* How deep the agreement pipeline currently runs: proposed, undecided
   rounds inside the window. *)
let inflight_rounds (t : t) : int =
  let count = ref 0 in
  for r = t.base to t.base + window t - 1 do
    if proposed t r && not (Hashtbl.mem t.decided_batches r) then incr count
  done;
  !count

(* The length of the vector encoding [init_stmt] hashes, from the varint
   sizes alone. *)
let items_encoded_length (items : item list) : int =
  List.fold_left
    (fun acc it ->
      let len = String.length it.it_payload in
      acc + Wire.Enc.int_length it.it_orig + Wire.Enc.int_length it.it_seq
      + Wire.Enc.int_length len + len)
    (Wire.Enc.int_length (List.length items)) items

let item_equal (a : item) (b : item) : bool =
  a.it_orig = b.it_orig && a.it_seq = b.it_seq && String.equal a.it_payload b.it_payload

(* Whether [en] is, byte for byte, the INIT pooled for its signer in
   [round].  An INIT enters the pool only after passing
   [entry_signature_valid] (or is our own, signed here), and that check is
   a pure function of (pid, round, signer, items, signature), so an exact
   match answers it without the RSA verification. *)
let pooled_init (t : t) ~(round : int) (en : entry) : bool =
  match Hashtbl.find_opt t.rounds round with
  | None -> false
  | Some rd ->
    (match Hashtbl.find_opt rd.pool en.en_signer with
     | Some (_, pooled) ->
       String.equal pooled.en_sig en.en_sig
       && List.equal item_equal pooled.en_items en.en_items
     | None -> false)

(* Each party verifies an INIT signature once: the MVBA validity checks of
   every proposal carrying it reuse the pooled verification.  A reuse is
   charged exactly as the verification it replaces (RSA, then the vector
   hash), so virtual time does not depend on the pool; the registry counts
   what really ran. *)
let entry_signature_valid (t : t) ~(round : int) (en : entry) : bool =
  en.en_signer >= 0 && en.en_signer < t.rt.Runtime.cfg.Config.n
  && List.for_all
       (fun it ->
         it.it_orig >= 0 && it.it_orig < t.rt.Runtime.cfg.Config.n
         && it.it_seq >= 0)
       en.en_items
  && begin
    Charge.rsa_verify t.rt.Runtime.charge;
    if pooled_init t ~round en then begin
      Charge.hash t.rt.Runtime.charge ~bytes:(items_encoded_length en.en_items);
      Trace.Ctx.incr t.rt.Runtime.trace "abc.init_sig_reused";
      true
    end
    else begin
      Trace.Ctx.incr t.rt.Runtime.trace "abc.init_sig_verified";
      Crypto.Rsa.verify t.rt.Runtime.keys.Dealer.sign_pks.(en.en_signer)
        ~ctx:t.pid ~signature:en.en_sig
        (init_stmt t ~round ~signer:en.en_signer en.en_items)
    end
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
      Trace.Ctx.incr (trace t) "abc.catchup.decided_sent";
      Runtime.send t.rt ~dst ~pid:t.pid
        (Wire.encode (fun b ->
          Wire.Enc.u8 b tag_decided;
          Wire.Enc.int b r;
          Wire.Enc.bytes b batch))
    | None -> ()
  done

(* The one catch-up request: ask every party for the decided batches from
   our base on.  Inside a rebuild it waits for the restart pull, which runs
   once the rebuild is over and asks from the base the rebuild reached. *)
let request (t : t) : unit =
  if (not t.closed) && not (Runtime.rebuilding t.rt) then begin
    t.pulled_at <- t.base;
    Trace.Ctx.incr (trace t) "abc.catchup.request_sent";
    Runtime.broadcast t.rt ~pid:t.pid
      (Wire.encode (fun b ->
        Wire.Enc.u8 b tag_request;
        Wire.Enc.int b t.base))
  end

(* Round [round], beyond our base, is running or decided elsewhere while
   our base round cannot finish here: ask, at most once per such round. *)
let request_ahead (t : t) (round : int) : unit =
  if round > t.requested_for then begin
    t.requested_for <- round;
    request t
  end

(* [signer] INITed [round], beyond our window, so it delivered our base
   round.  The first such INIT at a base asks at once.  After that, ask
   only when the round that t+1 distinct signers have reached rises: some
   honest party has reached it, so a faulty party's INITs for ever later
   rounds cost one REQUEST per base, while honest progress still re-asks
   round by round when an answer is lost. *)
let request_behind (t : t) ~(signer : int) (round : int) : unit =
  if round > t.ahead.(signer) then begin
    t.ahead.(signer) <- round;
    if t.behind_at < t.base then begin
      t.behind_at <- t.base;
      request_ahead t round
    end
    else begin
      let highest = Array.copy t.ahead in
      Array.sort (fun a b -> compare b a) highest;
      let reached = highest.(Config.one_honest t.rt.Runtime.cfg - 1) in
      if reached >= t.base + window t then request_ahead t reached
    end
  end

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
  (round_state t round).mine <- Some en;
  let body =
    Wire.encode (fun b ->
      Wire.Enc.u8 b tag_init;
      Wire.Enc.int b round;
      enc_entry b en)
  in
  Runtime.broadcast t.rt ~pid:t.pid body

(* The one renumber rule: the next own sequence number that no delivered
   (me, seq) shadows.  A rebuilt party restarts its counter at 0 but learns
   its own pre-crash deliveries later, so a seq the counter reaches may
   already be taken. *)
let fresh_seq (t : t) : int =
  while Hashtbl.mem t.delivered (t.rt.Runtime.me, t.next_seq) do
    t.next_seq <- t.next_seq + 1
  done;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Give the first pending payload [from] selects, and every one behind it,
   a fresh seq in queue order, so seqs keep rising along the ledger and
   delivery keeps send order. *)
let renumber_from (t : t) (from : own -> bool) : unit =
  let moving = ref false in
  Queue.iter
    (fun o ->
      if !moving || from o then begin
        moving := true;
        o.seq <- fresh_seq t;
        o.init_round <- max_int
      end)
    t.pending

(* Keep the pending payloads [keep] selects, in queue order. *)
let filter_pending (t : t) (keep : own -> bool) : unit =
  let rest = Queue.of_seq (Seq.filter keep (Queue.to_seq t.pending)) in
  Queue.clear t.pending;
  Queue.transfer rest t.pending

(* An own payload was delivered: it leaves the ledger, and its enqueue time
   gives its end-to-end latency (the per-message latency of Figures 4
   and 5).  A pending payload under the same seq with other bytes is a
   clash after a rebuild: the delivered payload (pre-crash history) owns
   the (party, seq) identity, so every pending payload moves to a fresh
   seq; a vector still carrying the clashing identity deduplicates away at
   delivery. *)
let settle_own (t : t) ~(round : int) (it : item) : unit =
  match Seq.find (fun o -> o.seq = it.it_seq) (Queue.to_seq t.pending) with
  | Some o when String.equal o.framed it.it_payload ->
    (* Seqs are unique in the ledger; the delivered payload is usually its
       head. *)
    (match Queue.peek_opt t.pending with
     | Some head when head.seq = o.seq -> ignore (Queue.pop t.pending)
     | Some _ | None -> filter_pending t (fun p -> p.seq <> o.seq));
    Trace.Ctx.observe (trace t) "abc.latency" (Runtime.now t.rt -. o.enqueued);
    (* Rounds between the first INIT of ours that carried it and the round
       that delivered it: the fairness tail batch selection works on. *)
    if o.init_round <= round then
      Trace.Ctx.observe (trace t) ~buckets:wait_buckets "abc.wait_rounds"
        (float_of_int (round - o.init_round))
  | Some _ -> renumber_from t (fun _ -> true)
  | None -> ()

(* The ledger's prefix, up to [max_batch].
   Every in-flight round's vector is such a prefix — never a disjoint
   chunk — which is what preserves per-sender FIFO order under pipelining:
   a batch can only carry our payload s together with (or after the
   delivery of) every earlier payload, whichever rounds our vectors end up
   riding in.  Concurrent rounds deduplicate the overlap at delivery.
   Below [init_floor] the prefix is empty: a restarted party's pre-crash
   payloads can still be delivered in the rounds its earlier incarnation
   INITed, under seqs it has not yet learned are taken, so it proposes
   none of its own until it has delivered those rounds and any collision
   among its pending seqs has been renumbered away.  That is what makes
   an own payload covered by an installed state after riding in an INIT
   of ours really delivered ([install_state]). *)
let own_items (t : t) : own list =
  if t.base < t.init_floor then []
  else
    List.of_seq
      (Seq.take t.rt.Runtime.cfg.Config.max_batch (Queue.to_seq t.pending))

(* The highest own sequence number riding in any open INIT of ours; fresh
   payloads beyond it are what justify opening a deeper pipeline round. *)
let own_hwm (t : t) : int =
  Det.fold t.rounds ~compare:Det.by_int
    (fun _ rd acc ->
      match rd.mine with
      | None -> acc
      | Some en ->
        List.fold_left
          (fun acc it ->
            if it.it_orig = t.rt.Runtime.me && it.it_seq > acc then it.it_seq
            else acc)
          acc en.en_items)
    (-1)

(* Is there a pending own payload no open INIT of ours carries yet? *)
let has_fresh_items (t : t) : bool =
  let hwm = own_hwm t in
  Seq.exists (fun o -> o.seq > hwm) (Queue.to_seq t.pending)

(* Undelivered payloads seen in one round's INITs, in arrival order and
   capped — what an empty-queue party adopts so that slow parties' payloads
   appear in more than one vector (the fairness lever). *)
let adoptable_items (t : t) (round : int) : item list =
  let cap = t.rt.Runtime.cfg.Config.max_batch in
  let entries = Det.values (round_state t round).pool ~compare:Det.by_int in
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

(* Does [en] carry a payload the last delivered round's INITs held but its
   batch left out? *)
let carries_missed (t : t) (en : entry) : bool =
  List.exists
    (fun it ->
      Hashtbl.mem t.missed (it.it_orig, it.it_seq)
      && not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)))
    en.en_items

(* Could we INIT [round] now: open, in our window, above the restart
   floor, and not INITed by us yet? *)
let may_init (t : t) (round : int) : bool =
  not t.closed && t.gate () && round >= t.base && round < t.base + window t
  && round >= t.init_floor
  && Option.is_none (my_init t round)

(* Our vector for a round we INIT: the undelivered prefix if we have one,
   else the undelivered payloads seen in the round's INITs, possibly
   none. *)
let init_items (t : t) (round : int) : item list =
  match own_items t with
  | [] -> adoptable_items t round
  | mine ->
    List.iter (fun o -> o.init_round <- min o.init_round round) mine;
    let me = t.rt.Runtime.me in
    List.map
      (fun o -> { it_orig = me; it_seq = o.seq; it_payload = o.framed })
      mine

(* Start every round of our window below [round] that we have not INITed.
   Rounds deliver in order, so a round no honest party INITs stalls every
   later one: a Byzantine party can INIT round r to nobody and round r+1
   to everyone, and the honest parties join r+1 with payloads that leave
   nothing fresh to start r.  Whoever INITs r+1, or sees it decide, starts
   r as well. *)
let init_below (t : t) (round : int) : unit =
  for r = t.base to min (round - 1) (t.base + window t - 1) do
    if may_init t r then send_init t r (init_items t r)
  done

(* Anti-spin, generalized per in-window round: INIT round r only when we
   have fresh payloads no open INIT of ours carries yet (new content
   justifies a deeper pipeline round), or someone else already started
   round r — then we join it, with our undelivered prefix if we have one,
   adopting their undelivered payloads or contributing an empty vector
   otherwise.  Never start a round unprompted, or idle parties would spin
   empty (or redundant) rounds forever. *)
let rec try_send_init_round (t : t) (round : int) : unit =
  if may_init t round then begin
    let joined = Hashtbl.length (round_state t round).pool > 0 in
    let own = own_items t <> [] in
    if (own && has_fresh_items t) || joined then begin
      if own then
        Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.queue_depth"
          (float_of_int (Queue.length t.pending));
      init_below t round;
      send_init t round (init_items t round)
    end
  end

and try_send_inits (t : t) : unit =
  for r = t.base to t.base + window t - 1 do
    try_send_init_round t r
  done

and try_propose_round (t : t) (round : int) : unit =
  match Hashtbl.find_opt t.rounds round with
  | Some ({ mine = Some en; proposed = false; _ } as rd)
    when not t.closed && round >= t.base && round < t.base + window t ->
    let tbl = rd.pool in
    (* Include our own INIT in the pool. *)
    if not (Hashtbl.mem tbl en.en_signer) then
      Hashtbl.replace tbl en.en_signer (Hashtbl.length tbl, en);
    let b = t.rt.Runtime.cfg.Config.batch_size in
    (* Wait for INITs from n-t distinct signers (guaranteed to arrive, since
       every honest party signs or adopts) before choosing the batch: the
       extra signers usually contribute *distinct* payloads from slower
       hosts, which is what fills the paper's 0-second band in Figures 4-5
       with messages from P2/AIX and P3/Win2k. *)
    let need = max b (Config.vote_quorum t.rt.Runtime.cfg) in
    if Hashtbl.length tbl >= need then begin
      (* Batch selection: walk the INIT vectors in arrival order, those
         carrying a payload the last delivered round left out first, and
         prefer vectors contributing at least one payload not already
         covered, so the union usually carries every queued message in the
         pool; fall back to redundant vectors from distinct signers only
         when short. *)
      let entries = Det.values tbl ~compare:Det.by_int in
      let entries = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) entries in
      let entries = List.map snd entries in
      let starved, fed = List.partition (carries_missed t) entries in
      let entries = starved @ fed in
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
      rd.proposed <- true;
      trace_phase t "agree" round Trace.Event.Span_begin;
      let mvba =
        match rd.mvba with
        | Some m -> m
        | None ->
          let m =
            Array_agreement.create t.rt ~pid:(mvba_pid t round)
              ~validator:(fun batch -> batch_valid t ~round batch)
              ~on_decide:(fun decided -> round_decided t round decided)
          in
          rd.mvba <- Some m;
          m
      in
      Array_agreement.propose mvba encoded;
      Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.inflight_rounds"
        (float_of_int (inflight_rounds t))
    end
  | Some _ | None -> ()

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
    if proposed t round then trace_phase t "agree" round Trace.Event.Span_end;
    Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.reorder_depth"
      (float_of_int t.parked);
    advance t;
    init_below t round;
    (* A later round decided, but we never proposed in our base round: it
       most likely decided without us (a restarted party lost the INITs
       sent while it was down), and no INIT will ever tell us. *)
    if round > t.base && not (proposed t t.base) then request_ahead t round
  end

(* Rebuild the missed set from the pool of [round], just delivered: the
   payloads its INITs carried that are still undelivered. *)
and note_missed (t : t) (round : int) : unit =
  Hashtbl.reset t.missed;
  match Hashtbl.find_opt t.rounds round with
  | None -> ()
  | Some rd ->
    Det.iter rd.pool ~compare:Det.by_int (fun _ (_, en) ->
      List.iter
        (fun it ->
          if not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)) then
            Hashtbl.replace t.missed (it.it_orig, it.it_seq) ())
        en.en_items)

(* Deliver decided rounds in round order from the reorder buffer, opening
   the window one round at a time; after each delivery give the freed
   window slot a chance to INIT/propose. *)
and advance (t : t) : unit =
  match Hashtbl.find_opt t.decided_batches t.base with
  | None -> ()
  | Some batch ->
    deliver_round t t.base batch;
    if not t.closed then begin
      try_send_inits t;
      try_propose_all t;
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
           if it.it_orig = t.rt.Runtime.me then settle_own t ~round it;
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
     note_missed t round;
     t.on_round_end ();
     t.rounds_completed <- t.rounds_completed + 1;
     (* Throughput accounting: rounds, payloads carried, and how full the
        decided batches run (the batch-occupancy histogram behind the
        latency-vs-throughput crossover). *)
     Trace.Ctx.incr (trace t) "abc.rounds";
     Trace.Ctx.count (trace t) "abc.batch_payloads" (float_of_int !fresh);
     Trace.Ctx.observe (trace t) ~buckets:count_buckets "abc.batch_occupancy"
       (float_of_int !fresh));
  (* Rounds adopted through catch-up never opened a round span. *)
  if Option.is_some (my_init t round) then
    trace_phase t "round" round Trace.Event.Span_end;
  (* Close once t+1 distinct parties asked. *)
  if Hashtbl.length t.term_requests >= Config.one_honest t.rt.Runtime.cfg then begin
    t.closed <- true;
    drop_rounds t ~below:max_int ~retire:false;
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
    drop_rounds t ~below:t.base ~retire:true;
    expire_agreements t ~below:(round - max 2 (window t) + 1);
    (* The WAL hook sees the round only after the window slid, so the
       durability layer observes the post-delivery state (base = round+1).
       The closing round is not logged: a closed channel never restarts. *)
    (match t.round_hook with
     | Some f -> f ~round ~batch
     | None -> ())
  end

(* Adopt a round's batch once t+1 distinct parties claim it; the adopted
   decision parks in the reorder buffer like any other, so claims for any
   undelivered round — in-window or far ahead — are usable the moment
   their quorum completes.  Only the batch a claim just backed can have
   completed a quorum, so it is the only one counted. *)
let maybe_adopt_round (t : t) (round : int) (claims : (int, string) Hashtbl.t)
    (batch : string) : unit =
  let backers =
    Det.fold claims ~compare:Det.by_int
      (fun _ b n -> if String.equal b batch then n + 1 else n)
      0
  in
  if backers >= Config.one_honest t.rt.Runtime.cfg
     && not (Hashtbl.mem t.decided_batches round)
  then begin
    Trace.Ctx.incr (trace t) "abc.catchup.adopted";
    round_decided t round batch;
    (* Adopting means we are behind: keep pulling as the base advances. *)
    if t.base >= t.pulled_at + catchup_window then request t
  end

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
        let held =
          Option.bind (Hashtbl.find_opt t.rounds round) (fun rd ->
            Hashtbl.find_opt rd.pool src)
        in
        (* A conflicting, validly signed INIT from a signer we already hold
           one from is Byzantine evidence — record it, drop the duplicate. *)
        (match held with
         | Some (_, prev)
           when prev.en_items <> en.en_items
                && entry_signature_valid t ~round en ->
           Invariant.flag inv ~offender:src
             (Printf.sprintf "abc %s: conflicting INIT in round %d" t.pid round)
         | Some _ | None -> ());
        if Option.is_none held
           && List.length en.en_items <= t.rt.Runtime.cfg.Config.max_batch
           && entry_signature_valid t ~round en
        then begin
          (* Only an INIT that passed its checks gets a round record, and
             none further ahead than a DECIDED claim is kept. *)
          if round <= t.base + max_claim_lead then begin
            let tbl = (round_state t round).pool in
            Invariant.fresh_sender inv tbl src "INIT pool";
            Hashtbl.add tbl src (Hashtbl.length tbl, en)
          end;
          (* An INIT for a round beyond our window proves its signer
             delivered our base round: ask everyone for the decided
             batches, as [request_behind] rations it.  An INIT merely
             ahead of [base] is normal pipelining —
             unless our base round shows no activity at all (no INITs, no
             decision), which after a rebuild means the round is long dead
             and only catch-up can revive us. *)
          let base_dark () =
            (not (Hashtbl.mem t.decided_batches t.base))
            && (match Hashtbl.find_opt t.rounds t.base with
                | Some rd -> Option.is_none rd.mine && Hashtbl.length rd.pool = 0
                | None -> true)
          in
          if round >= t.base + window t then request_behind t ~signer:src round
          else if round > t.base && base_dark () then request_ahead t round;
          if round < t.base + window t then begin
            try_send_init_round t round;
            try_propose_round t round
          end
        end
      | Init _ -> ()   (* stale, or not signed by its sender *)
      | Request round ->
        if round >= 0 && round < t.base then begin
          Trace.Ctx.incr (trace t) "abc.catchup.request_served";
          send_backlog t ~dst:src ~from_round:round
        end
      | Decided (round, batch) ->
        if round >= t.base && round <= t.base + max_claim_lead then begin
          let claims = (round_state t round).claims in
          (* One claim per (round, sender); a second claim with a different
             batch is Byzantine evidence. *)
          match Hashtbl.find_opt claims src with
          | Some b when String.equal b batch -> ()
          | Some _ ->
            Invariant.flag inv ~offender:src
              (Printf.sprintf "abc %s: conflicting DECIDED for round %d" t.pid
                 round)
          | None ->
            Hashtbl.add claims src batch;
            maybe_adopt_round t round claims batch
        end
  end

let create (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit)
    ?(on_round_end = fun () -> ()) ?(on_close = fun () -> ()) () : t =
  let t = {
    rt; pid; on_deliver; on_round_end; on_close;
    pending = Queue.create ();
    next_seq = 0;
    base = 0;
    rounds = Hashtbl.create 16;
    delivered = Hashtbl.create 64;
    term_requests = Hashtbl.create 4;
    past_mvba = Hashtbl.create 8;
    parked = 0;
    closing = false;
    closed = false;
    deliveries = 0;
    rounds_completed = 0;
    gate = (fun () -> true);
    decided_batches = Hashtbl.create 32;
    floor = 0;
    requested_for = -1;
    ahead = Array.make rt.Runtime.cfg.Config.n (-1);
    behind_at = -1;
    pulled_at = 0;
    missed = Hashtbl.create 16;
    round_hook = None;
    catchup_miss = None;
    init_hook = None;
    init_floor = 0;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  (* A rebuilt party pulls once its rebuild is over: in a quiet cluster no
     peer traffic would ever make it ask. *)
  Runtime.after_rebuild rt (fun () -> request t);
  t

let enqueue (t : t) (framed : string) : unit =
  let o =
    { seq = fresh_seq t; init_round = max_int; framed; enqueued = Runtime.now t.rt }
  in
  Queue.push o t.pending;
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.instant tr ~pid:t.pid ~cat:"abc"
      ~args:[ ("seq", Trace.Event.Int o.seq) ]
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

let deliveries (t : t) = t.deliveries
let current_round (t : t) = t.base
let rounds_completed (t : t) = t.rounds_completed
let reorder_depth (t : t) = t.parked
let rounds_held (t : t) = Hashtbl.length t.rounds
let missed_held (t : t) = Hashtbl.length t.missed

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
      List.iter
        (fun r ->
          if r < base then begin
            if r >= t.base then t.parked <- t.parked - 1;
            Hashtbl.remove t.decided_batches r
          end)
        (Det.keys t.decided_batches ~compare:Det.by_int);
      drop_rounds t ~below:base ~retire:false;
      expire_agreements t ~below:base;
      t.base <- base;
      if base > t.floor then t.floor <- base;
      (* Settle the pending payloads the adopted history covers.  One that
         an INIT of ours carried under its seq for a round below the new
         base was delivered: it leaves the ledger.  Any other collides with
         an earlier incarnation's payload under that seq: it and every
         payload behind it move to fresh seqs. *)
      let me = t.rt.Runtime.me in
      let covered o = Hashtbl.mem t.delivered (me, o.seq) in
      filter_pending t (fun o -> not (covered o && o.init_round < base));
      renumber_from t covered;
      (* Parked decisions at or past the new base may be deliverable now. *)
      advance t;
      if not t.closed then begin
        try_send_inits t;
        try_propose_all t
      end;
      (* The tail beyond the installed checkpoint comes from the peers'
         retained backlogs. *)
      request t;
      true
    end

(* Install a backpressure gate; call {!kick} when it opens again. *)
let set_gate (t : t) (gate : unit -> bool) : unit = t.gate <- gate

let kick (t : t) : unit =
  try_send_inits t;
  try_propose_all t

let abort (t : t) : unit =
  t.closed <- true;
  drop_rounds t ~below:max_int ~retire:false;
  expire_agreements t ~below:max_int;
  Runtime.unregister t.rt ~pid:t.pid
