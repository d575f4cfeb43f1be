(* The atomic broadcast channel's protocol core (Section 2.5): Chandra-Toueg-
   style rounds of multi-valued Byzantine agreement on batches of signed
   messages, with no engine, runtime, charging, tracing or crypto.  The
   shell (Sintra.Atomic_channel) decodes and verifies frames, signs, runs
   each round's agreement and traces; this module decides everything else
   and acts only through its [ports].

   Every round r agrees on a *batch of payload vectors* (the paper proposes
   whole queues of undelivered payloads per round; HoneyBadgerBFT calls the
   same lever "batching" and shows it is what turns agreement latency into
   throughput):
   - each party signs the vector of its locally-queued undelivered
     payloads — capped at [max_batch] — together with r, and sends this
     INIT to everyone; one signature covers the whole vector.  Room left
     under the cap carries the payloads the last delivered round left out
     whose origin this party is one of the t successors of, so such a
     payload rides in t+1 vectors ([init_items]).  A party with nothing of
     its own to send adopts (and re-signs) the undelivered payloads it has
     seen in this round's INITs; failing that it signs an empty vector,
     which keeps the round from stalling without spinning up rounds of its
     own.  Only items a vector signed by their origin carried are ever
     adopted;
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

   Pipelining: up to [window] rounds run their agreements concurrently.
   [base] is the next round to deliver; rounds in the window
   [base, base + w) may be INITed and proposed while earlier rounds are
   still undecided, each round's own vector a prefix of the pending own
   payloads (see [own_items]).
   Decisions can land out of order; a decided round parks in the reorder
   buffer ([decided_batches] entries at or beyond [base]) until every
   earlier round has delivered, so delivery order — and hence the paper's
   total-order obligation — is exactly the sequential protocol's.  With
   [window = 1] the channel reproduces the strictly sequential protocol.
   Rounds deliver in order, so no round of the window may stay un-INITed
   below one we start ([init_below]).

   Termination: [close] queues a termination request as a regular payload;
   the channel closes after the round in which t+1 distinct parties'
   requests have been delivered (so it terminates iff at least one honest
   party asked).

   Catch-up: a party whose round-r agreement messages were delayed past the
   point where its peers garbage-collected the round-r instance can never
   finish round r through the agreement itself.  Catch-up repairs it, and
   the channel is the only party that asks for it:
   - REQUEST(base), sent by [request] on two kinds of evidence in peers'
     traffic that our base round went on without us: a validly signed
     INIT beyond our window (once per base, then as t+1 signers move on)
     and a later round deciding here while we never proposed in the base
     round.  It is also sent on our own progress (the end of a rebuild, a
     snapshot install, each catch-up window of base progress made by
     adopted claims), since a quiet cluster sends no traffic that would
     make a rebuilt party ask.  A far round one signer names alone raises
     [requested_for] no further than one answer covers, so it cannot
     silence a later REQUEST;
   - DECIDED(r, batch): sent point-to-point only in reply to a REQUEST,
     carrying the whole batch we decided in round r, at most a window of
     rounds per reply; a request from below the GC floor also fires the
     durability layer's snapshot service.  A stale INIT is dropped: its
     sender either finishes the round through the agreement's grace period
     or asks with a REQUEST;
   - a straggler adopts a batch for any undelivered round once t+1 distinct
     parties claim the same one — any t+1 set contains an honest party, so
     the batch really is the round's decision.  Adopted rounds beyond
     [base] park in the reorder buffer like any other decision. *)

type item = { it_orig : int; it_seq : int; it_payload : string }

type entry = { en_signer : int; en_items : item list; en_sig : string }

type params = {
  n : int;
  t : int;
  me : int;
  batch_size : int;
  max_batch : int;
  window : int;
}

type note =
  | Enqueued of int
  | Sample of string * int
  | Latency of float
  | Waited of int
  | Delivered of item
  | Batch of int
  | Span_end of string * int
  | Incr of string

type ports = {
  send_init : round:int -> item list -> entry;
  propose : round:int -> entry list -> unit;
  decode : string -> entry list option;
  end_agreements : below:int -> unit;
  may_request : unit -> bool;
  send_request : int -> unit;
  send_decided : dst:int -> round:int -> string -> unit;
  deliver : sender:int -> string -> unit;
  round_end : unit -> unit;
  on_close : unit -> unit;
  note : note -> unit;
}

type durability = {
  log_round : round:int -> batch:string -> unit;
  serve_snapshot : dst:int -> unit;
  log_init : round:int -> unit;
  init_floor : int;
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
  enqueued : float;       (* the shell's clock at [enqueue] *)
}

(* Everything the core keeps for one undelivered round; [drop_rounds]
   removes it in one step. *)
type round = {
  (* signer -> (arrival rank, entry); the rank (pool size at insertion)
     reproduces the paper's behaviour of considering messages in the order
     they arrive in the current round *)
  pool : (int, int * entry) Hashtbl.t;
  mutable mine : entry option;                 (* our own INIT *)
  mutable proposed : bool;                     (* we proposed a batch *)
  claims : (int, string) Hashtbl.t;            (* DECIDED: sender -> batch *)
}

type t = {
  p : params;
  ports : ports;
  (* The own-payload ledger, in send order: every payload of ours still
     pending.  A payload leaves it when delivered, so no entry's seq is
     ever in [delivered]. *)
  pending : own Queue.t;
  mutable next_seq : int;
  mutable base : int;                  (* next round to deliver, in order *)
  rounds : (int, round) Hashtbl.t;     (* undelivered rounds we hold state for *)
  delivered : (int * int, unit) Hashtbl.t;          (* (orig, seq) *)
  term_requests : (int, unit) Hashtbl.t;            (* parties asking to close *)
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
     0 and the backlog is unbounded; with one, [gc_below] raises the floor
     to the latest stable checkpoint and stragglers further behind are
     served a signed snapshot instead. *)
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
  (* Bounded-wait adoption: the missed payloads whose origin we follow
     ([follows]), each as a vector signed by that origin carried it, in
     (origin, seq) order; rebuilt with [missed]. *)
  mutable follow : item list;
  (* The durability layer, once registered.  Its [init_floor] bars
     self-INITs below it: a restarted party must never re-initiate a round
     it may already have initiated pre-crash, since the old INIT can still
     be in flight and a second one with different content is equivocation.
     Rounds below the floor still complete — the other parties INIT and
     propose them; we merely abstain, and keep our own payloads out of
     every INIT until [base] reaches the floor. *)
  mutable dur : durability option;
  mutable init_floor : int;
}

(* DECIDED batches sent per REQUEST; the straggler re-REQUESTs as it
   advances, so a small window still converges. *)
let catchup_window = 8

(* Missed payloads adopted into one vector of ours, beside the own
   prefix. *)
let adopt_cap = 4

(* Future-round INITs and DECIDED claims kept at most this far ahead,
   bounding what a Byzantine flood can make us store. *)
let max_claim_lead = 256

(* Payload framing: 0x01 = application payload, 0x00 = termination request. *)
let frame_term : string = "\x00"

(* t+1: any set this large holds an honest party. *)
let one_honest (t : t) : int = t.p.t + 1

(* A round's record, created on first use. *)
let round_state (t : t) (r : int) : round =
  match Hashtbl.find_opt t.rounds r with
  | Some rd -> rd
  | None ->
    let rd =
      { pool = Hashtbl.create 8; mine = None; proposed = false;
        claims = Hashtbl.create 4 }
    in
    Hashtbl.add t.rounds r rd;
    rd

let my_init (t : t) (r : int) : entry option =
  match Hashtbl.find_opt t.rounds r with Some rd -> rd.mine | None -> None

let proposed (t : t) (r : int) : bool =
  match Hashtbl.find_opt t.rounds r with Some rd -> rd.proposed | None -> false

let pooled (t : t) ~(round : int) ~(signer : int) : entry option =
  match Hashtbl.find_opt t.rounds round with
  | Some rd -> Option.map snd (Hashtbl.find_opt rd.pool signer)
  | None -> None

(* The one place a round's record is dropped: every round below [below]
   leaves [rounds] in one step.  Its agreement is the shell's, ended by
   [end_agreements] on its own schedule: at delivery a grace period
   later ([deliver_round]), at once on a snapshot install, and all of
   them when the channel shuts. *)
let drop_rounds (t : t) ~(below : int) : unit =
  List.iter
    (fun r -> if r < below then Hashtbl.remove t.rounds r)
    (Det.keys t.rounds ~compare:Det.by_int)

(* The channel is done: no round record and no agreement survives it. *)
let shut (t : t) : unit =
  t.closed <- true;
  drop_rounds t ~below:max_int;
  t.ports.end_agreements ~below:max_int

(* How deep the agreement pipeline currently runs: proposed, undecided
   rounds inside the window. *)
let inflight_rounds (t : t) : int =
  let count = ref 0 in
  for r = t.base to t.base + t.p.window - 1 do
    if proposed t r && not (Hashtbl.mem t.decided_batches r) then incr count
  done;
  !count

(* Reply to a straggler with the batches it is missing, oldest first; only
   rounds already delivered here — parked decisions are served once they
   clear our own reorder buffer.  History below [floor] has been garbage
   collected under a stable checkpoint: the durability layer serves a
   signed snapshot instead, and we send whatever retained rounds still
   help. *)
let send_backlog (t : t) ~(dst : int) ~(from_round : int) : unit =
  if from_round < t.floor then
    (match t.dur with Some d -> d.serve_snapshot ~dst | None -> ());
  let from_round = max from_round t.floor in
  let upto = min (from_round + catchup_window - 1) (t.base - 1) in
  for r = from_round to upto do
    match Hashtbl.find_opt t.decided_batches r with
    | Some batch ->
      t.ports.note (Incr "abc.catchup.decided_sent");
      t.ports.send_decided ~dst ~round:r batch
    | None -> ()
  done

(* The one catch-up request: ask every party for the decided batches from
   our base on.  Inside a rebuild it waits for the restart pull, which runs
   once the rebuild is over and asks from the base the rebuild reached. *)
let request (t : t) : unit =
  if (not t.closed) && t.ports.may_request () then begin
    t.pulled_at <- t.base;
    t.ports.note (Incr "abc.catchup.request_sent");
    t.ports.send_request t.base
  end

(* [signer] INITed [round], beyond our window, so it delivered our base
   round.  The first such INIT at a base asks at once.  After that, ask
   only when the round that t+1 distinct signers have reached rises past
   [requested_for]: some honest party has reached it, so a faulty party's
   INITs for ever later rounds cost one REQUEST per base, while honest
   progress still re-asks round by round when an answer is lost (without
   the re-ask, test_robustness "one far INIT does not silence a
   straggler" and test_abc_core fail).  The first ask raises
   [requested_for] no further than the rounds its answer covers: a round
   one signer names may be a faulty party's invention, and raising the
   mark to it would silence every later trigger. *)
let request_behind (t : t) ~(signer : int) (round : int) : unit =
  if round > t.ahead.(signer) then begin
    t.ahead.(signer) <- round;
    if t.behind_at < t.base then begin
      t.behind_at <- t.base;
      t.requested_for <- max t.requested_for (min round (t.base + catchup_window));
      request t
    end
    else begin
      let highest = Array.copy t.ahead in
      Array.sort (fun a b -> compare b a) highest;
      let reached = highest.(one_honest t - 1) in
      if reached >= t.base + t.p.window && reached > t.requested_for then begin
        t.requested_for <- reached;
        request t
      end
    end
  end

(* Sign and broadcast our INIT vector for one in-window round.  The
   durability layer logs the round first — write-ahead — so the round
   number is on disk before the INIT can reach any peer. *)
let send_init (t : t) (round : int) (items : item list) : unit =
  (match t.dur with Some d -> d.log_init ~round | None -> ());
  (round_state t round).mine <- Some (t.ports.send_init ~round items)

(* The one renumber rule: the next own sequence number that no delivered
   (me, seq) shadows.  A rebuilt party restarts its counter at 0 but learns
   its own pre-crash deliveries later, so a seq the counter reaches may
   already be taken. *)
let fresh_seq (t : t) : int =
  while Hashtbl.mem t.delivered (t.p.me, t.next_seq) do
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
    t.ports.note (Latency o.enqueued);
    (* Rounds between the first INIT of ours that carried it and the round
       that delivered it: the fairness tail batch selection works on. *)
    if o.init_round <= round then t.ports.note (Waited (round - o.init_round))
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
  else List.of_seq (Seq.take t.p.max_batch (Queue.to_seq t.pending))

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
            if it.it_orig = t.p.me && it.it_seq > acc then it.it_seq else acc)
          acc en.en_items)
    (-1)

(* Is there a pending own payload no open INIT of ours carries yet? *)
let has_fresh_items (t : t) : bool =
  let hwm = own_hwm t in
  Seq.exists (fun o -> o.seq > hwm) (Queue.to_seq t.pending)

(* A round's pooled INIT vectors in arrival order. *)
let arrivals (rd : round) : entry list =
  Det.values rd.pool ~compare:Det.by_int
  |> List.sort (fun (r1, _) (r2, _) -> compare r1 r2)
  |> List.map snd

(* Undelivered payloads seen in one round's INITs, each in a vector its
   origin signed, in arrival order and capped — what an empty-queue party
   adopts so that slow parties' payloads appear in more than one vector
   (the fairness lever).  An item under another signer's origin is never
   re-signed: it may be forged.  Adopting [follow] here instead breaks
   liveness: the @vopr-smoke replay `explore --workload atomic --seed
   sweep --index 3 --mutations 'drop@3>0:2'` never quiesces, and the
   bounded-wait oracle fails atomic bench-vopr#86 and secure
   bench-vopr#51. *)
let adoptable_items (t : t) (round : int) : item list =
  let chosen = Hashtbl.create 8 in
  let items = ref [] in
  let count = ref 0 in
  List.iter
    (fun en ->
      List.iter
        (fun it ->
          if !count < t.p.max_batch && it.it_orig = en.en_signer
             && not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq))
             && not (Hashtbl.mem chosen (it.it_orig, it.it_seq))
          then begin
            Hashtbl.replace chosen (it.it_orig, it.it_seq) ();
            items := it :: !items;
            incr count
          end)
        en.en_items)
    (arrivals (round_state t round));
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
  not t.closed && t.gate () && round >= t.base && round < t.base + t.p.window
  && round >= t.init_floor
  && Option.is_none (my_init t round)

(* Bounded-wait adoption: do we carry [orig]'s missed payloads, being one
   of its t cyclic successors?  With its own vector a missed payload then
   rides in t+1, and any n-t of the next round's INITs hold one of them. *)
let follows (t : t) (orig : int) : bool =
  let d = (t.p.me - orig + t.p.n) mod t.p.n in
  d >= 1 && d <= t.p.t

(* Our vector for a round we INIT, the one rule for what it holds: the
   undelivered prefix, then the still-undelivered missed payloads we
   follow while the cap and [max_batch] leave room; with no prefix, the
   undelivered payloads seen in the round's INITs, possibly none. *)
let init_items (t : t) (round : int) : item list =
  match own_items t with
  | [] -> adoptable_items t round
  | mine ->
    List.iter (fun o -> o.init_round <- min o.init_round round) mine;
    let room = min adopt_cap (t.p.max_batch - List.length mine) in
    let adopted =
      List.filter (fun it -> not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq))) t.follow
      |> List.filteri (fun i _ -> i < room)
    in
    List.iter (fun _ -> t.ports.note (Incr "abc.adopted_items")) adopted;
    List.map
      (fun o -> { it_orig = t.p.me; it_seq = o.seq; it_payload = o.framed })
      mine
    @ adopted

(* Start every round of our window below [round] that we have not INITed.
   Rounds deliver in order, so a round no honest party INITs stalls every
   later one: a Byzantine party can INIT round r to nobody and round r+1
   to everyone, and the honest parties join r+1 with payloads that leave
   nothing fresh to start r.  Whoever INITs r+1 starts r as well (without
   it, test_pipeline "a round only a Byzantine party INITed still
   decides" stalls).  Seeing r+1 decide needs no such rule: it took n-t
   proposals, so t+1 honest parties INITed r+1, and r before it; their
   r INITs make every other honest party join r. *)
let init_below (t : t) (round : int) : unit =
  for r = t.base to min (round - 1) (t.base + t.p.window - 1) do
    if may_init t r then send_init t r (init_items t r)
  done

(* Anti-spin, generalized per in-window round: INIT round r only when we
   have fresh payloads no open INIT of ours carries yet (new content
   justifies a deeper pipeline round), or someone else already started
   round r — then we join it, with our undelivered prefix if we have one,
   adopting their undelivered payloads or contributing an empty vector
   otherwise.  Never start a round unprompted, or idle parties would spin
   empty (or redundant) rounds forever. *)
let try_send_init_round (t : t) (round : int) : unit =
  if may_init t round then begin
    let joined = Hashtbl.length (round_state t round).pool > 0 in
    let own = own_items t <> [] in
    if (own && has_fresh_items t) || joined then begin
      if own then t.ports.note (Sample ("abc.queue_depth", Queue.length t.pending));
      init_below t round;
      send_init t round (init_items t round)
    end
  end

(* Batch selection: walk the INIT vectors in arrival order, those carrying
   a payload the last delivered round left out first, and prefer vectors
   contributing at least one payload not already covered, so the union
   usually carries every queued message in the pool; fall back to
   redundant vectors from distinct signers only when short.  No test
   holds the starved-first order; the benchmark does: without it p99
   rose on every seed, by a median 6.2% on abc-open40 and 7.8% on
   secure-open30 (EXPERIMENTS.md, "Rules that earn their keep"). *)
let select_batch (t : t) (rd : round) : entry list =
  let starved, fed = List.partition (carries_missed t) (arrivals rd) in
  let covered = Hashtbl.create 16 in
  let contributes (en : entry) : bool =
    List.exists
      (fun it ->
        not (Hashtbl.mem covered (it.it_orig, it.it_seq))
        && not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)))
      en.en_items
  in
  let primary, rest =
    List.partition
      (fun en ->
        contributes en
        && begin
          List.iter
            (fun it -> Hashtbl.replace covered (it.it_orig, it.it_seq) ())
            en.en_items;
          true
        end)
      (starved @ fed)
  in
  List.filteri (fun i _ -> i < t.p.batch_size) (primary @ rest)

let try_propose_round (t : t) (round : int) : unit =
  match Hashtbl.find_opt t.rounds round with
  | Some ({ mine = Some en; proposed = false; _ } as rd)
    when not t.closed && round >= t.base && round < t.base + t.p.window ->
    (* Include our own INIT in the pool. *)
    if not (Hashtbl.mem rd.pool en.en_signer) then
      Hashtbl.replace rd.pool en.en_signer (Hashtbl.length rd.pool, en);
    (* Wait for INITs from n-t distinct signers (guaranteed to arrive, since
       every honest party signs or adopts) before choosing the batch: the
       extra signers usually contribute *distinct* payloads from slower
       hosts, which is what fills the paper's 0-second band in Figures 4-5
       with messages from P2/AIX and P3/Win2k. *)
    if Hashtbl.length rd.pool >= max t.p.batch_size (t.p.n - t.p.t) then begin
      rd.proposed <- true;
      t.ports.propose ~round (select_batch t rd);
      t.ports.note (Sample ("abc.inflight_rounds", inflight_rounds t))
    end
  | Some _ | None -> ()

let kick (t : t) : unit =
  for r = t.base to t.base + t.p.window - 1 do
    try_send_init_round t r
  done;
  for r = t.base to t.base + t.p.window - 1 do
    try_propose_round t r
  done

(* Rebuild the missed set from the pool of [round], just delivered: the
   payloads its INITs carried that are still undelivered.  Those of them
   that a vector signed by their origin carried, from origins we follow,
   are what we adopt. *)
let note_missed (t : t) (round : int) : unit =
  Hashtbl.reset t.missed;
  t.follow <- [];
  match Hashtbl.find_opt t.rounds round with
  | None -> ()
  | Some rd ->
    Det.iter rd.pool ~compare:Det.by_int (fun _ (_, en) ->
      List.iter
        (fun it ->
          if not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)) then begin
            Hashtbl.replace t.missed (it.it_orig, it.it_seq) ();
            if it.it_orig = en.en_signer && follows t it.it_orig then
              t.follow <- it :: t.follow
          end)
        en.en_items);
    t.follow <-
      List.sort_uniq
        (fun a b -> compare (a.it_orig, a.it_seq) (b.it_orig, b.it_seq))
        t.follow

(* Deliver round [base]'s batch (union order: by original sender, then
   sequence number) and slide the window forward one round. *)
let deliver_round (t : t) (round : int) (batch : string) : unit =
  t.parked <- t.parked - 1;
  (match t.ports.decode batch with
   | None -> ()   (* cannot happen: validity enforced the format *)
   | Some entries ->
     (* Deterministic union order: flatten every vector, sort by original
        sender then sequence number, drop duplicates.  The decided bytes
        are identical at every party, so this order is too. *)
     let items =
       List.sort_uniq
         (fun a b -> compare (a.it_orig, a.it_seq) (b.it_orig, b.it_seq))
         (List.concat_map (fun en -> en.en_items) entries)
     in
     let fresh = ref 0 in
     List.iter
       (fun it ->
         if not (Hashtbl.mem t.delivered (it.it_orig, it.it_seq)) then begin
           Hashtbl.replace t.delivered (it.it_orig, it.it_seq) ();
           t.deliveries <- t.deliveries + 1;
           incr fresh;
           if it.it_orig = t.p.me then settle_own t ~round it;
           t.ports.note (Delivered it);
           if it.it_payload = frame_term then
             Hashtbl.replace t.term_requests it.it_orig ()
           else if String.length it.it_payload >= 1 && it.it_payload.[0] = '\x01' then
             t.ports.deliver ~sender:it.it_orig
               (String.sub it.it_payload 1 (String.length it.it_payload - 1))
         end)
       items;
     note_missed t round;
     t.ports.round_end ();
     t.rounds_completed <- t.rounds_completed + 1;
     t.ports.note (Batch !fresh));
  (* Rounds adopted through catch-up never opened a round span. *)
  if Option.is_some (my_init t round) then t.ports.note (Span_end ("round", round));
  (* Close once t+1 distinct parties asked. *)
  if Hashtbl.length t.term_requests >= one_honest t then begin
    shut t;
    t.ports.on_close ()
  end
  else begin
    t.base <- round + 1;
    (* Keep the delivered round's agreement registered for a grace period:
       lagging parties may still need our (already broadcast) messages
       replayed from their orphan buffers, but instances a full window
       behind the base are dead weight.  (Ending each agreement at its
       delivery instead fails vopr's "clean trunk" and "regression
       vopr#70" in test_vopr.)  This GC is what makes catch-up necessary:
       a party whose round-r traffic was delayed past this point can no
       longer finish round r through the agreement, and recovers by
       adopting DECIDED claims instead. *)
    drop_rounds t ~below:t.base;
    t.ports.end_agreements ~below:(round - max 2 t.p.window + 1);
    (* The durability layer sees the round only after the window slid, so
       it observes the post-delivery state (base = round+1).  The closing
       round is not logged: a closed channel never restarts. *)
    (match t.dur with Some d -> d.log_round ~round ~batch | None -> ())
  end

(* Deliver decided rounds in round order from the reorder buffer, opening
   the window one round at a time; after each delivery give the freed
   window slot a chance to INIT/propose. *)
let rec advance (t : t) : unit =
  match Hashtbl.find_opt t.decided_batches t.base with
  | None -> ()
  | Some batch ->
    deliver_round t t.base batch;
    if not t.closed then begin
      kick t;
      advance t
    end

(* A round decided — through its own agreement, a claims quorum or the
   local log.  Park the batch in the reorder buffer and deliver whatever
   prefix is ready: out-of-order decisions wait here until every earlier
   round has delivered, which is all it takes to keep total order. *)
let awaits (t : t) ~(round : int) : bool =
  (not t.closed) && round >= t.base && not (Hashtbl.mem t.decided_batches round)

let decided (t : t) ~(round : int) (batch : string) : unit =
  if awaits t ~round then begin
    Hashtbl.replace t.decided_batches round batch;
    t.parked <- t.parked + 1;
    if proposed t round then t.ports.note (Span_end ("agree", round));
    t.ports.note (Sample ("abc.reorder_depth", t.parked));
    advance t;
    (* A later round decided, but we never proposed in our base round: it
       most likely decided without us (a restarted party lost the INITs
       sent while it was down), and no INIT will ever tell us.  Ask every
       time, unsuppressed by [requested_for]: an earlier REQUEST at this
       base may have been answered before the base round decided. *)
    if round > t.base && not (proposed t t.base) then request t
  end

(* A validly signed INIT from [en.en_signer], the first for [round].  Only
   an INIT that passed its checks gets a round record, and none further
   ahead than a DECIDED claim is kept. *)
let init_received (t : t) ~(round : int) (en : entry) : unit =
  let src = en.en_signer in
  if round <= t.base + max_claim_lead then begin
    let tbl = (round_state t round).pool in
    if Hashtbl.mem tbl src || Hashtbl.length tbl >= t.p.n then
      invalid_arg "Abc_core.init_received: INIT pool already holds the sender";
    Hashtbl.add tbl src (Hashtbl.length tbl, en)
  end;
  (* An INIT for a round beyond our window proves its signer delivered our
     base round: ask everyone for the decided batches, as [request_behind]
     rations it.  An INIT inside the window is normal pipelining, even
     over a base round with no activity here: joining it INITs the base
     round too ([init_below]), and once it decides, [decided] asks. *)
  if round >= t.base + t.p.window then request_behind t ~signer:src round
  else begin
    try_send_init_round t round;
    try_propose_round t round
  end

let request_received (t : t) ~(src : int) ~(round : int) : unit =
  if round >= 0 && round < t.base then begin
    t.ports.note (Incr "abc.catchup.request_served");
    send_backlog t ~dst:src ~from_round:round
  end

(* One claim per (round, sender); a second claim with a different batch is
   Byzantine evidence (false).  A round's batch is adopted once t+1
   distinct parties claim it; the adopted decision parks in the reorder
   buffer like any other, so claims for any undelivered round — in-window
   or far ahead — are usable the moment their quorum completes.  Only the
   batch a claim just backed can have completed a quorum, so it is the
   only one counted. *)
let claim_received (t : t) ~(src : int) ~(round : int) (batch : string) : bool =
  if round < t.base || round > t.base + max_claim_lead then true
  else begin
    let claims = (round_state t round).claims in
    match Hashtbl.find_opt claims src with
    | Some b -> String.equal b batch
    | None ->
      Hashtbl.add claims src batch;
      let backers =
        Det.fold claims ~compare:Det.by_int
          (fun _ b n -> if String.equal b batch then n + 1 else n)
          0
      in
      if backers >= one_honest t && not (Hashtbl.mem t.decided_batches round)
      then begin
        t.ports.note (Incr "abc.catchup.adopted");
        decided t ~round batch;
        (* Adopting means we are behind: keep pulling as the base
           advances (without it, test_pipeline "rebuilt party catches up
           across an open window" and test_store's two restarts into a
           quiet cluster fail). *)
        if t.base >= t.pulled_at + catchup_window then request t
      end;
      true
  end

let create (p : params) (ports : ports) : t =
  {
    p; ports;
    pending = Queue.create ();
    next_seq = 0;
    base = 0;
    rounds = Hashtbl.create 16;
    delivered = Hashtbl.create 64;
    term_requests = Hashtbl.create 4;
    parked = 0;
    closing = false;
    closed = false;
    deliveries = 0;
    rounds_completed = 0;
    gate = (fun () -> true);
    decided_batches = Hashtbl.create 32;
    floor = 0;
    requested_for = -1;
    ahead = Array.make p.n (-1);
    behind_at = -1;
    pulled_at = 0;
    missed = Hashtbl.create 16;
    follow = [];
    dur = None;
    init_floor = 0;
  }

let enqueue (t : t) ~(at : float) (framed : string) : unit =
  let o = { seq = fresh_seq t; init_round = max_int; framed; enqueued = at } in
  Queue.push o t.pending;
  t.ports.note (Enqueued o.seq);
  kick t

let send (t : t) ~(at : float) (payload : string) : unit =
  enqueue t ~at ("\x01" ^ payload)

let close (t : t) ~(at : float) : unit =
  if not t.closing && not t.closed then begin
    t.closing <- true;
    enqueue t ~at frame_term
  end

let closed (t : t) = t.closed
let base (t : t) = t.base
let deliveries (t : t) = t.deliveries
let rounds_completed (t : t) = t.rounds_completed
let reorder_depth (t : t) = t.parked
let rounds_held (t : t) = Hashtbl.length t.rounds
let missed_held (t : t) = Hashtbl.length t.missed
let set_gate (t : t) (gate : unit -> bool) : unit = t.gate <- gate

let abort (t : t) : unit = shut t

(* --- the durability seam --- *)

let set_durability (t : t) (d : durability) : unit =
  t.dur <- Some d;
  t.init_floor <- max t.init_floor d.init_floor

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
   strictly forward. *)
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
    let n = t.p.n in
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
      drop_rounds t ~below:base;
      t.ports.end_agreements ~below:base;
      t.base <- base;
      if base > t.floor then t.floor <- base;
      (* Settle the pending payloads the adopted history covers.  One that
         an INIT of ours carried under its seq for a round below the new
         base was delivered: it leaves the ledger.  Any other collides with
         an earlier incarnation's payload under that seq: it and every
         payload behind it move to fresh seqs. *)
      let covered o = Hashtbl.mem t.delivered (t.p.me, o.seq) in
      filter_pending t (fun o -> not (covered o && o.init_round < base));
      renumber_from t covered;
      (* Parked decisions at or past the new base may be deliverable now. *)
      advance t;
      if not t.closed then kick t;
      (* The tail beyond the installed checkpoint comes from the peers'
         retained backlogs.  No check fails without this pull, but
         test/registry.pin and test/cli_smoke.expected move. *)
      request t;
      true
    end
