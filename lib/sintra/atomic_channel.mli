(** The atomic broadcast channel (Section 2.5): state-machine replication.

    Chandra-Toueg-style rounds over {e batches}: each party signs the
    vector of all its locally-queued undelivered payloads — capped at
    [max_batch] ({!Config.t}) — with the round number (or adopts and re-signs
    undelivered payloads seen in this round's INITs), proposes a batch of
    [batch_size] vectors signed by distinct parties to the round's
    multi-valued agreement, and delivers the decided union in one round in
    a deterministic order (by original sender, then sequence number).  One
    signature covers a whole vector, so per-round cryptographic cost is
    amortized over every payload in it; with [max_batch = 1] the channel
    degrades to the original one-payload-per-party rounds.

    {b Pipelining}: up to [pipeline_depth] ({!Config.t}) rounds run their
    agreements concurrently, each carrying a prefix of the local queue (up
    to [max_batch] payloads, the one cap); decisions that land out of round
    order park in a reorder buffer and deliver strictly in round order, so
    the delivered sequence is the sequential protocol's.
    [pipeline_depth = 1] reproduces the strictly sequential channel
    exactly.

    {b Agreement & total order}: all honest parties deliver the same
    sequence.  {b Fairness}: a payload known to [f >= t+1] parties is
    delivered within a bounded number of rounds ([batch = n - f + 1]).
    {b Integrity} (the paper's practical weakening): payloads are
    identified by (original sender, per-sender sequence number) and each
    such pair is delivered at most once.

    {b Termination}: [close] broadcasts a termination request as a regular
    payload; the channel closes after the round in which requests from
    [t+1] distinct parties have been delivered — so it terminates iff at
    least one honest party asked. *)

type t

val create :
  Runtime.t -> pid:string ->
  on_deliver:(sender:int -> string -> unit) ->
  ?on_round_end:(unit -> unit) -> ?on_close:(unit -> unit) -> unit -> t
(** Register the channel under [pid]; [on_deliver] fires once per delivered
    payload in the agreed total order, [on_close] when the channel closes.
    [on_round_end] (default: nothing) fires once per delivered round,
    right after the round's last [on_deliver] and before the channel
    closes or slides its window, so a consumer can act on a whole round at
    once — the secure channel sends all of a round's decryption shares in
    one frame per peer.  It fires for a round that delivered no fresh
    payload too.  A channel created by a rebuild hook ({!Runtime.recover})
    asks every party for the rounds it missed once the whole rebuild has
    run — a durability layer's restore included — and keeps asking as
    rounds it adopts from the answers move it forward. *)

val send : t -> string -> unit
(** Queue a payload for broadcast (the paper's send event); any number of
    sends per party.  Payloads queued while a round is in flight ride in
    the next free in-window round's vector together.
    @raise Invalid_argument after the channel closed. *)

val close : t -> unit
(** Request termination (the paper's close event); idempotent. *)

val deliveries : t -> int
(** Payloads delivered locally so far. *)

val current_round : t -> int
(** The next round to deliver — the base of the pipeline window; rounds up
    to [pipeline_depth - 1] ahead of it may already be running. *)

val rounds_completed : t -> int
(** Agreement rounds finished locally — [deliveries / rounds_completed] is
    the realized batching factor. *)

val inflight_rounds : t -> int
(** In-window rounds whose agreement this party has proposed to but which
    have not decided locally — never exceeds [pipeline_depth]. *)

val reorder_depth : t -> int
(** Rounds decided but not yet delivered — the reorder-buffer occupancy
    (0 when the pipeline is drained; bursts above 1 mean decisions landed
    out of round order). *)

val rounds_held : t -> int
(** Undelivered rounds this party keeps a record for.  Only an INIT that
    passes its checks creates one, and none far beyond the base. *)

val missed_held : t -> int
(** Payloads the last delivered round's INITs carried but its batch left
    out: the set batch selection puts first.  Rebuilt from that one round's
    pool at each delivery, so it never exceeds [n * max_batch]. *)

val set_round_hook : t -> (round:int -> batch:string -> unit) -> unit
(** Install the durability layer's per-round hook: fires once per delivered
    round, after the window slid past it, with the decided batch exactly as
    agreed on the wire (the bytes a write-ahead log must persist to replay
    the delivery sequence byte for byte).  The closing round does not fire
    it — a closed channel never restarts. *)

val set_catchup_miss : t -> (dst:int -> unit) -> unit
(** Install the hook fired when party [dst] asks for history below the GC
    floor ({!gc_below}): the retained backlog cannot help it, so the
    durability layer should serve its latest signed snapshot instead. *)

val set_init_hook : t -> (round:int -> unit) -> unit
(** Install the write-ahead hook for this party's own round initiations:
    fires with the round number {e before} the INIT leaves, so the
    durability layer can persist it first.  See {!set_init_floor} for why
    initiations must be durable. *)

val set_init_floor : t -> round:int -> unit
(** Bar this party from initiating rounds below [round] (monotone: the
    floor never moves down).  A restarted party must never re-initiate a
    round it may already have initiated before the crash — the pre-crash
    INIT can still be in flight, and a second INIT for the same round with
    different content is equivocation, indistinguishable from Byzantine
    behaviour.  The durability layer replays the persisted initiation
    water-mark ({!set_init_hook}) and sets the floor one past it; barred
    rounds still complete, driven by the other parties' INITs.  Until the
    channel has delivered every barred round, its INITs carry none of its
    own payloads: a pre-crash payload can still be delivered in those
    rounds under a sequence number the restarted party would otherwise
    reuse. *)

val backlog_rounds : t -> int
(** Decided batches currently retained (catch-up backlog plus reorder
    buffer) — the resident-memory figure a stable checkpoint bounds. *)

val gc_floor : t -> int
(** The lowest round still retained in the backlog; [0] until {!gc_below}
    raises it. *)

val gc_below : t -> round:int -> unit
(** Drop retained batches strictly below [round], clamped to the current
    base: decided-but-undelivered rounds are never dropped, whatever round
    the caller names.  Raises the floor reported by {!gc_floor}. *)

val adopt_round : t -> round:int -> batch:string -> unit
(** Re-feed one decided round from the local write-ahead log (recovery
    replay).  The batch re-enters through the normal reorder buffer, so
    replaying a log in order re-delivers its rounds in round order.  The
    disk is not trusted: the batch's INIT signatures are re-validated
    against this round number, so a tampered log can lose history but
    never forge it. *)

val encode_state : t -> string
(** The canonical state blob a checkpoint covers: next round to deliver,
    the delivered (origin, sequence) set as sorted runs, and the
    termination requests seen.  Honest parties checkpointing the same
    round produce identical bytes — the digest a threshold quorum signs. *)

val install_state : t -> string -> bool
(** Adopt a snapshot state blob, jumping the channel forward; returns
    false (and changes nothing) if the blob is malformed or does not move
    the base strictly forward.  The caller must have verified the
    checkpoint certificate over the blob's digest first.  A queued own
    payload whose sequence number the adopted history covers was delivered
    if one of this channel's INITs carried it under that number for a
    round below the new base, and is dropped; otherwise the number belongs
    to an earlier incarnation's payload, and that payload and every one
    queued behind it get fresh numbers in queue order, so FIFO order is
    kept.  The channel then asks every party for the rounds beyond the
    installed base. *)

val set_gate : t -> (unit -> bool) -> unit
(** Backpressure: while the gate returns false this party neither INITs nor
    proposes for any in-window round — models a consumer that has not
    drained the outputs (the paper: an undrained channel "will stall").
    Call {!kick} when the gate opens. *)

val kick : t -> unit
(** Re-attempt INIT/propose for every in-window round (after the gate
    opens). *)

val abort : t -> unit
(** Tear the channel down without the termination protocol (test harness). *)
