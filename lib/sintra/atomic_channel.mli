(** The atomic broadcast channel (Section 2.5): state-machine replication.

    Chandra-Toueg-style rounds over {e batches}: each party signs the
    vector of its locally-queued undelivered payloads (at most
    [max_batch], {!Config.t}) with the round number, proposes [batch_size]
    vectors signed by distinct parties to the round's multi-valued
    agreement, and delivers the decided union in a deterministic order (by
    original sender, then sequence number).  Up to [pipeline_depth] rounds
    run at once; decisions deliver strictly in round order, so the
    delivered sequence is the sequential protocol's.

    {b Agreement & total order}: all honest parties deliver the same
    sequence.  {b Fairness}: a payload known to [f >= t+1] parties is
    delivered within a bounded number of rounds ([batch = n - f + 1]).
    {b Integrity} (the paper's practical weakening): each (original
    sender, sequence number) pair is delivered at most once.
    {b Termination}: the channel closes after the round in which [t+1]
    distinct parties' termination requests were delivered.

    The protocol itself is {!Abc_core}, which names no engine; this module
    is its shell: the wire codec, the INIT signatures and their charges,
    tracing, the [Runtime] registration and each round's
    {!Array_agreement}. *)

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

val core : t -> Abc_core.t
(** The protocol core behind this channel: the durability layer's seam
    ({!Abc_core.set_durability}, checkpoint state, GC), backpressure
    ({!Abc_core.set_gate}, {!Abc_core.kick}) and the round-level gauges. *)

val adopt_round : t -> round:int -> batch:string -> unit
(** Re-feed one decided round from the local write-ahead log (recovery
    replay).  The batch re-enters through the normal reorder buffer, so
    replaying a log in order re-delivers its rounds in round order.  The
    disk is not trusted: the batch's INIT signatures are re-validated
    against this round number, so a tampered log can lose history but
    never forge it. *)

val abort : t -> unit
(** Tear the channel down without the termination protocol (test harness). *)
