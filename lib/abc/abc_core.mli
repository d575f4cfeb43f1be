(** The atomic broadcast channel's protocol core (Section 2.5), free of any
    engine, runtime, charging, tracing or crypto.

    It holds the round window, the own-payload ledger and its renumber
    rule, the per-round records, when to INIT and with what (the own
    prefix and bounded-wait adoption), starved-first batch selection, the
    reorder buffer, the catch-up triggers and claim
    adoption, garbage collection, the checkpointed state and the restart
    INIT floor.  It takes decoded, verified events and acts only through
    its {!ports}; [Sintra.Atomic_channel] is the shell that supplies them
    (wire codec, signatures and their charges, tracing, the per-round
    agreement). *)

type item = {
  it_orig : int;          (** original sender, 0-based *)
  it_seq : int;           (** per-original-sender sequence number *)
  it_payload : string;    (** the payload with its frame byte *)
}

type entry = {
  en_signer : int;
  en_items : item list;   (** at most [max_batch] *)
  en_sig : string;        (** one signature over the whole vector *)
}
(** One party's signed payload vector for a round: what an INIT carries
    and what the agreed batch is made of. *)

type params = {
  n : int;
  t : int;
  me : int;
  batch_size : int;       (** vectors per agreed batch (B) *)
  max_batch : int;        (** payloads per vector *)
  window : int;           (** rounds in flight *)
}

(** What the shell may record; the core reads none of it back. *)
type note =
  | Enqueued of int               (** an own payload queued under this seq *)
  | Sample of string * int        (** a count-histogram sample *)
  | Latency of float              (** an own payload delivered: its [~at] *)
  | Waited of int                 (** rounds it waited after its first INIT *)
  | Delivered of item
  | Batch of int                  (** a round delivered this many payloads *)
  | Span_end of string * int      (** ["agree"] or ["round"], round *)
  | Incr of string                (** a counter *)

type ports = {
  send_init : round:int -> item list -> entry;
  (** Sign our vector for [round], broadcast the INIT, return the entry. *)
  propose : round:int -> entry list -> unit;
  (** Propose this batch to [round]'s agreement; its decision comes back
      through {!decided}. *)
  decode : string -> entry list option;
  end_agreements : below:int -> unit;
  (** Abort the agreements of the rounds below [below].  A delivered
      round's agreement ends [max 2 window] rounds after its delivery, a
      grace period for lagging parties; every agreement ends when the
      channel closes or aborts. *)
  may_request : unit -> bool;     (** false while a rebuild runs *)
  send_request : int -> unit;     (** broadcast REQUEST(base) *)
  send_decided : dst:int -> round:int -> string -> unit;
  deliver : sender:int -> string -> unit;
  round_end : unit -> unit;
  on_close : unit -> unit;
  note : note -> unit;
}

type durability = {
  log_round : round:int -> batch:string -> unit;
  (** Fires once per delivered round, after the window slid past it, with
      the decided batch exactly as agreed (what a write-ahead log must
      persist).  The closing round does not fire it. *)
  serve_snapshot : dst:int -> unit;
  (** Party [dst] asked for history below {!gc_floor}. *)
  log_init : round:int -> unit;
  (** Fires {e before} our INIT for [round] leaves. *)
  init_floor : int;
  (** No own INIT below this round: a restarted party must never
      re-initiate a round its pre-crash INIT may cover.  Until the
      channel has delivered every barred round its INITs carry none of
      its own payloads. *)
}
(** The durability layer's one registration. *)

type t

val create : params -> ports -> t

val send : t -> at:float -> string -> unit
(** Queue a payload; [at] is the clock {!Latency} reports back. *)

val close : t -> at:float -> unit
(** Queue our termination request (idempotent). *)

val init_received : t -> round:int -> entry -> unit
(** The first INIT from [en_signer] for [round] ([>= base]), its
    signature and cap checked. *)

val pooled : t -> round:int -> signer:int -> entry option
(** The INIT held for [signer] in [round]. *)

val decided : t -> round:int -> string -> unit
(** [round]'s agreement decided this batch (or it was adopted). *)

val awaits : t -> round:int -> bool
(** Open, at or past the base, and not decided yet. *)

val claim_received : t -> src:int -> round:int -> string -> bool
(** A DECIDED claim; false when it conflicts with [src]'s earlier claim
    for the round (Byzantine evidence). *)

val request_received : t -> src:int -> round:int -> unit
(** REQUEST(round) from [src]: serve our backlog from [round]. *)

val request : t -> unit
(** Broadcast REQUEST(base) now (the restart pull). *)

val kick : t -> unit
(** Re-attempt INIT and propose for every in-window round. *)

val set_gate : t -> (unit -> bool) -> unit
(** Backpressure: while the gate returns false this party neither INITs
    nor proposes; {!kick} when it opens. *)

val abort : t -> unit

val closed : t -> bool

val base : t -> int
(** The next round to deliver. *)

val deliveries : t -> int

val rounds_completed : t -> int

val inflight_rounds : t -> int
(** In-window rounds we proposed to that have not decided — never above
    [window]. *)

val reorder_depth : t -> int
(** Rounds decided but not yet delivered. *)

val rounds_held : t -> int
(** Undelivered rounds we keep a record for.  Only an INIT that passed its
    checks creates one, and none beyond [base + 256]. *)

val missed_held : t -> int
(** Payloads the last delivered round's INITs carried but its batch left
    out: the set batch selection puts first, at most [n * max_batch]. *)

val set_durability : t -> durability -> unit
(** Register the durability layer, once, after its restore. *)

val backlog_rounds : t -> int
(** Decided batches retained (catch-up backlog plus reorder buffer). *)

val gc_floor : t -> int
(** The lowest round still retained; [0] until {!gc_below} raises it. *)

val gc_below : t -> round:int -> unit
(** Drop retained batches below [round], clamped to the base. *)

val encode_state : t -> string
(** The canonical state a checkpoint covers: next round to deliver, the
    delivered (origin, sequence) set as sorted runs, the termination
    requests seen.  Honest parties at the same round produce identical
    bytes. *)

val install_state : t -> string -> bool
(** Adopt a verified state blob, jumping forward; false (and no change) if
    it is malformed or does not move the base strictly forward.  A queued
    own payload the adopted history covers was delivered if one of our
    INITs carried it under that seq below the new base, and is dropped;
    otherwise it and every one queued behind it get fresh seqs, in queue
    order.  Then asks every party for the rounds beyond the new base. *)
