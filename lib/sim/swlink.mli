(** A sliding-window reliable FIFO link with {e authenticated}
    acknowledgments — the paper's planned replacement for its TCP links,
    which it notes are "subject to a denial-of-service attack by sending
    forged TCP acknowledgements" (Section 3).

    Selective-repeat over lossy, reordering datagrams; both DATA and ACK
    frames carry HMACs under the pair key, so a spoofed acknowledgement can
    neither advance nor stall the window. *)

type endpoint

val create :
  engine:Engine.t -> mac_key:string -> ?window:int -> ?rto:float ->
  out:(string -> unit) -> deliver:(string -> unit) -> unit -> endpoint
(** One side of a pair.  Outgoing datagrams leave through [out] (which may
    drop, delay, duplicate or reorder them); in-order payloads arrive at
    [deliver].  [window] (default 32) bounds frames in flight; [rto]
    (default 0.5 s virtual) is the retransmission timeout. *)

val send : endpoint -> string -> unit
(** Queue a payload for exactly-once, in-order delivery at the peer. *)

val on_datagram : endpoint -> string -> unit
(** Feed one received datagram — possibly duplicated, reordered, truncated
    or forged; anything unauthentic is counted and dropped. *)

val in_flight : endpoint -> int
(** Unacknowledged DATA frames currently in the window. *)

val backlog_length : endpoint -> int
(** Payloads queued behind a full window, not yet transmitted. *)

val retransmissions : endpoint -> int
(** DATA frames re-sent after a retransmission timeout. *)

val rejected_frames : endpoint -> int
(** Received frames dropped as malformed or failing authentication. *)

val macs : endpoint -> int
(** HMACs this endpoint computed: one per DATA or ACK frame sent (first
    sends and retransmissions) and one per well-formed frame checked. *)
