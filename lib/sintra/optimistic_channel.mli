(** Optimistic atomic broadcast — the paper's "largest performance gain"
    future-work item (Section 6), in the style of Kursawe-Shoup and
    Castro-Liskov.

    With a timely network and an honest sequencer, a message is ordered by
    one verifiable consistent broadcast plus one acknowledgement round — no
    Byzantine agreement, no coin.  On complaints (triggered by a [timeout]
    on any outstanding request) the parties exchange signed, self-certifying
    progress reports and run one multi-valued agreement to fix a common cut,
    then continue under the next leader.

    Safety is timeout-independent (a wrong timeout only costs performance):
    fast delivery waits for n-t acknowledgements, and any n-t recovery
    reports must include one from that quorum, so the agreed cut covers
    every fast-delivered message. *)

type t

val create :
  ?timeout:float ->
  Runtime.t -> pid:string ->
  on_deliver:(sender:int -> string -> unit) -> unit -> t
(** [timeout] (virtual seconds, default 5.0) is the complaint trigger for
    unordered requests. *)

val send : t -> string -> unit
(** Broadcast a payload; any number per party. *)

val current_epoch : t -> int
(** The epoch this party is in (bumped by each recovery). *)

val current_leader : t -> int
(** The sequencer of the current epoch ([epoch mod n]). *)

val deliveries_fast : t -> int
(** Locally delivered on the fast path. *)

val deliveries_recovered : t -> int
(** Locally delivered during epoch-change recovery. *)
