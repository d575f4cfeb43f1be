(** Runtime protocol-invariant checker, run inside every party's protocol
    handlers.

    Local invariant violations (broken quorum arithmetic, duplicate-sender
    tallies, out-of-range indices) are bugs in this party's code and raise
    {!Violation}; remote misbehaviour (equivocation by a Byzantine peer) is
    tolerated by the protocols and therefore only {i recorded}, for tests
    and operators to inspect via {!flagged}. *)

exception Violation of string

type t

val create : Config.t -> t
(** A checker for one party, after verifying the configuration's quorum
    arithmetic (n > 3t; echo/vote/ready/coin thresholds and their
    intersection properties).
    @raise Violation if the quorum arithmetic is broken. *)

val require : bool -> string -> unit
(** Assert a local invariant.  @raise Violation when false. *)

val sender_in_range : t -> int -> unit
(** 0-based sender index must lie in [0, n). *)

val share_index : t -> int -> unit
(** 1-based share origin must lie in [1, n]. *)

val fresh_sender : t -> (int, 'a) Hashtbl.t -> int -> string -> unit
(** Call immediately before adding to a sender-keyed tally: the sender must
    be in range, not already present, and the tally must have room. *)

val flag : t -> offender:int -> string -> unit
(** Record evidence of remote (Byzantine) misbehaviour; never raises. *)

val flagged : t -> (int * string) list
(** All recorded misbehaviour, oldest first. *)
