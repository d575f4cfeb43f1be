(** Reliable broadcast: the Bracha-Toueg echo/ready protocol (Section 2.2).

    {b Agreement}: all honest parties deliver the same payload or nothing —
    even when the designated sender equivocates.  {b Authenticity}: for an
    honest sender, what is delivered is what was sent.  {b Termination}:
    guaranteed for honest senders.  Quadratic message complexity, but no
    public-key cryptography — only the authenticated links. *)

type t

val create :
  Runtime.t -> pid:string -> sender:int -> on_deliver:(string -> unit) -> t
(** Join broadcast instance [pid] with the given designated [sender];
    [on_deliver] fires at most once. *)

val send : t -> string -> unit
(** Start the broadcast.  Only the designated sender may call this, once.
    @raise Invalid_argument otherwise. *)

val abort : t -> unit
(** Terminate the local instance immediately (the paper's abort: the state
    of other parties is unspecified). *)

(** {2 Wire format}

    Exposed so tests can play a Byzantine sender. *)

val tag_send : int
(** Message tag of the sender's initial SEND. *)

val tag_echo : int
(** Message tag of the first-phase ECHO votes. *)

val encode : tag:int -> string -> string
(** A raw protocol frame for [pid]-less injection: [tag] then the
    payload, in the instance wire format. *)
