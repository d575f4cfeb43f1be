(** Consistent broadcast: Reiter's "echo broadcast" with threshold
    signatures (Section 2.2), in its {e verifiable} form (Section 3.2).

    {b Consistency}: parties that deliver, deliver the same payload — but
    some may deliver nothing (weaker than reliable broadcast's agreement).
    Linear communication, paid for with threshold-signature computation:
    the trade-off Table 1 measures.

    Verifiability: the (payload, threshold signature) pair is a {e closing
    message} that lets any party deliver and terminate without further
    communication; multi-valued agreement uses closing messages as
    transferable proofs that a candidate proposed. *)

type t

val create :
  Runtime.t -> pid:string -> sender:int -> on_deliver:(string -> unit) -> t
(** Join echo-broadcast instance [pid] with the given designated [sender];
    [on_deliver] fires at most once. *)

val send : t -> string -> unit
(** @raise Invalid_argument if not the sender, or already sent. *)

val get_closing : t -> string option
(** The closing message of a delivered instance (the paper's getClosing). *)

val payload_of_closing : string -> string option
(** The paper's getPayloadFromClosing. *)

val closing_valid : Runtime.t -> pid:string -> string -> bool
(** The paper's isValidClosing: verify a closing message against instance
    [pid] using only public keys. *)

val deliver_closing : t -> string -> bool
(** Deliver from a closing message alone; true iff delivered (also when
    already delivered).  The paper's deliverClosing. *)

val abort : t -> unit
(** Terminate the local instance immediately. *)

(** {2 Wire format} (exposed for adversarial tests) *)

val tag_send : int
(** Message tag of the sender's initial SEND. *)

val tag_echo : int
(** Message tag of the signed ECHO replies. *)

val tag_final : int
(** Message tag of the FINAL (closing) message. *)

val statement : pid:string -> string -> string
(** The string actually threshold-signed: binds instance and payload. *)
