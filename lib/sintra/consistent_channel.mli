(** The consistent channel: the aggregated-channel construction over
    consistent (echo) broadcast (Section 2.7).

    Guarantees only {b consistency} per message; linear communication per
    message, paid for with threshold-signature computation.  Combined with
    an external stability mechanism this corresponds to the
    Malkhi-Merritt-Rodeh WAN multicast (Section 5). *)

type t

val create :
  Runtime.t -> pid:string ->
  on_deliver:(sender:int -> string -> unit) ->
  ?on_close:(unit -> unit) -> unit -> t
(** Join channel [pid]; [on_deliver] fires per delivered payload with its
    sender, [on_close] once when termination completes. *)

val send : t -> string -> unit
(** Queue a payload on this party's current broadcast instance.
    @raise Invalid_argument once closing or closed. *)
