(** The reliable channel: the aggregated-channel construction over Bracha
    reliable broadcast (Section 2.7).

    Guarantees {b agreement} on every delivered message but no cross-sender
    ordering; the cheapest of SINTRA's channels in most settings (Table 1)
    because it uses no public-key operations at all. *)

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

val close : t -> unit
(** Send the termination request as this party's last message. *)
