(** Aggregated broadcast channels (Section 2.7): a virtual channel running
    [n] broadcast instances in parallel — one per sender — allocating a new
    instance whenever one delivers.  No ordering across senders; per-sender
    FIFO by construction.  Exchanges no messages of its own.

    Termination: a closing party sends a termination request as its last
    message; on delivering [t+1] requests the channel aborts the live
    instances and terminates. *)

module type BROADCAST = sig
  type t

  val create :
    Runtime.t -> pid:string -> sender:int -> on_deliver:(string -> unit) -> t
  (** One single-shot broadcast instance with [sender] as its designated
      origin, delivering at most once through [on_deliver]. *)

  val send : t -> string -> unit
  (** Start the broadcast (designated sender only). *)

  val abort : t -> unit
  (** Tear the instance down: unregister handlers, ignore late frames. *)
end

module Make (_ : BROADCAST) : sig
  type t

  val create :
    Runtime.t -> pid:string ->
    on_deliver:(sender:int -> string -> unit) ->
    ?on_close:(unit -> unit) -> unit -> t
  (** The aggregated channel: [n] underlying instances, re-allocated as
      they deliver; [on_close] fires once when termination completes. *)

  val send : t -> string -> unit
  (** Queue a payload on this party's current instance.
      @raise Invalid_argument once closing or closed. *)

  val close : t -> unit
  (** Send the termination request as this party's last message. *)
end
