(** Validated (binary) Byzantine agreement: external validity and optional
    bias over {!Binary_agreement} (end of Section 2.3).

    The proposal carries a proof accepted by [validator]; every honest
    party decides a value for which validation data exists and obtains that
    data with the decision (the paper's getProof). *)

type t

val create :
  ?bias:bool ->
  Runtime.t -> pid:string ->
  validator:(bool -> string -> bool) ->
  on_decide:(bool -> proof:string -> unit) -> t
(** [on_decide value ~proof] fires exactly once, with validation data for
    the decided value. *)

val propose : t -> bool -> proof:string -> unit
(** @raise Invalid_argument on re-proposal or failing validation. *)

val abort : t -> unit
(** Terminate the local instance immediately. *)
