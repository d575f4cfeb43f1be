(* Validated (binary) Byzantine agreement: binary agreement with external
   validity and optional bias (end of Section 2.3).

   The proposal carries a "proof" that a [validator] predicate accepts; the
   protocol guarantees every honest party decides a value for which
   validation data exists, and returns that data with the decision.  A
   biased instance always decides the preferred value when it detects that
   an honest party proposed it. *)

type t = Binary_agreement.t

let create ?bias (rt : Runtime.t) ~(pid : string)
    ~(validator : bool -> string -> bool)
    ~(on_decide : bool -> proof:string -> unit) : t =
  Binary_agreement.create ?bias rt ~pid ~validator
    ~on_decide:(fun value proof ->
      on_decide value ~proof:(Option.value proof ~default:""))

let propose (t : t) (value : bool) ~(proof : string) : unit =
  Binary_agreement.propose ~proof t value

let abort : t -> unit = Binary_agreement.abort
