(** Multi-valued Byzantine agreement with external validity ("array
    agreement", the paper's ArrayAgreement): the protocol of Cachin,
    Kursawe, Petzold and Shoup (CRYPTO 2001), Section 2.4.

    Proposals travel by verifiable consistent broadcast; the parties then
    walk a common candidate permutation, running one biased validated
    binary agreement per candidate until one is accepted — O(t) expected
    iterations.  {b External validity}: the decision satisfies the supplied
    predicate; honest parties never decide a value no honest party would
    accept. *)

type candidate_state

type t = {
  rt : Runtime.t;
  pid : string;
  validator : string -> bool;
  on_decide : string -> unit;
  mutable vcbc : Consistent_broadcast.t array;
  (** per-sender proposal broadcasts (exposed so tests can drive a
      corrupted proposer) *)
  proposals : string option array;
  closings : string option array;
  perm : int array;
  candidates : candidate_state array;
  mutable proposed : bool;
  mutable started_loop : bool;
  mutable loop_index : int;
  mutable decided : bool;
  mutable aborted : bool;
}

val create :
  Runtime.t -> pid:string -> validator:(string -> bool) ->
  on_decide:(string -> unit) -> t
(** [on_decide] fires exactly once with the agreed byte string. *)

val propose : t -> string -> unit
(** @raise Invalid_argument on re-proposal or failing validation. *)

val abort : t -> unit
(** Terminate the local instance and its live sub-protocols. *)
