(** Randomized binary Byzantine agreement: the Cachin-Kursawe-Shoup
    protocol (PODC 2000), Section 2.3 of the paper.

    Rounds of justified pre-votes and main-votes, with the threshold coin
    breaking symmetry; terminates in an expected constant number of rounds.
    {b Agreement}: honest parties decide the same bit.  {b Validity}: the
    decision was proposed by an honest party.  Every vote carries
    non-interactively verifiable justification (threshold signatures over
    vote statements, or the previous round's coin shares), so corrupted
    parties cannot vote outside the protocol.

    A party halts in the round it decides.  The n-t main-vote shares it
    decides on form a transferable decision certificate (the agreement
    key's threshold signature on "main-vote b in round r"); while halted,
    the instance answers each peer it hears from in a later round with
    one DECIDED frame carrying the certificate and the validation data.
    A party that receives a valid certificate decides its bit, passes the
    certificate on once to every peer and halts; an invalid one flags its
    sender through {!Invariant.flag}.  The certificate proves that at
    least t+1 honest parties main-voted b in round r, so every honest
    party that completes the round carries b into the next one: no other
    bit can be decided.  The per-party registry counters
    [aba.cert_sent] and [aba.cert_decided] count the frames and the
    decisions taken on them; [aba.coin_pregen] counts the coin-share
    nonces drawn (and charged) at a round's start, [aba.coin_finished]
    the shares computed because a round revealed them.

    [?bias] replaces the round-1 coin by a fixed value: the protocol then
    always decides the preferred value when it detects an honest party
    proposed it.  [?validator] adds external validity: an honest party only
    decides a value it holds validation data for, and the data accompanies
    the decision (deferred until it arrives, if necessary). *)

type t

val create :
  ?bias:bool ->
  ?validator:(bool -> string -> bool) ->
  Runtime.t -> pid:string ->
  on_decide:(bool -> string option -> unit) -> t
(** [on_decide value proof] fires exactly once; [proof] is the external
    validation data when a validator is installed. *)

val propose : ?proof:string -> t -> bool -> unit
(** Start this party's participation.  Each party proposes exactly once;
    after a peer's certificate has decided the instance, the proposal is
    only recorded.
    @raise Invalid_argument on a second proposal, or (with a validator) if
    the proof does not validate the value. *)

val abort : t -> unit
(** Terminate the local instance immediately: it answers nothing more,
    certificates included. *)
