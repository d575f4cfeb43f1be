(** Reusable fault-injection scenarios over the network adversary hook.

    The asynchronous model gives the adversary full control of message
    scheduling; these helpers package the standard attacks for tests and
    experiments.  Only one spec is active at a time. *)

type spec = src:int -> dst:int -> string -> Sim.Net.action

val install : Cluster.t -> spec -> unit
(** Make [spec] the cluster's active network intercept. *)

val eclipse : int -> delay:float -> spec
(** Delay all traffic {e into} one party (an eclipsed node). *)

val drop_every : int -> spec
(** Drop every nth message globally. *)

val duplicate_every : int -> spec
(** Duplicate every nth message globally; both copies carry valid MACs, so
    protocols must deduplicate. *)

val replay_every : int -> delay:float -> spec
(** Replay every nth message after [delay] extra seconds (the copy bypasses
    FIFO order, like an adversary re-injecting recorded frames). *)

val partition : Cluster.t -> groups:int list list -> heal_at:float -> spec
(** Split the group into components whose cross-traffic is held back until
    [heal_at] virtual seconds, then released — nothing is lost, only
    delayed, as the asynchronous model allows.  Protocols must stall during
    the partition (no component has n-t members) and resume after. *)

(** {1 Byzantine party harnesses}

    These run a {e corrupted} party: instead of an honest instance it emits
    hand-crafted frames under its genuine keys.  Wire layouts are duplicated
    from the protocol modules on purpose — a real attacker does not link
    against our implementation. *)

val equivocate_send :
  Cluster.t -> party:int -> pid:string -> to_a:int list -> a:string ->
  b:string -> unit
(** Send a broadcast SEND frame for [pid] from [party] with payload [a] to
    the parties in [to_a] and [b] to everyone else.  Works against both
    reliable and consistent broadcast (same opening frame layout). *)

val equivocating_cbc_sender :
  Cluster.t -> party:int -> pid:string -> to_a:int list -> a:string ->
  b:string -> unit
(** A full equivocating consistent-broadcast sender: splits SEND payloads,
    collects echo shares for [a] (adding its own), and broadcasts the
    assembled closing message to everyone — including the parties shown
    [b], who deliver [a] anyway and flag the sender.  [to_a] needs at least
    [echo_quorum - 1] honest members for the closing to assemble. *)

val bad_share_cbc_responder :
  Cluster.t -> party:int -> pids:string list -> unit
(** A Byzantine consistent-broadcast echo responder: for each instance in
    [pids], answer the sender's SEND with a wire-well-formed signature share
    released under [party]'s genuine key for a {e corrupted} statement.
    Every verification path — single, batched, cached — must reject it; an
    amortizing sender sees one bad share per echo batch, driving
    {!Crypto.Batch} bisection, and still closes from the honest
    [echo_quorum] while flagging [party]. *)

val equivocating_aba :
  Cluster.t -> party:int -> pid:string -> to_true:int list -> unit
(** An equivocating binary-agreement party: validly signed round-1
    pre-votes for [true] to the parties in [to_true], [false] to the rest.
    The conflict surfaces via abstain justifications and is flagged. *)

val forging_aba :
  Cluster.t -> party:int -> pid:string -> to_true:int list -> unit
(** A binary-agreement party that sends decision certificates instead of
    votes: a forged round-1 certificate for [true] to the parties in
    [to_true] and for [false] to the rest, then, once it has collected a
    quorum of honest main-vote shares for a bit in some round, that
    genuine signature relabelled with the other bit and with the next
    round.  Each fails its check; a receiver still undecided when it
    arrives flags [party]. *)
