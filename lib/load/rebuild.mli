(** Rebuild at the tip: the scenario behind both the durability gate
    ([sintra_sim durability-check]) and the durability bench.

    Every party runs an atomic channel — with the durability layer on its
    own in-memory device when an [interval] is given — and a
    {!Sintra.Runtime.on_rebuild} hook that re-creates both after a
    restart.  {!drive} builds the history one drained payload per round,
    round-robin over the parties; {!power_fail} then fails the last party
    at the drained tip, optionally wiping its device, and restarts it. *)

type t = {
  cluster : Sintra.Cluster.t;
  devs : Store.Device.t array;           (** each party's device; survives restarts *)
  durs : Sintra.Durable.t list array;
  (** each party's durability controllers, newest first (one more per
      restart); empty without an [interval] *)
  mutable chans : Sintra.Atomic_channel.t array;  (** each party's live channel *)
  mutable deliveries : (int * string) list;  (** party 0's, newest first *)
  mutable backlog_peak : int;  (** party 0's largest DECIDED backlog after a round *)
}

val create : ?interval:int -> Sintra.Cluster.t -> pid:string -> t
(** Attach a channel named [pid] to every party of the cluster, plus the
    durability layer checkpointing every [interval] rounds when given. *)

val drive : t -> rounds:int -> int
(** Run [rounds] rounds: party [k mod n] sends ["p<k mod n>.m<k>"] and the
    cluster drains before the next, which keeps the round count exact
    whatever the topology or the batch cap.  Returns the events
    executed. *)

val victim : t -> int
(** The party {!power_fail} fails: the last one. *)

val power_fail : t -> wipe:bool -> int
(** Power-fail {!victim} ({!Sintra.Runtime.crash}), empty its device if
    [wipe], restart it and drain the recovery.  Returns the events
    executed. *)

val tip : t -> int -> int
(** Party [p]'s current atomic-broadcast round. *)

val gate :
  make:(unit -> Sintra.Cluster.t) -> rounds:int -> interval:int ->
  string * string list
(** The durability gate ([sintra_sim durability-check]).  Two runs of
    {!drive} over [rounds] rounds, each on a fresh cluster from [make]:
    plain, and durable with checkpoints every [interval] rounds, after
    which {!victim} is power-failed on a wiped device.  Checks that
    (1) party 0 delivers the same sequence in both runs, (2) party 0's
    DECIDED backlog peak stays within [2 * interval + 2 * pipeline_depth
    + 4], (3) the wiped victim adopted a peer snapshot (and restored
    nothing from disk) and caught up to party 0's round, and (4) party 0's
    log parses completely and re-encodes to its device bytes.  Returns
    the report, one line per run and per passed check, and the failures,
    empty when the gate passes. *)
