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
    whatever the topology or the adaptive batch cap.  Returns the events
    executed. *)

val victim : t -> int
(** The party {!power_fail} fails: the last one. *)

val power_fail : t -> wipe:bool -> int
(** Power-fail {!victim} ({!Sintra.Runtime.crash}), empty its device if
    [wipe], restart it and drain the recovery.  Returns the events
    executed. *)

val tip : t -> int -> int
(** Party [p]'s current atomic-broadcast round. *)

val deliveries : t -> (int * string) list
(** Party 0's deliveries as (sender, payload), in delivery order. *)
