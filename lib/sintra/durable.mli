(** The durability controller: binds the deterministic store (lib/store)
    to an atomic broadcast channel — write-ahead logging of delivered
    rounds, threshold-signed checkpoints every [interval] rounds, log and
    DECIDED-backlog garbage collection below the latest stable checkpoint,
    and verified snapshot state transfer for rebuilt or lagging parties.

    Byzantine-safety invariant: state is only ever adopted under a
    checkpoint certificate assembled from n-t threshold-signature shares
    over the state digest — whether it comes from a peer or from this
    party's own disk — and replayed tail rounds are re-validated through
    the channel's signature checks.  No single replica's word (or disk)
    is trusted. *)

type t
(** One party's durability controller for one channel. *)

val attach :
  Runtime.t -> chan:Atomic_channel.t -> pid:string -> dev:Store.Device.t ->
  ?interval:int -> unit -> t
(** Attach durability to a channel: restore from [dev] (verified snapshot
    adoption plus re-validated tail replay), then register with the
    channel once ({!Abc_core.set_durability}: round and INIT logging, the
    restored INIT floor, snapshot service) and register the controller's
    own network pid ([pid ^ "!dur"]).  The controller sends no catch-up request of its
    own: the channel's requests reach it when they ask for history below
    the GC floor, and it answers them with a snapshot.  [pid] must be
    the channel's pid — it names the certified statement.  [interval]
    (default 256) is the checkpoint period in rounds; [0] disables
    checkpointing (log only).  The device must be held OUTSIDE the
    runtime so it survives [Runtime.crash], like a disk. *)

val device : t -> Store.Device.t
(** The backing device (for inspection and crash/recover tests). *)

val stable_checkpoint : t -> Store.Checkpoint.t option
(** The latest stable (certificate-backed) checkpoint, if any. *)

val checkpoints : t -> int
(** Checkpoints this party saw reach stability locally. *)

val snapshots_served : t -> int
(** Snapshots sent to stragglers whose history fell below the GC floor. *)

val snapshots_adopted : t -> int
(** Peer snapshots verified and installed here. *)

val replayed_rounds : t -> int
(** Rounds re-delivered from the local log during the last restore. *)

val restored_from : t -> int
(** The checkpoint round the last restore started from: [-1] if the
    device held no usable snapshot (fresh start or distrusted disk),
    [0] or more when a verified local snapshot was installed. *)
