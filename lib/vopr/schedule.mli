(** Adversarial schedules: a concrete, replayable list of mutations applied
    to one simulation run.

    A schedule is drawn up front from a per-run DRBG, prints to (and parses
    back from) the exact [--mutations] syntax, and shrinks by removing
    mutations.  Destructive mutations (drops, crashes, Byzantine
    behaviours) are confined to at most [t] parties by {!generate}, so the
    oracle library can reason about the never-degraded majority. *)

type mutation =
  | Delay_frame of int * int
      (** [(frame, ms)]: deliver the frame [ms] milliseconds late.  Frames
          are counted globally, in interception order. *)
  | Dup_frame of int  (** deliver the frame twice, back to back *)
  | Replay_frame of int * int
      (** [(frame, ms)]: deliver normally, re-inject a copy [ms] later *)
  | Drop_link of int * int * int
      (** [(src, dst, k)]: silently lose [src]'s frames to [dst] from the
          [k]th frame on that link onwards (a one-way link failure) *)
  | Crash_at of int * int  (** [(party, ms)]: network-level crash *)
  | Recover_at of int * int  (** [(party, ms)]: undo an earlier crash *)
  | Byz_equivocate of int
      (** the party runs an equivocating Byzantine harness instead of an
          honest instance (workload-dependent) *)
  | Byz_selective of int
      (** the party pseudo-randomly omits about a third of its sends *)
  | Byz_cert of int
      (** the party sends forged and relabelled binary-agreement decision
          certificates instead of voting ({!Sintra.Faults.forging_aba};
          [aba] workload only, elsewhere it just counts as degraded) *)

type t = mutation list

val to_string : t -> string
(** Comma-joined mutations in [--mutations] syntax, e.g.
    ["delay@17:250"]; the empty schedule is [""]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on any malformed mutation. *)

val degraded : t -> int list
(** Sorted distinct parties subject to destructive mutations (drops,
    crashes, Byzantine behaviour).  Never-degraded parties keep every
    protocol guarantee. *)

val equivocators : t -> int list
(** Sorted distinct parties with a [Byz_equivocate] mutation. *)

val forgers : t -> int list
(** Sorted distinct parties with a [Byz_cert] mutation. *)

val generate :
  drbg:Hashes.Drbg.t -> n:int -> max_faulty:int -> allow_equiv:bool ->
  allow_cert:bool -> t
(** Draw a schedule: a burst of benign scheduling noise (delay, duplicate,
    replay — any frame), plus destructive behaviour for a random set of at
    most [max_faulty] parties.  [allow_equiv] enables [Byz_equivocate]
    for workloads that support an equivocating-party harness, and
    [allow_cert] [Byz_cert] as well (for the [aba] workload); with
    [allow_cert] false the draws are those of a generator that knows no
    [Byz_cert]. *)

val arm : Sintra.Cluster.t -> run_seed:string -> t -> unit
(** Install the schedule on a cluster: schedules the crash/recover events
    and sets the network intercept implementing the frame and link
    mutations.  [run_seed] seeds the [Byz_selective] omission pattern, so
    a parsed [--mutations] list replays identically.  [Byz_equivocate] is
    not handled here — the workload substitutes the harness at setup. *)
