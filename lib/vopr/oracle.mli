(** Protocol oracles: correctness predicates over one finished run.

    Each workload produces an {!obs} record of what every party observed;
    the oracles check the paper's protocol properties over it — agreement,
    total order, per-origin FIFO order, integrity, validity, bounded-quiescence liveness — plus
    the runtime {!Sintra.Invariant} flags.  Soundness leans on the schedule
    contract: destructive mutations only ever hit the [degraded] parties,
    at most [t] of them, so safety is demanded of every honest party while
    liveness is only demanded of the never-degraded honest majority. *)

(** The workload families the explorer can drive. *)
type kind =
  | Reliable  (** reliable broadcast channel *)
  | Consistent  (** consistent (echo) broadcast channel *)
  | Aba  (** binary Byzantine agreement *)
  | Mvba  (** multi-valued Byzantine agreement *)
  | Atomic  (** atomic broadcast channel (total order) *)
  | Secure  (** secure causal atomic channel *)
  | Throughput
      (** atomic broadcast under bursty multi-payload traffic: the same
          oracle suite as the [Atomic] kind, run against rounds whose decided
          batches carry many payloads per party *)
  | Pipeline
      (** atomic broadcast with several rounds in flight: staggered payload
          waves keep the pipeline window full, so the [Atomic] oracle suite
          checks the reorder buffer and window-aware catch-up under the same
          adversarial schedules (crashes, drops, replays) *)
  | Amortized
      (** consistent broadcast under the amortized-crypto stress mix: a
          deterministic retransmit storm (duplicated and replayed frames
          exercising the verified-share cache) plus a Byzantine responder
          that answers every SEND with a wire-well-formed but invalid
          signature share, landing a bad share in echo batches so
          {!Crypto.Batch} bisection must isolate it.  The [Consistent]
          oracle suite applies (consistency without totality) *)
  | Durable
      (** atomic broadcast with the durability layer attached (WAL,
          checkpoints, snapshots) and a scripted mid-run power failure of
          party 3 — volatile state lost, in-memory device preserved —
          followed by a restart that restores from disk and catches up.
          The [Atomic] oracle suite applies, with party 3 — and any party
          that adopted a peer snapshot, since state transfer legitimately
          skips history — added to the degraded set: position-wise
          consistency, total order, totality and liveness are demanded of
          the full-history parties, integrity of everyone *)

val all_kinds : kind list
(** Every workload kind, in declaration order: the sweep set of
    [sintra_sim explore --workload] and of [BENCH_vopr.json]. *)

val kind_to_string : kind -> string
(** Lower-case CLI name, e.g. ["atomic"]. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}. *)

(** Everything one run exposes to the oracles. *)
type obs = {
  kind : kind;  (** which workload produced this run *)
  n : int;  (** group size *)
  t : int;  (** fault threshold *)
  degraded : int list;  (** parties hit by destructive mutations *)
  corrupted : int list;  (** parties replaced by Byzantine harnesses *)
  sent : (int * string) list;
      (** [(origin, payload)] for every honestly submitted message;
          recorded at submission time, so a crashed party's unsent
          messages never appear *)
  delivered : (int * string) list array;
      (** per party, [(origin, payload)] in delivery order *)
  decisions : string option array;
      (** per party, the agreement decision if any *)
  proposals : string option array;
      (** per party, the agreement proposal if any *)
  flagged : (int * string) list array;
      (** per party, [(offender, reason)] invariant flags it raised *)
  quiesced : bool;  (** the run drained within its event/time bounds *)
  events : int;  (** simulation events executed *)
  vtime : float;  (** final virtual time *)
}

(** The outcome of one oracle on one run. *)
type verdict = Pass | Fail of string

(** A named, reusable check. *)
type oracle = {
  name : string;  (** short stable name, e.g. ["total-order"] *)
  check : obs -> verdict;  (** evaluate the property over one run *)
}

val agreement : oracle
(** Honest decisions are all equal (agreement workloads); per-origin
    deliveries are consistent across honest parties, and — for the
    totality-promising kinds, at quiescence — never-degraded honest
    parties hold identical delivery multisets (broadcast workloads). *)

val total_order : oracle
(** Atomic/secure channels only: any two honest delivery sequences are
    prefix-comparable. *)

val fifo : oracle
(** Atomic/secure channels only: at every honest party, deliveries from
    one honest origin follow that origin's submission order ([sent]
    order); gaps and immediate repeats are left to liveness and
    integrity.  For the [Durable] kind only never-degraded origins are
    checked, since a restarted party or snapshot adopter re-proposes
    queued own payloads under fresh sequence numbers. *)

val integrity : oracle
(** No honest party delivers the same message twice, and every delivery
    attributed to an honest origin was really submitted by it. *)

val validity : oracle
(** Agreement workloads with no corrupted parties: decisions come from
    honest proposals, and a unanimous proposal forces that decision. *)

val liveness : oracle
(** The run quiesced, and every never-degraded honest party delivered all
    messages from never-degraded honest senders (or decided, for the
    agreement workloads). *)

val flags : oracle
(** No honest party's invariant checker flagged another honest party. *)

val all : kind -> oracle list
(** The oracle suite applicable to a workload kind. *)
