(** Static group configuration.

    SINTRA's group model is static: [n] servers of which at most [t < n/3]
    may be corrupted, all keys dealt up front by a trusted dealer.  The
    real key sizes are {!Dealer}'s constants (small, so runs stay fast);
    [model_rsa_bits] drives the virtual-time cost model, with {!Charge}'s
    1024/160-bit discrete-log constants, so experiments model the paper's
    1024-bit keys — or sweep the RSA size, as in Figure 6 — independently
    of the real key size. *)

type tsig_scheme =
  | Shoup        (** proper RSA threshold signatures (Shoup, EUROCRYPT 2000) *)
  | Multi        (** a vector of ordinary RSA signatures (Section 2.1) *)

type perm_mode =
  | Fixed           (** multi-valued agreement candidate order 1..n *)
  | Random_local    (** pseudo-random order derived from the protocol id *)

type t = {
  n : int;
  t : int;
  batch_size : int;          (** atomic broadcast batch, paper: [t+1] *)
  max_batch : int;
  (** Cap on the payload vector each party proposes per atomic-broadcast
      round: a round's INIT carries up to [max_batch] locally-queued
      undelivered payloads under one signature, so agreement cost is
      amortized over the whole vector.  [1] reproduces the original
      one-payload-per-party rounds (the benchmarks' [--no-batching]).  The
      cap in force self-tunes by AIMD on the observed queue depth, between
      a floor of [min 8 max_batch] and this ceiling. *)
  pipeline_depth : int;
  (** Bound on atomic-broadcast rounds in flight concurrently: parties may
      INIT and run agreement for round [k + pipeline_depth - 1] while rounds
      [k ..] are still undecided; delivery stays strictly in round order via
      a reorder buffer.  [1] reproduces the strictly sequential protocol
      (round [k+1] starts only after round [k] delivers). *)
  tsig_scheme : tsig_scheme;
  perm_mode : perm_mode;
  model_rsa_bits : int;      (** RSA key size the cost model prices *)
  share_cache_cap : int;
  (** Bound on the verified shares {!Verify} remembers per party, keyed by
      (scheme, message digest, sender, index), so retransmits, replays and
      catch-up batches charge a hash-table probe instead of re-verifying
      (FIFO eviction). *)
}

val validate : t -> unit
(** @raise Invalid_argument if [n <= 3t] or the batch size is infeasible. *)

val echo_quorum : t -> int
(** [ceil((n+t+1)/2)] — echo/share quorum of the broadcast primitives. *)

val vote_quorum : t -> int
(** [n - t] — the vote quorum of the agreement protocols. *)

val ready_quorum : t -> int
(** [2t + 1] — the delivery quorum of reliable broadcast. *)

val coin_threshold : t -> int
(** [t + 1] — shares needed to assemble the common coin. *)

val dec_threshold : t -> int
(** [t + 1] — decryption shares needed by the secure channel. *)

val one_honest : t -> int
(** [t + 1] — the smallest set certain to contain an honest party (READY
    amplification, batch adoption, termination-request counting). *)

val make :
  ?batch_size:int -> ?max_batch:int -> ?pipeline_depth:int ->
  ?tsig_scheme:tsig_scheme ->
  ?perm_mode:perm_mode ->
  ?model_rsa_bits:int -> ?share_cache_cap:int ->
  n:int -> t:int -> unit -> t
(** Defaults: batch [t+1], max batch 256 payloads per party per round,
    pipeline depth 4 with adaptive batching, multi-signatures, fixed
    candidate order, modeled 1024-bit RSA, a 4096-entry verified-share
    cache. *)
