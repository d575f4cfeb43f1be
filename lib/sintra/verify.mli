(** Cached and batched share/signature verification — the single seam the
    protocol verify paths go through, so the amortization mechanisms
    compose in one place:

    - the verified-share cache (bounded by {!Config.share_cache_cap}): a
      share or assembled signature already verified under the same
      (scheme, statement+share digest, sender, index) key is accepted for
      the price of a hash-table probe, so retransmits, replayed
      justifications and catch-up closings stop re-paying
      exponentiations;
    - batch verification: two or more fresh same-statement share proofs
      are checked as one random-linear-combination equation
      ({!Crypto.Batch}), with bisection identifying bad shares exactly.

    Acceptance is exactly that of the reference one-at-a-time verifiers —
    cache keys cover the share bytes, only verified shares are inserted,
    and {!Crypto.Batch} agrees with the single verifiers item by item.
    Only the virtual-CPU charges move.  Counters:
    [verify.cache_hit]/[verify.cache_miss], histogram [verify.batch_size],
    gauge [verify.cache_size] (with [/max] high-water mark), set at each
    insertion and again by {!Cluster.publish_metrics}, which also writes
    the FIFO's [verify.cache_retained/max].

    Two RSA checks bypass this seam and call {!Crypto.Rsa.verify} with
    their own charge: the atomic channel's INIT signatures and the
    optimistic channel's REPORT signatures.  A cache key here is a SHA-256
    digest over statement and signature; measured on INIT checks, that
    digest cost most of what a hit saves (EXPERIMENTS.md, "Host time: each
    INIT signature verified once"), and sharing the cache's bound would
    move which threshold-signature shares it evicts, and with them virtual
    time.  INIT repeats are answered from the round's INIT pool instead;
    a REPORT is checked once per reporter and epoch, so it never repeats. *)

val tsig_share :
  ?charge:Charge.t ->
  Runtime.t -> pub:Tsig.public -> ctx:string -> string -> Tsig.share -> bool
(** Verify one threshold-signature share on a message, through the cache.
    Entries are grouped under [ctx] (the owning instance's pid) for
    eviction.  [charge] names the meter the cost lands on (default: the
    party's protocol CPU, [rt.charge]); a durability endpoint passes the
    storage core's context ([rt.store_charge]) instead. *)

val tsig_shares :
  ?charge:Charge.t ->
  Runtime.t -> pub:Tsig.public -> ctx:string -> string -> Tsig.share list ->
  bool array
(** Verify same-message shares together: cached shares are skipped, and
    two or more fresh Shoup shares go through one RLC batch
    (multi-signature shares have no combined equation and fall back to
    cached singles, as does a lone fresh share).  [result.(i)] reports the
    [i]-th input share, matching {!tsig_share} share by share.  [charge]
    as in {!tsig_share}. *)

val tsig_signature :
  ?charge:Charge.t ->
  Runtime.t -> pub:Tsig.public -> ctx:string -> signature:string -> string ->
  bool
(** Verify an assembled threshold signature, through the cache — closings
    and vote justifications repeat the same (statement, signature) pair
    across many messages, which all but the first collapse to a probe.
    [charge] as in {!tsig_share}. *)

type enc_stmt = private {
  ct : Crypto.Threshold_enc.checked Crypto.Threshold_enc.ciphertext;
  key_prefix : Hashes.Sha256.midstate;
  (** SHA-256 midstate over [ct]'s canonical bytes, the prefix of every
      decryption-share cache key on it *)
}
(** The statement decryption shares are checked against: a validated
    ciphertext with its cache-key prefix, hashed once.  The secure
    channel keeps one per open slot. *)

val enc_stmt :
  Runtime.t -> Crypto.Threshold_enc.checked Crypto.Threshold_enc.ciphertext ->
  enc_stmt
(** Encode the ciphertext ({!Crypto.Threshold_enc.ciphertext_to_bytes})
    and absorb the bytes into the key prefix. *)

val enc_dec_share :
  Runtime.t -> group:string -> stmt:enc_stmt ->
  Crypto.Threshold_enc.dec_share -> bool
(** Verify one threshold-decryption share against [stmt.ct], through the
    cache; [group] is the owning channel's decryption pid. *)

val coin_share :
  Runtime.t -> group:string -> name:string -> Crypto.Threshold_coin.share ->
  bool
(** Verify one threshold-coin share for coin [name], through the cache;
    [group] is the owning instance's pid (eviction group). *)

val coin_shares :
  Runtime.t -> group:string -> name:string ->
  Crypto.Threshold_coin.share list -> bool
(** Verify a justification's coin shares together (all-or-nothing): cached
    shares are skipped, two or more fresh ones go through one RLC batch, a
    lone one through the single verifier.  On failure the individually-valid complement is
    still cached, so a corrected retransmission amortizes. *)
