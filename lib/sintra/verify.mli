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
    gauge [verify.cache_size] (with [/max] high-water mark). *)

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

val enc_dec_share :
  Runtime.t -> group:string -> ct:Crypto.Threshold_enc.ciphertext ->
  Crypto.Threshold_enc.dec_share -> bool
(** Verify one threshold-decryption share against its ciphertext, through
    the cache; [group] is the owning channel's decryption pid. *)

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
