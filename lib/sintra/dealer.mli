(** The trusted dealer (Section 2): generates, from one seed, every key of
    a configuration — per-pair link-MAC keys, per-party RSA signing keys,
    the [(n, t+1, t)] coin, two threshold-signature keys (broadcast quorum
    [ceil((n+t+1)/2)] and agreement quorum [n-t]) and the [(n, t+1, t)]
    threshold-encryption keys.  Runs once at initialization, exactly as in
    the paper; key distribution is by construction (each party gets its
    [party_keys] record). *)

type party_keys = {
  index : int;                                     (** 0-based party id *)
  sign_sk : Crypto.Rsa.secret;
  sign_pks : Crypto.Rsa.public array;
  coin_pub : Crypto.Threshold_coin.public;
  coin_share : Crypto.Threshold_coin.secret_share;
  bc_tsig : Tsig.secret;                           (** broadcast quorum *)
  ag_tsig : Tsig.secret;                           (** agreement quorum *)
  enc_pub : Crypto.Threshold_enc.public;
  enc_share : Crypto.Threshold_enc.secret_share;
}

type t = {
  cfg : Config.t;
  mac_keys : string array array;
  parties : party_keys array;
  coin_pub : Crypto.Threshold_coin.public;
  bc_tsig_pub : Tsig.public;
  ag_tsig_pub : Tsig.public;
  enc_pub : Crypto.Threshold_enc.public;
  group : Crypto.Group.t;
}

val deal : seed:string -> Config.t -> t
(** Deterministic in [seed], [n], [t] and the threshold-signature scheme.
    Keys are dealt at fixed small sizes (256-bit RSA and Shoup moduli, a
    256-bit group with a 96-bit subgroup; constants in [dealer.ml]) so runs
    finish in seconds; virtual time prices the paper's 1024-bit keys
    regardless ([Config.model_rsa_bits] and {!Charge}'s discrete-log
    sizes). *)

val net_mac_keys : t -> string array array
(** The MAC-key matrix in the symmetric layout {!Sim.Net.create} expects. *)
