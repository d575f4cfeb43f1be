(* The trusted dealer (Section 2): generates, from one seed, every key of a
   configuration — per-pair link MAC keys, per-party RSA signing keys, the
   dual-threshold coin keys, two threshold-signature keys (one with the
   broadcast quorum ceil((n+t+1)/2), one with the agreement quorum n-t), and
   the threshold-encryption keys.  The dealer runs once at initialization,
   exactly as in the paper. *)

(* The real key sizes.  Every run deals at these small sizes so tests and
   benchmarks finish in seconds; virtual time prices the paper's 1024-bit
   keys regardless (Config.model_rsa_bits, Charge's discrete-log sizes).
   Raise them to 1024/1024/1024/160 for full-size cryptography. *)
let rsa_bits = 256     (* per-party signing keys and multi-signatures *)
let tsig_bits = 256    (* Shoup threshold-signature modulus *)
let dl_pbits = 256     (* discrete-log field prime *)
let dl_qbits = 96      (* discrete-log subgroup order *)

type party_keys = {
  index : int;                                     (* 0-based party id *)
  sign_sk : Crypto.Rsa.secret;                     (* own signing key *)
  sign_pks : Crypto.Rsa.public array;              (* everyone's public keys *)
  coin_pub : Crypto.Threshold_coin.public;
  coin_share : Crypto.Threshold_coin.secret_share;
  bc_tsig : Tsig.secret;                           (* k = ceil((n+t+1)/2) *)
  ag_tsig : Tsig.secret;                           (* k = n - t *)
  enc_pub : Crypto.Threshold_enc.public;
  enc_share : Crypto.Threshold_enc.secret_share;
}

type t = {
  cfg : Config.t;
  mac_keys : string array array;                   (* [i].[j] for i <= j *)
  parties : party_keys array;
  coin_pub : Crypto.Threshold_coin.public;
  bc_tsig_pub : Tsig.public;
  ag_tsig_pub : Tsig.public;
  enc_pub : Crypto.Threshold_enc.public;
  group : Crypto.Group.t;
}

let deal_tsig ~(drbg : Hashes.Drbg.t) (cfg : Config.t) ~(k : int) ~(label : string)
    : Tsig.secret array =
  match cfg.Config.tsig_scheme with
  | Config.Shoup ->
    let keys =
      Crypto.Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg label)
        ~modulus_bits:tsig_bits ~nparties:cfg.Config.n ~k ~t:cfg.Config.t ()
    in
    Array.map
      (fun s -> Tsig.Shoup_sec (keys.Crypto.Threshold_sig.public, s))
      keys.Crypto.Threshold_sig.shares
  | Config.Multi ->
    let keys =
      Crypto.Multi_sig.deal ~drbg:(Hashes.Drbg.fork drbg label)
        ~modulus_bits:rsa_bits ~nparties:cfg.Config.n ~k ~t:cfg.Config.t ()
    in
    Array.map
      (fun s -> Tsig.Multi_sec (keys.Crypto.Multi_sig.public, s))
      keys.Crypto.Multi_sig.shares

let deal ~(seed : string) (cfg : Config.t) : t =
  Config.validate cfg;
  let n = cfg.Config.n and t = cfg.Config.t in
  let drbg = Hashes.Drbg.create ~seed:("sintra-dealer|" ^ seed) in
  (* Link MAC keys: one 16-byte key per unordered pair, as in the paper. *)
  let mac_keys =
    Array.init n (fun i ->
      Array.init n (fun j ->
        if j < i then ""
        else Hashes.Drbg.bytes (Hashes.Drbg.fork drbg (Printf.sprintf "mac-%d-%d" i j)) 16))
  in
  (* Per-party signing keys. *)
  let sign_keys =
    Array.init n (fun i ->
      Crypto.Rsa.keygen ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "sign-%d" i))
        ~bits:rsa_bits ())
  in
  let sign_pks = Array.map (fun sk -> sk.Crypto.Rsa.pub) sign_keys in
  (* The discrete-log group shared by the coin and the cryptosystem. *)
  let group =
    Crypto.Group.generate ~drbg:(Hashes.Drbg.fork drbg "group")
      ~pbits:dl_pbits ~qbits:dl_qbits
  in
  let coin =
    Crypto.Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin") ~group
      ~n ~k:(Config.coin_threshold cfg) ~t
  in
  let bc = deal_tsig ~drbg cfg ~k:(Config.echo_quorum cfg) ~label:"tsig-bc" in
  let ag = deal_tsig ~drbg cfg ~k:(Config.vote_quorum cfg) ~label:"tsig-ag" in
  let enc =
    Crypto.Threshold_enc.deal ~drbg:(Hashes.Drbg.fork drbg "enc") ~group
      ~n ~k:(Config.dec_threshold cfg) ~t
  in
  let parties =
    Array.init n (fun i ->
      {
        index = i;
        sign_sk = sign_keys.(i);
        sign_pks;
        coin_pub = coin.Crypto.Threshold_coin.public;
        coin_share = coin.Crypto.Threshold_coin.shares.(i);
        bc_tsig = bc.(i);
        ag_tsig = ag.(i);
        enc_pub = enc.Crypto.Threshold_enc.public;
        enc_share = enc.Crypto.Threshold_enc.shares.(i);
      })
  in
  {
    cfg;
    mac_keys;
    parties;
    coin_pub = coin.Crypto.Threshold_coin.public;
    bc_tsig_pub = Tsig.public_of_secret bc.(0);
    ag_tsig_pub = Tsig.public_of_secret ag.(0);
    enc_pub = enc.Crypto.Threshold_enc.public;
    group;
  }

(* MAC key matrix in the symmetric layout Net expects. *)
let net_mac_keys (d : t) : string array array =
  let n = d.cfg.Config.n in
  Array.init n (fun i -> Array.init n (fun j -> d.mac_keys.(min i j).(max i j)))
