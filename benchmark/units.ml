(* Host-time unit costs of the public crypto and bignum functions, timed
   with the run's own dealer keys at the run's actual key sizes.

   Each figure is the median of five timed groups of calls, after a
   warm-up, in scaled microseconds of CPU time per call ([Hostclock]).
   The operation names are those of the protocol stack's crypto trace
   spans ([Charge]), so a span count times a unit cost is host time
   attributed to that operation. *)

open Sintra

(* Median of five groups, each repeating [f] for at least [group_s] of
   process CPU time, scaled by [Hostclock] like every host time. *)
let time_us ?(group_s = 0.005) (f : unit -> unit) : float =
  for _ = 1 to 3 do f () done;
  let group () =
    let iters = ref 0 in
    let (), scaled =
      Hostclock.timed (fun () ->
        let t0 = Sys.time () in
        while Sys.time () -. t0 < group_s || !iters < 3 do
          f ();
          incr iters
        done)
    in
    scaled /. float_of_int !iters
  in
  let samples = Array.init 5 (fun _ -> group ()) in
  Array.sort Float.compare samples;
  samples.(2) *. 1e6

(* The crypto spans the configured stack can emit, in a fixed order.
   Nested spans (a multi-signature share is an RSA signature; a decryption
   share checks its ciphertext first) are counted as the outermost
   operation, and timed through that operation's public function, which
   performs the nested work itself. *)
let ops =
  [ "rsa_sign"; "rsa_verify"; "tsig_release"; "tsig_verify_share";
    "tsig_assemble"; "tsig_verify"; "coin_release"; "coin_verify_share";
    "coin_verify_share_batch"; "coin_assemble"; "enc_encrypt"; "enc_ct_valid";
    "enc_dec_share"; "enc_verify_share"; "enc_combine"; "cache_hit" ]

let take k l = List.filteri (fun i _ -> i < k) l

(* [msg_bytes] sizes the signed messages; [batch_k] is the mean coin-share
   batch the run verified (timed at its floor and ceiling and interpolated,
   since a batch costs a fixed part plus a per-share part). *)
let crypto (d : Dealer.t) ~(msg_bytes : int) ~(batch_k : float) :
    (string * float) list =
  let drbg = Hashes.Drbg.create ~seed:"bench-units" in
  let cfg = d.Dealer.cfg in
  let parties = Array.to_list d.Dealer.parties in
  let msg = String.make msg_bytes 'm' and ctx = "bench/unit" in
  let p0 = d.Dealer.parties.(0) in
  (* RSA *)
  let signature = Crypto.Rsa.sign p0.Dealer.sign_sk ~ctx msg in
  let pk = p0.Dealer.sign_pks.(0) in
  (* threshold signatures, agreement quorum *)
  let pub = d.Dealer.ag_tsig_pub in
  let k = Tsig.k pub in
  let shares =
    List.map (fun p -> Tsig.release ~drbg p.Dealer.ag_tsig ~ctx msg) parties
  in
  let sig_k = take k shares in
  let assembled = Tsig.assemble pub ~ctx msg sig_k in
  (* threshold coin *)
  let coin = d.Dealer.coin_pub and name = "bench/coin" in
  let coin_shares =
    List.map
      (fun p -> Crypto.Threshold_coin.release ~drbg coin p.Dealer.coin_share ~name)
      parties
  in
  let coin_k = take (Config.coin_threshold cfg) coin_shares in
  let batch k () =
    ignore (Crypto.Batch.coin_shares coin ~name (take k coin_shares))
  in
  let lo = max 2 (truncate batch_k) in
  let lo = min lo (List.length coin_shares) in
  let hi = min (lo + 1) (List.length coin_shares) in
  let batch_us =
    let t_lo = time_us (batch lo) in
    if hi = lo then t_lo
    else
      let t_hi = time_us (batch hi) in
      t_lo +. ((t_hi -. t_lo) *. Float.max 0.0 (batch_k -. float_of_int lo))
  in
  (* threshold encryption *)
  let enc = d.Dealer.enc_pub in
  let ct = Crypto.Threshold_enc.encrypt ~drbg enc ~label:"sac|bench" "ld|0|0" in
  let dec_shares =
    List.filter_map
      (fun p -> Crypto.Threshold_enc.dec_share ~drbg enc p.Dealer.enc_share ct)
      parties
  in
  let dec_k = take (Config.dec_threshold cfg) dec_shares in
  let ds0 = List.hd dec_shares in
  (* verified-share cache probe *)
  let cache = Crypto.Share_cache.create ~cap:cfg.Config.share_cache_cap in
  let digest = Hashes.Sha256.digest msg in
  Crypto.Share_cache.add cache ~group:ctx ~scheme:"tsig" ~digest ~sender:1 ~index:1;
  let unit_of = function
    | "rsa_sign" -> fun () -> ignore (Crypto.Rsa.sign p0.Dealer.sign_sk ~ctx msg)
    | "rsa_verify" -> fun () -> ignore (Crypto.Rsa.verify pk ~ctx ~signature msg)
    | "tsig_release" ->
      fun () -> ignore (Tsig.release ~drbg p0.Dealer.ag_tsig ~ctx msg)
    | "tsig_verify_share" ->
      fun () -> ignore (Tsig.verify_share pub ~ctx msg (List.hd shares))
    | "tsig_assemble" -> fun () -> ignore (Tsig.assemble pub ~ctx msg sig_k)
    | "tsig_verify" ->
      fun () -> ignore (Tsig.verify pub ~ctx ~signature:assembled msg)
    | "coin_release" ->
      fun () ->
        ignore
          (Crypto.Threshold_coin.release ~drbg coin p0.Dealer.coin_share ~name)
    | "coin_verify_share" ->
      fun () ->
        ignore (Crypto.Threshold_coin.verify_share coin ~name (List.hd coin_shares))
    | "coin_assemble" ->
      fun () -> ignore (Crypto.Threshold_coin.assemble_bit coin ~name coin_k)
    | "enc_encrypt" ->
      fun () ->
        ignore (Crypto.Threshold_enc.encrypt ~drbg enc ~label:"sac|bench" "ld|0|0")
    | "enc_ct_valid" -> fun () -> ignore (Crypto.Threshold_enc.ciphertext_valid enc ct)
    | "enc_dec_share" ->
      fun () ->
        ignore (Crypto.Threshold_enc.dec_share ~drbg enc p0.Dealer.enc_share ct)
    | "enc_verify_share" ->
      fun () -> ignore (Crypto.Threshold_enc.verify_dec_share enc ct ds0)
    | "enc_combine" -> fun () -> ignore (Crypto.Threshold_enc.combine enc ct dec_k)
    | "cache_hit" ->
      fun () ->
        ignore
          (Crypto.Share_cache.mem cache ~scheme:"tsig" ~digest ~sender:1 ~index:1)
    | op -> invalid_arg ("Units.crypto: no timer for " ^ op)
  in
  List.map
    (fun op ->
      if op = "coin_verify_share_batch" then (op, batch_us)
      else (op, time_us (unit_of op)))
    ops

(* One plain exponentiation at the run's actual discrete-log sizes, and the
   double-exponentiation and fixed-base paths relative to it. *)
let bignum (d : Dealer.t) : (string * float) list =
  let g = d.Dealer.group in
  let p = g.Crypto.Group.p and qbits = Bignum.Nat.numbits g.Crypto.Group.q in
  let drbg = Hashes.Drbg.create ~seed:"bench-bignum" in
  let random_bytes = Hashes.Drbg.random_bytes drbg in
  let e1 = Bignum.Nat.random_bits ~random_bytes qbits in
  let e2 = Bignum.Nat.random_bits ~random_bytes qbits in
  let b1 = g.Crypto.Group.g in
  let b2 = Crypto.Group.pow g b1 e2 in
  let tbl = Bignum.Nat.Fixed_base.create ~base:b1 ~modulus:p ~max_bits:qbits in
  let single = time_us (fun () -> ignore (Bignum.Nat.powmod b1 e1 p)) in
  let double = time_us (fun () -> ignore (Bignum.Nat.powmod2 b1 e1 b2 e2 p)) in
  let fixed = time_us (fun () -> ignore (Bignum.Nat.Fixed_base.pow tbl e1)) in
  [ ("bignum.powmod_us", single);
    ("bignum.powmod2_ratio", double /. single);
    ("bignum.fixed_base_ratio", fixed /. single);
    ("bignum.model_powmod2_ratio", Sim.Cost.multi_exp_factor);
    ("bignum.model_fixed_base_ratio", Sim.Cost.fixed_base_factor) ]
