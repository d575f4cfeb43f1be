(* Targeted regression tests for implementation-level behaviours: state
   garbage collection vs. laggards, the model-key-size scaling that drives
   Figure 6, and the optimistic channel over lossy links. *)

open Sintra

(* A digest of every public value a dealer hands out: the signing moduli,
   both threshold-signature keys (RSA moduli, or Shoup's modulus,
   verification base and keys), the discrete-log group, and the coin and
   encryption verification keys.  Equal digests mean equal key material. *)
let public_digest (d : Dealer.t) : string =
  let nat = Bignum.Nat.to_hex in
  let rsa (pk : Crypto.Rsa.public) = [ nat pk.Crypto.Rsa.n; nat pk.Crypto.Rsa.e ] in
  let tsig = function
    | Tsig.Multi_pub m ->
      List.concat_map rsa (Array.to_list m.Crypto.Multi_sig.party_keys)
    | Tsig.Shoup_pub s ->
      rsa s.Crypto.Threshold_sig.rsa
      @ (nat s.Crypto.Threshold_sig.v
         :: List.map nat (Array.to_list s.Crypto.Threshold_sig.vks))
  in
  let g = d.Dealer.group and coin = d.Dealer.coin_pub and enc = d.Dealer.enc_pub in
  Hashes.Sha256.hex_of_digest
    (Hashes.Sha256.digest_list
       (List.concat_map rsa (Array.to_list d.Dealer.parties.(0).Dealer.sign_pks)
        @ tsig d.Dealer.bc_tsig_pub @ tsig d.Dealer.ag_tsig_pub
        @ List.map nat [ g.Crypto.Group.p; g.Crypto.Group.q; g.Crypto.Group.g ]
        @ List.map nat
            (coin.Crypto.Threshold_coin.global_vk
             :: Array.to_list coin.Crypto.Threshold_coin.share_vks)
        @ List.map nat
            (enc.Crypto.Threshold_enc.gbar :: enc.Crypto.Threshold_enc.h
             :: Array.to_list enc.Crypto.Threshold_enc.hks)))

(* The configurations the drivers deal under: the tests' and vopr's
   (Config.make), the load sweeps' (Load.Sweep.sweep_cfg) and the paper
   benchmarks' (bench/experiments.ml's bench_cfg, spelled out here since
   the bench is not a library). *)
let driver_cfgs (scheme : Config.tsig_scheme) : (string * Config.t) list =
  [ ("test", Config.make ~tsig_scheme:scheme ~n:4 ~t:1 ());
    ("bench", Config.make ~tsig_scheme:scheme ~perm_mode:Config.Random_local
        ~n:4 ~t:1 ()) ]
  @ (if scheme = Config.Multi then
       [ ("sweep", Load.Sweep.sweep_cfg ~n:4 ~t:1 ~max_batch:256 ()) ]
     else [])

(* Key material per (dealer seed, scheme); every driver configuration
   must deal exactly it, whatever its batching or modeled sizes. *)
let pinned_keys =
  [ ("test", Config.Multi,
     "4cfa21f72fa56cf0f0d09b542d8deffcd0a92d03bedf2bc12aa79747e76bfeee");
    ("load-dealer", Config.Multi,
     "c74c817b8ef4fd56c5bb4ba50fe1c181bf6db71069173a7734b03cece940f387");
    ("vopr-dealer", Config.Multi,
     "8b255be0741090be8c27cd782524b121f78fabb834780ea07856dfd0be0cd006");
    ("bench-dealer", Config.Multi,
     "f29de15ab4bc74eb8e369be9172e660df2506f4483387c0c22a8950ee95034b2");
    ("test", Config.Shoup,
     "9d4470953e1e7edd391321c0b375ee5cfbe50cb2b210d6b57ec8c513d40fe4f0");
    ("bench-dealer", Config.Shoup,
     "a73cc01e0c95b59b9a6e967d9fd30223ce05e98bd280cc8ad7966c39c42a02ea") ]

let suite = [
  Alcotest.test_case "dealt public key material is pinned for every driver seed"
    `Quick (fun () ->
      List.iter
        (fun (seed, scheme, want) ->
          List.iter
            (fun (label, cfg) ->
              Alcotest.(check string)
                (Printf.sprintf "%s under %s (%s)" seed label
                   (match scheme with Config.Multi -> "multi" | Config.Shoup -> "shoup"))
                want (public_digest (Dealer.deal ~seed cfg)))
            (driver_cfgs scheme))
        pinned_keys);

  Alcotest.test_case "a lagging party catches up after others GC old rounds" `Slow
    (fun () ->
      (* Every message TO party 3 is delayed by several virtual seconds, so
         the fast trio runs many rounds ahead (and garbage-collects the old
         agreement instances) while party 3 crawls; when the delays drain,
         party 3 must still reconstruct the identical sequence from its
         buffered traffic. *)
      let c = Util.cluster ~seed:"laggard" () in
      Cluster.set_intercept c (fun ~src:_ ~dst _ ->
        if dst = 3 then Sim.Net.Delay 8.0 else Sim.Net.Deliver);
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"lag"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      for k = 0 to 7 do
        Cluster.inject c 0 (fun () ->
          Atomic_channel.send chans.(0) (Printf.sprintf "g%d" k))
      done;
      ignore (Cluster.run c ~until:600.0);
      let seqs = Array.map (fun l -> List.rev !l) logs in
      Alcotest.(check int) "fast party got all" 8 (List.length seqs.(0));
      Alcotest.(check int) "laggard got all" 8 (List.length seqs.(3));
      Util.check_all_equal "identical order" (Array.to_list seqs));

  Alcotest.test_case "modeled key size drives virtual time (Figure 6 mechanism)" `Quick
    (fun () ->
      let duration model_rsa_bits =
        let cfg =
          Config.make ~tsig_scheme:Config.Multi ~model_rsa_bits ~n:4 ~t:1 ()
        in
        let topo = Sim.Topology.lan in
        let c = Cluster.create ~seed:"model-sweep" ~topo cfg in
        let done_at = ref 0.0 in
        let chans =
          Array.init 4 (fun i ->
            Atomic_channel.create (Cluster.runtime c i) ~pid:"ms"
              ~on_deliver:(fun ~sender:_ _ -> if i = 0 then done_at := Cluster.now c)
              ())
        in
        Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) "probe");
        ignore (Cluster.run c ~until:600.0);
        !done_at
      in
      let t_small = duration 128 and t_big = duration 2048 in
      (* the same real crypto ran both times; only the cost model differs *)
      if not (t_big > t_small *. 1.5) then
        Alcotest.failf "model size had no effect: %f vs %f" t_small t_big);

  Alcotest.test_case "optimistic channel over 10% frame loss" `Slow (fun () ->
    let cfg = Config.make ~n:4 ~t:1 () in
    let topo = Sim.Topology.uniform ~count:4 () in
    let c = Cluster.create ~seed:"opt-lossy" ~loss:0.10 ~topo cfg in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Optimistic_channel.create ~timeout:4.0 (Cluster.runtime c i) ~pid:"ol"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    for k = 0 to 4 do
      Cluster.inject c 1 (fun () ->
        Optimistic_channel.send chans.(1) (Printf.sprintf "lossy-%d" k))
    done;
    ignore (Cluster.run c ~until:600.0);
    let seqs = Array.map (fun l -> List.rev !l) logs in
    Util.check_all_equal "agreement" (Array.to_list seqs);
    Alcotest.(check int) "all five" 5 (List.length seqs.(0)));

  Alcotest.test_case "service over the Internet topology" `Quick (fun () ->
    (* End-to-end: replicated accumulator across the WAN test-bed. *)
    let cfg =
      Config.make ~tsig_scheme:Config.Multi ~n:4 ~t:1 ()
    in
    let c = Cluster.create ~seed:"svc-wan" ~topo:Sim.Topology.internet cfg in
    let apply acc req =
      match int_of_string_opt req with
      | Some v -> (acc + v, string_of_int (acc + v))
      | None -> (acc, "err")
    in
    let replicas =
      Array.init 4 (fun i ->
        Service.create (Cluster.runtime c i) ~pid:"acc" ~init:0 ~apply)
    in
    Cluster.inject c 0 (fun () -> ignore (Service.submit replicas.(0) "10"));
    Cluster.inject c 1 (fun () -> ignore (Service.submit replicas.(1) "32"));
    ignore (Cluster.run c ~until:300.0);
    Array.iter
      (fun r -> Alcotest.(check int) "state" 42 (Service.state r))
      replicas;
    Alcotest.(check bool) "took realistic WAN time" true (Cluster.now c > 1.0));

  Alcotest.test_case "INIT vector hashing is charged to the virtual meter" `Quick
    (fun () ->
      (* Regression: init_stmt hashes the whole encoded payload vector but
         used to skip Charge.hash, so Sim.Cost under-reported every round.
         A send on a fresh channel synchronously signs its INIT; the meter
         delta must cover one RSA signature PLUS a hash of at least the
         payload bytes — and no more than the encoded vector's few bytes of
         framing on top. *)
      let c = Util.cluster ~seed:"hash-charge" () in
      let rt = Cluster.runtime c 0 in
      let ch =
        Atomic_channel.create rt ~pid:"hc"
          ~on_deliver:(fun ~sender:_ _ -> ()) ()
      in
      let meter = rt.Runtime.charge.Charge.meter in
      let scratch () =
        { Charge.meter = Sim.Cost.create_meter ~exp_ms:meter.Sim.Cost.exp_ms;
          cfg = rt.Runtime.cfg; trace = Trace.Ctx.null () }
      in
      let rsa_only =
        let s = scratch () in
        Charge.rsa_sign s;
        s.Charge.meter.Sim.Cost.total_ms
      in
      let hash_of bytes =
        let s = scratch () in
        Charge.hash s ~bytes;
        s.Charge.meter.Sim.Cost.total_ms
      in
      let payload = String.make 2048 'p' in
      let before = meter.Sim.Cost.total_ms in
      Atomic_channel.send ch payload;
      let delta = meter.Sim.Cost.total_ms -. before in
      let floor = rsa_only +. hash_of (String.length payload) in
      let ceiling = rsa_only +. hash_of (String.length payload + 128) in
      if delta < floor then
        Alcotest.failf "INIT under-charged: %.6f ms < %.6f ms" delta floor;
      if delta > ceiling then
        Alcotest.failf "INIT over-charged: %.6f ms > %.6f ms" delta ceiling;
      Atomic_channel.abort ch);
]
