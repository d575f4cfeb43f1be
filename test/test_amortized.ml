(* The crypto-equivalence harness for the amortized verification layer.

   The amortization mechanisms — batch verification by random linear
   combination (Crypto.Batch), the bounded verified-share cache
   (Crypto.Share_cache behind the Verify seam), and coin pre-generation
   (Binary_agreement) — all claim the same contract:
   acceptance is EXACTLY that of the reference one-at-a-time verifiers,
   only the virtual-CPU charges move.  This suite proves it:

   - randomized accept/reject EQUIVALENCE (280 cases): the batched
     verdicts agree with the fast single verifiers, which agree with the
     plain reference twins, share by share, across mixed batches of honest
     and forged shares;
   - PLANTED-FORGERY soundness (220 cases): when a batch contains known
     forgeries, bisection names exactly their indices — Byzantine
     attribution is identical to the one-at-a-time path;
   - delivery determinism: a seeded protocol run with the cache and
     batching engaged delivers byte for byte the pinned golden logs, which
     the one-at-a-time reference configuration produced too;
   - replay-after-GC: instance garbage collection evicts the instance's
     cache group, so replayed frames re-verify instead of resurrecting
     stale verification state, and capacity bounds memory;
   - cost-charge regressions: the charge model prices a k-batch strictly
     below k singles and a cache hit far below any verification;
   - coin pre-generation safety: ABA reproduces the pinned decisions of
     the on-demand release path across 50 seeds, and a crash/rebuild
     mid-pregen reproduces its pinned total order. *)

open Crypto
open Sintra

let drbg = Util.drbg ~seed:"amortized-tests" ()

(* Shared fixtures (key generation dominates runtime). *)
let group =
  lazy (Group.generate ~drbg:(Hashes.Drbg.fork drbg "grp") ~pbits:256 ~qbits:96)

let tsig_keys =
  lazy (Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg "tsig")
          ~modulus_bits:256 ~nparties:4 ~k:3 ~t:1 ())

let coin_keys =
  lazy (Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin")
          ~group:(Lazy.force group) ~n:4 ~k:2 ~t:1)

let tsig_ctx = "amort-tsig"
let tsig_msgs = Array.init 5 (Printf.sprintf "statement-%d")
let coin_names = Array.init 5 (Printf.sprintf "coin-%d")

(* Honest share pools, one release per (message, origin): mutations below
   recombine pool entries, so the multi-hundred-case sweeps pay 20 releases
   per scheme, not one per slot. *)
let tsig_pool =
  lazy
    (let keys = Lazy.force tsig_keys in
     let d = Hashes.Drbg.fork drbg "tsig-pool" in
     Array.map
       (fun msg ->
         Array.map
           (fun sk ->
             Threshold_sig.release ~drbg:d keys.Threshold_sig.public sk
               ~ctx:tsig_ctx msg)
           keys.Threshold_sig.shares)
       tsig_msgs)

let coin_pool =
  lazy
    (let keys = Lazy.force coin_keys in
     let d = Hashes.Drbg.fork drbg "coin-pool" in
     Array.map
       (fun name ->
         Array.map
           (fun sk ->
             Threshold_coin.release ~drbg:d keys.Threshold_coin.public sk
               ~name)
           keys.Threshold_coin.shares)
       coin_names)

(* Slot code -> concrete share for message/name index [m], origin slot [o].
   0 honest; the rest are forgeries that every verifier must reject:
   1 cross-statement (an honest proof about a different message), 2 origin
   relabel (checked against the wrong verification key), 3 proof response
   transplanted from another origin's share, 4 origin out of range. *)
let tsig_slot (pool : Threshold_sig.share array array) ~(m : int) ~(o : int)
    (code : int) : Threshold_sig.share =
  let nmsgs = Array.length pool and n = Array.length pool.(0) in
  let s = pool.(m).(o) in
  match code with
  | 0 -> s
  | 1 -> pool.((m + 1) mod nmsgs).(o)
  | 2 -> { s with Threshold_sig.origin = (s.Threshold_sig.origin mod n) + 1 }
  | 3 ->
    { s with
      Threshold_sig.proof_z = pool.(m).((o + 1) mod n).Threshold_sig.proof_z }
  | _ -> { s with Threshold_sig.origin = 0 }

let coin_slot (pool : Threshold_coin.share array array) ~(m : int) ~(o : int)
    (code : int) : Threshold_coin.share =
  let nnames = Array.length pool and n = Array.length pool.(0) in
  let s = pool.(m).(o) in
  match code with
  | 0 -> s
  | 1 -> pool.((m + 1) mod nnames).(o)
  | 2 -> { s with Threshold_coin.origin = (s.Threshold_coin.origin mod n) + 1 }
  | 3 -> { s with Threshold_coin.value = pool.(m).((o + 1) mod n).Threshold_coin.value }
  | _ -> { s with Threshold_coin.origin = 0 }

let ints (l : int list) : string = String.concat "," (List.map string_of_int l)

let bad_of_flags (valid : bool list) : int list =
  List.concat (List.mapi (fun i ok -> if ok then [] else [ i ]) valid)

let check_verdict ~(what : string) ~(expected_bad : int list)
    (v : Batch.verdict) : unit =
  let got = match v with Batch.All_valid -> [] | Batch.Invalid l -> l in
  if got <> expected_bad then
    Alcotest.failf "%s: batch named [%s], singles named [%s]" what (ints got)
      (ints expected_bad)

(* --- equivalence and planted-forgery sweeps --- *)

let equivalence_tests =
  [
    Alcotest.test_case
      "tsig batch equivalence: 110 randomized accept/reject cases" `Quick
      (fun () ->
        let pub = (Lazy.force tsig_keys).Threshold_sig.public in
        let pool = Lazy.force tsig_pool in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "tsig-eq") ~cases:110
            ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length tsig_msgs in
            let msg = tsig_msgs.(m) in
            let shares =
              List.mapi
                (fun j code -> tsig_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            let fast =
              List.map (Threshold_sig.verify_share pub ~ctx:tsig_ctx msg) shares
            in
            let refr =
              List.map
                (Threshold_sig.verify_share_reference pub ~ctx:tsig_ctx msg)
                shares
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "tsig case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.tsig_shares pub ~ctx:tsig_ctx msg shares))
          plans);

    Alcotest.test_case
      "coin batch equivalence: 110 randomized accept/reject cases" `Quick
      (fun () ->
        let pub = (Lazy.force coin_keys).Threshold_coin.public in
        let pool = Lazy.force coin_pool in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "coin-eq") ~cases:110
            ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length coin_names in
            let name = coin_names.(m) in
            let shares =
              List.mapi
                (fun j code -> coin_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            let fast =
              List.map (Threshold_coin.verify_share pub ~name) shares
            in
            let refr =
              List.map (Threshold_coin.verify_share_reference pub ~name) shares
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "coin case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.coin_shares pub ~name shares))
          plans);

    Alcotest.test_case
      "dleq batch equivalence (untrusted h1): 60 randomized cases" `Quick
      (fun () ->
        let grp = Lazy.force group in
        let d = Hashes.Drbg.fork drbg "dleq-eq" in
        let g2 = Group.hash_to_group grp "dleq-base" in
        let items =
          Array.init 8 (fun i ->
            let x = Group.random_exponent grp ~drbg:d in
            let h1 = Group.pow_g grp x and h2 = Group.pow grp g2 x in
            let ctx = Printf.sprintf "dleq-%d" i in
            let proof =
              Dleq.prove grp ~drbg:d ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2 ~x
            in
            (ctx, h1, h2, proof))
        in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "dleq-plan") ~cases:60
            ~max_size:5 ~mutations:2
        in
        List.iteri
          (fun case plan ->
            let slots =
              List.mapi
                (fun j code ->
                  let ctx, h1, h2, proof = items.((case + j) mod 8) in
                  match code with
                  | 0 -> (ctx, h1, h2, proof)
                  | 1 ->
                    let _, _, _, p' = items.((case + j + 1) mod 8) in
                    (ctx, h1, h2, p')
                  | _ ->
                    let _, h1', _, _ = items.((case + j + 1) mod 8) in
                    (ctx, h1', h2, proof))
                plan
            in
            let fast =
              List.map
                (fun (ctx, h1, h2, proof) ->
                  Dleq.verify grp ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2 proof)
                slots
            in
            let refr =
              List.map
                (fun (ctx, h1, h2, proof) ->
                  Dleq.verify_reference grp ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2
                    proof)
                slots
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "dleq case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.dleq grp ~g1:grp.Group.g ~g2 slots))
          plans);

    Alcotest.test_case
      "tsig planted forgeries: bisection names exact indices, 110 cases"
      `Quick (fun () ->
        let pub = (Lazy.force tsig_keys).Threshold_sig.public in
        let pool = Lazy.force tsig_pool in
        let plans =
          Util.planted_plans ~drbg:(Hashes.Drbg.fork drbg "tsig-forge")
            ~cases:110 ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length tsig_msgs in
            let msg = tsig_msgs.(m) in
            let shares =
              List.mapi
                (fun j code -> tsig_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            (* Generator soundness: every planted slot must really fail the
               single verifier, every honest slot must pass. *)
            List.iteri
              (fun j code ->
                let ok =
                  Threshold_sig.verify_share pub ~ctx:tsig_ctx msg
                    (List.nth shares j)
                in
                if ok <> (code = 0) then
                  Alcotest.failf "case %d slot %d: mutation %d not %s" case j
                    code
                    (if code = 0 then "accepted" else "rejected"))
              plan;
            let planted = bad_of_flags (List.map (fun c -> c = 0) plan) in
            check_verdict
              ~what:(Printf.sprintf "tsig forgery case %d" case)
              ~expected_bad:planted
              (Batch.tsig_shares pub ~ctx:tsig_ctx msg shares))
          plans);

    Alcotest.test_case
      "coin planted forgeries: bisection names exact indices, 110 cases"
      `Quick (fun () ->
        let pub = (Lazy.force coin_keys).Threshold_coin.public in
        let pool = Lazy.force coin_pool in
        let plans =
          Util.planted_plans ~drbg:(Hashes.Drbg.fork drbg "coin-forge")
            ~cases:110 ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length coin_names in
            let name = coin_names.(m) in
            let shares =
              List.mapi
                (fun j code -> coin_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            List.iteri
              (fun j code ->
                let ok = Threshold_coin.verify_share pub ~name (List.nth shares j) in
                if ok <> (code = 0) then
                  Alcotest.failf "case %d slot %d: mutation %d not %s" case j
                    code
                    (if code = 0 then "accepted" else "rejected"))
              plan;
            let planted = bad_of_flags (List.map (fun c -> c = 0) plan) in
            check_verdict
              ~what:(Printf.sprintf "coin forgery case %d" case)
              ~expected_bad:planted
              (Batch.coin_shares pub ~name shares))
          plans);
  ]

(* --- verified-share cache: bounds, eviction, replay-after-GC --- *)

let sha (s : string) : string = Hashes.Sha256.digest_list [ s ]

let cache_tests =
  [
    Alcotest.test_case "share cache: FIFO bound, idempotence, group eviction"
      `Quick (fun () ->
        let t = Share_cache.create ~cap:4 in
        for i = 1 to 6 do
          Share_cache.add t ~group:"g" ~scheme:"s" ~digest:(sha (string_of_int i))
            ~sender:i ~index:i;
          if Share_cache.size t > 4 then
            Alcotest.failf "cache exceeded its capacity at insert %d" i
        done;
        Alcotest.(check int) "at capacity" 4 (Share_cache.size t);
        (* FIFO: the two oldest entries made room for 5 and 6. *)
        Alcotest.(check bool) "entry 1 evicted" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "1") ~sender:1 ~index:1);
        Alcotest.(check bool) "entry 2 evicted" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "2") ~sender:2 ~index:2);
        Alcotest.(check bool) "entry 6 live" true
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "6") ~sender:6 ~index:6);
        (* Idempotent re-insertion does not grow or evict. *)
        Share_cache.add t ~group:"g" ~scheme:"s" ~digest:(sha "6") ~sender:6
          ~index:6;
        Alcotest.(check int) "idempotent" 4 (Share_cache.size t);
        Share_cache.evict_group t "g";
        Alcotest.(check int) "group evicted" 0 (Share_cache.size t);
        Alcotest.(check bool) "no resurrection" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "6") ~sender:6 ~index:6));

    Alcotest.test_case
      "replay after GC: eviction forces re-verification at the Verify seam"
      `Quick (fun () ->
        let c =
          Util.cluster ~seed:"amort-shoup" ~tsig_scheme:Config.Shoup ()
        in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        let pid = "gc-pid" and stmt = "gc-stmt" in
        Runtime.register rt ~pid (fun ~src:_ _ -> ());
        let sh = Tsig.release ~drbg:rt.Runtime.drbg sec ~ctx:pid stmt in
        let cache = rt.Runtime.cache in
        Alcotest.(check bool) "first verification" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "cached" 1 (Share_cache.size cache);
        Alcotest.(check bool) "replayed share accepted" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "replay was a cache hit" 1 (Share_cache.hits cache);
        (* Instance GC evicts the pid's cache group... *)
        Runtime.unregister rt ~pid;
        Alcotest.(check int) "GC evicted the group" 0 (Share_cache.size cache);
        (* ...so a frame replayed after GC re-verifies for real instead of
           resurrecting stale cache state. *)
        Alcotest.(check bool) "post-GC replay re-verifies" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "post-GC replay was a miss, not a hit" 1
          (Share_cache.hits cache);
        Alcotest.(check int) "re-verified share re-cached" 1
          (Share_cache.size cache));

    Alcotest.test_case
      "cache capacity bounds memory under a distinct-statement flood" `Quick
      (fun () ->
        let c =
          Util.cluster ~seed:"amort-cap" ~tsig_scheme:Config.Shoup
            ~share_cache_cap:8 ()
        in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        for i = 1 to 32 do
          let stmt = Printf.sprintf "flood-%d" i in
          let sh = Tsig.release ~drbg:rt.Runtime.drbg sec ~ctx:"flood" stmt in
          Alcotest.(check bool) "verified" true
            (Verify.tsig_share rt ~pub ~ctx:"flood" stmt sh);
          if Share_cache.size rt.Runtime.cache > 8 then
            Alcotest.failf "cache exceeded its capacity at statement %d" i
        done;
        Alcotest.(check int) "bounded at capacity" 8
          (Share_cache.size rt.Runtime.cache);
        (* The cache-size gauge tracks the same bound. *)
        let m = Trace.Ctx.metrics rt.Runtime.trace in
        match Trace.Metrics.find_counter m "p0/verify.cache_size" with
        | Some g -> Alcotest.(check (float 0.0)) "gauge" 8.0 (Trace.Metrics.value g)
        | None -> Alcotest.fail "verify.cache_size gauge never recorded");
  ]

(* --- delivery-log determinism and scenario cost regression --- *)

let counter_value (c : Cluster.t) (p : int) (name : string) : float =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_counter m (Printf.sprintf "p%d/%s" p name) with
  | Some ctr -> Trace.Metrics.value ctr
  | None -> 0.0

let hist_count (c : Cluster.t) (p : int) (name : string) : int =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_hist m (Printf.sprintf "p%d/%s" p name) with
  | Some h -> Trace.Metrics.hist_count h
  | None -> 0

type det_run = {
  logs : string list;  (* per party, ";"-joined delivery order *)
  batch_obs : int;     (* verify.batch_size observations, all parties *)
}

(* One seeded consistent-broadcast run under a replay storm: party 0
   broadcasts four payloads while every third frame is re-injected late.
   Per-origin delivery order is the protocol's own guarantee, so with a
   single origin the full log is fixed whatever the verification path —
   byte for byte. *)
let consistent_run () : det_run =
  let c =
    Util.cluster ~seed:"amort-shoup" ~tsig_scheme:Config.Shoup
      ~check_invariants:true ()
  in
  Faults.install c (Faults.replay_every 3 ~delay:0.7);
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans =
    Array.init 4 (fun p ->
      Consistent_channel.create (Cluster.runtime c p) ~pid:"det"
        ~on_deliver:(fun ~sender m ->
          logs.(p) := Printf.sprintf "%d:%s" sender m :: !(logs.(p)))
        ())
  in
  List.iteri
    (fun j time ->
      let payload = Printf.sprintf "det.%d" j in
      let submit () =
        Cluster.inject c 0 (fun () -> Consistent_channel.send chans.(0) payload)
      in
      if time <= 0.0 then submit () else Cluster.at c ~time submit)
    [ 0.0; 0.6; 1.2; 1.8 ];
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  for p = 0 to 3 do
    match Invariant.flagged (Cluster.runtime c p).Runtime.inv with
    | [] -> ()
    | (off, why) :: _ ->
      Alcotest.failf "party %d flagged party %d in an honest run: %s" p off why
  done;
  let batch_obs = ref 0 in
  for p = 0 to 3 do
    batch_obs := !batch_obs + hist_count c p "verify.batch_size"
  done;
  {
    logs =
      Array.to_list
        (Array.map (fun l -> String.concat ";" (List.rev !l)) logs);
    batch_obs = !batch_obs;
  }

(* Pinned golden of [consistent_run]: every party's log.  The one-at-a-time
   reference path (no batching, no cache) produced the same bytes. *)
let consistent_golden =
  List.init 4 (fun _ -> "0:det.0;0:det.1;0:det.2;0:det.3")

let determinism_tests =
  [
    Alcotest.test_case
      "delivery logs byte-identical across a replay storm, amortization \
       engaged"
      `Quick (fun () ->
        let r = consistent_run () in
        if r.logs <> consistent_golden then
          Alcotest.failf "delivery logs moved off the golden:\n%s\nvs\n%s"
            (String.concat "\n" r.logs)
            (String.concat "\n" consistent_golden);
        (* The run must actually have amortized something. *)
        if r.batch_obs = 0 then
          Alcotest.fail "batch verification never engaged");
  ]

(* --- cost-charge regression: the charge model itself --- *)

let cost_tests =
  [
    Alcotest.test_case
      "charge model: k-batch strictly below k singles, hit below everything"
      `Quick (fun () ->
        let scratch cfg =
          { Charge.meter = Sim.Cost.create_meter ~exp_ms:100.0;
            cfg;
            trace = Trace.Ctx.null () }
        in
        let cost cfg f =
          let s = scratch cfg in
          f s;
          s.Charge.meter.Sim.Cost.total_ms
        in
        let shoup = Config.test ~n:4 ~t:1 ~tsig_scheme:Config.Shoup () in
        let multi = Config.test ~n:4 ~t:1 ~tsig_scheme:Config.Multi () in
        let tsig_single = cost shoup Charge.tsig_verify_share in
        let tsig_batch3 =
          cost shoup (fun s -> Charge.tsig_verify_share_batch s ~k:3)
        in
        if not (tsig_batch3 < 3.0 *. tsig_single) then
          Alcotest.failf "tsig batch of 3 (%.3f ms) not below 3 singles (%.3f ms)"
            tsig_batch3 (3.0 *. tsig_single);
        (* The batch still pays per share: the charge must grow with k. *)
        let tsig_batch1 =
          cost shoup (fun s -> Charge.tsig_verify_share_batch s ~k:1)
        in
        if not (tsig_batch3 > tsig_batch1) then
          Alcotest.failf
            "tsig batch charge not monotone in k: k=3 %.3f ms vs k=1 %.3f ms"
            tsig_batch3 tsig_batch1;
        (* Multi-signature shares have no combined equation: the batch
           charge must honestly equal k independent verifications. *)
        let multi_single = cost multi Charge.tsig_verify_share in
        let multi_batch3 =
          cost multi (fun s -> Charge.tsig_verify_share_batch s ~k:3)
        in
        Alcotest.(check (float 1e-9)) "multi batch = k singles"
          (3.0 *. multi_single) multi_batch3;
        let coin_single = cost shoup Charge.coin_verify_share in
        let coin_batch3 =
          cost shoup (fun s -> Charge.coin_verify_share_batch s ~k:3)
        in
        if not (coin_batch3 < 3.0 *. coin_single) then
          Alcotest.failf "coin batch of 3 (%.3f ms) not below 3 singles (%.3f ms)"
            coin_batch3 (3.0 *. coin_single);
        let hit = cost shoup Charge.cache_hit in
        if not (hit < tsig_single /. 10.0 && hit < coin_single /. 10.0) then
          Alcotest.failf "cache hit (%.6f ms) not far below a verification" hit);
  ]

(* --- coin pre-generation safety --- *)

(* One dealer for the whole sweep (key material is independent of the run
   seed); engines are seeded per run, as in the vopr workloads. *)
let aba_dealer =
  lazy (Dealer.deal ~seed:"amort-aba" (Config.test ~n:4 ~t:1 ()))

let pregen_cluster ~(run_seed : string) : Cluster.t =
  let cfg = Config.test ~n:4 ~t:1 ~check_invariants:true () in
  let topo = Util.default_topo () in
  let dealer = Lazy.force aba_dealer in
  let engine = Sim.Engine.create ~seed:("engine|" ^ run_seed) () in
  let net =
    Sim.Net.create ~engine ~topo ~mac_keys:(Dealer.net_mac_keys dealer)
  in
  let runtimes =
    Array.init 4 (fun i ->
      Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
  in
  { Cluster.engine; net; cfg; dealer; runtimes }

(* Run one seeded ABA instance with mixed proposals; returns the per-party
   decisions and the summed cache-hit count (coin-share justifications
   repeat shares across votes, so the cache must engage). *)
let aba_decisions ~(run_seed : string) : string array * float =
  let c = pregen_cluster ~run_seed in
  let decided = Array.make 4 None in
  let insts =
    Array.init 4 (fun i ->
      Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
        ~on_decide:(fun b _ -> decided.(i) <- Some b))
  in
  let d = Hashes.Drbg.create ~seed:("prop|" ^ run_seed) in
  (* Split proposals force coin rounds more often than not. *)
  let props = Array.init 4 (fun i -> i mod 2 = Hashes.Drbg.int d 2) in
  Array.iteri
    (fun i inst ->
      Cluster.inject c i (fun () -> Binary_agreement.propose inst props.(i)))
    insts;
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  let hits = ref 0.0 in
  for p = 0 to 3 do
    (match Invariant.flagged (Cluster.runtime c p).Runtime.inv with
     | [] -> ()
     | (off, why) :: _ ->
       Alcotest.failf "party %d flagged party %d in an honest run: %s" p off
         why);
    hits := !hits +. counter_value c p "verify.cache_hit"
  done;
  ( Array.map
      (function Some b -> string_of_bool b | None -> "undecided")
      decided,
    !hits )

(* Crash party 2 mid-run (while pre-generated coin shares sit in volatile
   round state), rebuild it through Runtime.on_rebuild, and return every
   party's final atomic delivery order. *)
let rebuild_logs () : string list =
  let c = pregen_cluster ~run_seed:"amort-rebuild" in
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans : Atomic_channel.t option array = Array.make 4 None in
  let make p =
    let rt = Cluster.runtime c p in
    chans.(p) <-
      Some
        (Atomic_channel.create rt ~pid:"pre"
           ~on_deliver:(fun ~sender m ->
             logs.(p) := Printf.sprintf "%d:%s" sender m :: !(logs.(p)))
           ())
  in
  for p = 0 to 3 do make p done;
  let rt2 = Cluster.runtime c 2 in
  Runtime.on_rebuild rt2 (fun () ->
    logs.(2) := [];
    make 2);
  let send p m =
    Cluster.inject c p (fun () ->
      match chans.(p) with
      | Some ch -> Atomic_channel.send ch m
      | None -> ())
  in
  for p = 0 to 3 do send p (Printf.sprintf "p%d.a" p) done;
  Cluster.at c ~time:0.5 (fun () -> Runtime.crash rt2);
  Cluster.at c ~time:3.0 (fun () -> Runtime.recover rt2);
  Cluster.at c ~time:4.0 (fun () ->
    send 0 "p0.b";
    send 1 "p1.b";
    send 3 "p3.b");
  Cluster.at c ~time:4.5 (fun () -> send 2 "p2.b");
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  Array.to_list (Array.map (fun l -> String.concat ";" (List.rev !l)) logs)

(* Pinned goldens, which on-demand coin release produced too: seed [s]'s
   unanimous ABA decision is character [s] of [aba_golden] ('1' = true),
   and [rebuild_golden] is every party's post-rebuild delivery order. *)
let aba_golden = "10111111101111111111111111111001011100111110001111"

let rebuild_golden =
  List.init 4 (fun _ ->
    "0:p0.a;3:p3.a;1:p1.a;2:p2.a;0:p0.b;1:p1.b;3:p3.b;2:p2.b")

let pregen_tests =
  [
    Alcotest.test_case
      "coin pregen: ABA decides identically, golden decisions, 50 seeds"
      `Quick (fun () ->
        let hits = ref 0.0 in
        for s = 0 to 49 do
          let run_seed = Printf.sprintf "pregen-%d" s in
          let got, h = aba_decisions ~run_seed in
          let want = string_of_bool (aba_golden.[s] = '1') in
          Array.iteri
            (fun p d ->
              if d <> want then
                Alcotest.failf "seed %s: party %d decided %s, golden %s"
                  run_seed p d want)
            got;
          hits := !hits +. h
        done;
        (* Coin-share justifications repeat shares across votes; the sweep
           as a whole must have exercised the verified-share cache. *)
        if !hits <= 0.0 then
          Alcotest.fail "verified-share cache never hit across the ABA sweep");

    Alcotest.test_case
      "coin pregen: crash/rebuild mid-pregen leaves the outcome at its golden"
      `Quick (fun () ->
        let logs = rebuild_logs () in
        (* Total order holds, including the rebuilt party... *)
        Util.check_all_equal "post-rebuild order" logs;
        (* ...and it is the order the on-demand release path produced. *)
        if logs <> rebuild_golden then
          Alcotest.failf "post-rebuild delivery order moved:\n%s\nvs\n%s"
            (String.concat "\n" logs) (String.concat "\n" rebuild_golden));
  ]

let suite =
  equivalence_tests @ cache_tests @ determinism_tests @ cost_tests
  @ pregen_tests
