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
   - the Verify seam: one fixed mixed plan through every entry point, for
     both schemes, pinned verdict by verdict against the single verifiers
     and charge by charge against a golden;
   - delivery determinism: a seeded protocol run with the cache and
     batching engaged delivers byte for byte the pinned golden logs, which
     the one-at-a-time reference configuration produced too;
   - replay-after-GC: instance garbage collection evicts the instance's
     cache group, so replayed frames re-verify instead of resurrecting
     stale verification state, and capacity bounds memory;
   - cost-charge regressions: the charge model prices a k-batch strictly
     below k singles and a cache hit far below any verification, and every
     Charge entry's price and operation mix is pinned;
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

let tsig_stmt (pub : Threshold_sig.public) (msg : string) : Rsa.stmt =
  Rsa.stmt_for pub.Threshold_sig.rsa ~ctx:tsig_ctx msg
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
               (tsig_stmt keys.Threshold_sig.public msg))
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
            let stmt = tsig_stmt pub msg in
            let fast = List.map (Threshold_sig.verify_share pub stmt) shares in
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
              (Batch.tsig_shares pub stmt shares))
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
            let stmt = tsig_stmt pub tsig_msgs.(m) in
            let shares =
              List.mapi
                (fun j code -> tsig_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            (* Generator soundness: every planted slot must really fail the
               single verifier, every honest slot must pass. *)
            List.iteri
              (fun j code ->
                let ok = Threshold_sig.verify_share pub stmt (List.nth shares j) in
                if ok <> (code = 0) then
                  Alcotest.failf "case %d slot %d: mutation %d not %s" case j
                    code
                    (if code = 0 then "accepted" else "rejected"))
              plan;
            let planted = bad_of_flags (List.map (fun c -> c = 0) plan) in
            check_verdict
              ~what:(Printf.sprintf "tsig forgery case %d" case)
              ~expected_bad:planted
              (Batch.tsig_shares pub stmt shares))
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

(* --- the statement table: each threshold-signed statement hashed once per
   party, with the share cache's lifecycle --- *)

let stmt_counts (rt : Runtime.t) : int * int =
  (Stmt_table.hashed rt.Runtime.stmts, Stmt_table.reused rt.Runtime.stmts)

let stmt_tests =
  [
    Alcotest.test_case
      "statement table: release and checks share one preparation; unregister \
       evicts the pid, crash clears the table"
      `Quick (fun () ->
        List.iter
          (fun tsig_scheme ->
            let c = Util.cluster ~seed:"amort-stmt" ~tsig_scheme () in
            let rt = Cluster.runtime c 0 in
            let sec = rt.Runtime.keys.Dealer.bc_tsig in
            let pub = Tsig.public_of_secret sec in
            let pid = "stmt-pid" and stmt = "stmt-body" in
            Runtime.register rt ~pid (fun ~src:_ _ -> ());
            let st = Runtime.statement rt ~pub ~ctx:pid stmt in
            let sh = Tsig.release_stmt ~drbg:rt.Runtime.drbg sec st in
            Alcotest.(check (pair int int)) "the release hashed" (1, 0) (stmt_counts rt);
            (* Another party's share on the same statement: the check reuses
               the release's preparation, and accepts exactly as the
               one-shot verifier does. *)
            let rt1 = Cluster.runtime c 1 in
            let sh1 =
              Tsig.release ~drbg:rt1.Runtime.drbg rt1.Runtime.keys.Dealer.bc_tsig
                ~ctx:pid stmt
            in
            Alcotest.(check bool) "peer share verifies" true
              (Verify.tsig_share rt ~pub ~ctx:pid stmt sh1);
            Alcotest.(check (pair int int)) "the check reused it" (1, 1) (stmt_counts rt);
            Alcotest.(check bool) "same verdict as the one-shot verifier" true
              (Tsig.verify_share pub ~ctx:pid stmt sh1);
            (* A different message under the same pid is its own statement:
               it misses, and a share for [stmt] does not verify on it. *)
            Alcotest.(check bool) "share on another message rejected" false
              (Verify.tsig_share rt ~pub ~ctx:pid (stmt ^ "'") sh);
            Alcotest.(check (pair int int)) "another message missed" (2, 1)
              (stmt_counts rt);
            Alcotest.(check int) "two live statements" 2
              (Stmt_table.size rt.Runtime.stmts);
            Runtime.unregister rt ~pid;
            Alcotest.(check int) "unregister evicted the pid's group" 0
              (Stmt_table.size rt.Runtime.stmts);
            ignore (Runtime.statement rt ~pub ~ctx:pid stmt);
            Alcotest.(check (pair int int)) "after eviction the statement is hashed again"
              (3, 1) (stmt_counts rt);
            ignore (Runtime.statement rt ~pub ~ctx:"other-pid" stmt);
            Alcotest.(check int) "two groups live" 2 (Stmt_table.size rt.Runtime.stmts);
            Runtime.crash rt;
            Alcotest.(check int) "crash cleared the table" 0
              (Stmt_table.size rt.Runtime.stmts);
            ignore (Runtime.statement rt ~pub ~ctx:pid stmt);
            Alcotest.(check (pair int int)) "after the crash it is hashed again" (5, 1)
              (stmt_counts rt))
          [ Config.Multi; Config.Shoup ]);

    Alcotest.test_case
      "statement table: a fault-free run hashes each statement once, counters \
       published"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"amort-stmt-run" () in
        let chans =
          Array.init 4 (fun p ->
            Atomic_channel.create (Cluster.runtime c p) ~pid:"stmt-abc"
              ~on_deliver:(fun ~sender:_ _ -> ()) ())
        in
        for p = 0 to 3 do
          Cluster.inject c p (fun () ->
            Atomic_channel.send chans.(p) (Printf.sprintf "stmt.%d" p))
        done;
        ignore (Cluster.run c ~until:60.0);
        let m = Cluster.publish_metrics c in
        let get p name =
          match Trace.Metrics.find_counter m (Printf.sprintf "p%d/tsig.%s" p name) with
          | Some ctr -> int_of_float (Trace.Metrics.value ctr)
          | None -> Alcotest.failf "p%d/tsig.%s not published" p name
        in
        for p = 0 to 3 do
          let hashed, reused = stmt_counts (Cluster.runtime c p) in
          Alcotest.(check (pair int int)) "published = table counters" (hashed, reused)
            (get p "stmt_hashed", get p "stmt_reused");
          (* Every share, closing and justification check on a statement
             this party already prepared is a reuse. *)
          if reused <= hashed then
            Alcotest.failf "party %d: %d reuses for %d hashes" p reused hashed;
          Alcotest.(check bool) "peak published" true (get p "stmt_table/max" > 0)
        done);
  ]

let hist_count (c : Cluster.t) (p : int) (name : string) : int =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_hist m (Printf.sprintf "p%d/%s" p name) with
  | Some h -> Trace.Metrics.hist_count h
  | None -> 0

let hist_sum (c : Cluster.t) (p : int) (name : string) : float =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_hist m (Printf.sprintf "p%d/%s" p name) with
  | Some h -> Trace.Metrics.hist_sum h
  | None -> 0.0

(* --- the Verify seam, pinned call by call ---

   One fixed mixed plan through every Verify entry point at party 0: a
   fresh, a cached and a forged tsig share; a tsig batch mixing a cached,
   two fresh and a forged share; an all-valid batch charged to the storage
   core; an assembled signature checked twice; a lone coin share, a coin
   batch with one bad share and its corrected retransmission; and a
   decryption share checked twice.  Each verdict must equal the
   one-at-a-time verifiers', and the charges, cache probes, batch sizes and
   statement-table traffic must stay at the pinned golden. *)

let verify_plan (tsig_scheme : Config.tsig_scheme) : string =
  let c = Util.cluster ~seed:"amort-verify" ~tsig_scheme () in
  let rt = Cluster.runtime c 0 in
  let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
  let pid = "golden" and msg = "golden-stmt" and msg2 = "golden-stmt-2" in
  Runtime.register rt ~pid (fun ~src:_ _ -> ());
  let release p m =
    let r = Cluster.runtime c p in
    Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx:pid m
  in
  let sh = Array.init 4 (fun p -> release p msg) in
  (* An honest proof about another message: a forgery on [msg]. *)
  let forged = release 3 msg2 in
  let sh2 = [ release 1 msg2; release 2 msg2 ] in
  let coin_pub = rt.Runtime.keys.Dealer.coin_pub and name = "golden-coin" in
  let coin p =
    let r = Cluster.runtime c p in
    Threshold_coin.release ~drbg:r.Runtime.drbg coin_pub
      r.Runtime.keys.Dealer.coin_share ~name
  in
  let coins = Array.init 4 coin in
  let bad_coin =
    { coins.(3) with Threshold_coin.value = coins.(2).Threshold_coin.value }
  in
  let enc_pub = rt.Runtime.keys.Dealer.enc_pub in
  let ct =
    Threshold_enc.encrypt ~drbg:rt.Runtime.drbg enc_pub ~label:pid "payload"
  in
  let dec =
    let r = Cluster.runtime c 1 in
    match
      Threshold_enc.dec_share ~drbg:r.Runtime.drbg enc_pub
        r.Runtime.keys.Dealer.enc_share ct
    with
    | Some d -> d
    | None -> Alcotest.fail "decryption share refused a valid ciphertext"
  in
  let signature = Tsig.assemble pub ~ctx:pid msg [ sh.(0); sh.(1); sh.(2) ] in
  let single m s = Tsig.verify_share pub ~ctx:pid m s in
  let coin_single s = Threshold_coin.verify_share coin_pub ~name s in
  let meter (ch : Charge.t) = ch.Charge.meter.Sim.Cost.total_ms in
  let flags l = String.concat "" (List.map (fun b -> if b then "1" else "0") l) in
  (* Run one step now, check it against the single verifiers, and log its
     verdicts with the milliseconds it charged to each meter. *)
  let log = ref [] in
  let step what (run : unit -> bool list) (want : bool list) =
    let ms = meter rt.Runtime.charge and store = meter rt.Runtime.store_charge in
    let got = run () in
    if got <> want then
      Alcotest.failf "%s: Verify said %s, the single verifiers %s" what
        (flags got) (flags want);
    log :=
      Printf.sprintf "%s:%.6f:%.6f" (flags got)
        (meter rt.Runtime.charge -. ms)
        (meter rt.Runtime.store_charge -. store)
      :: !log
  in
  step "fresh share"
    (fun () -> [ Verify.tsig_share rt ~pub ~ctx:pid msg sh.(1) ])
    [ single msg sh.(1) ];
  step "cached share"
    (fun () -> [ Verify.tsig_share rt ~pub ~ctx:pid msg sh.(1) ])
    [ single msg sh.(1) ];
  step "forged share"
    (fun () -> [ Verify.tsig_share rt ~pub ~ctx:pid msg forged ])
    [ single msg forged ];
  (let batch = [ sh.(1); sh.(2); forged; sh.(3) ] in
   step "mixed batch"
     (fun () -> Array.to_list (Verify.tsig_shares rt ~pub ~ctx:pid msg batch))
     (List.map (single msg) batch));
  step "store batch"
    (fun () ->
      Array.to_list
        (Verify.tsig_shares ~charge:rt.Runtime.store_charge rt ~pub ~ctx:pid
           msg2 sh2))
    (List.map (single msg2) sh2);
  for _ = 1 to 2 do
    step "signature"
      (fun () -> [ Verify.tsig_signature rt ~pub ~ctx:pid ~signature msg ])
      [ Tsig.verify pub ~ctx:pid ~signature msg ]
  done;
  step "lone coin"
    (fun () -> [ Verify.coin_share rt ~group:pid ~name coins.(1) ])
    [ coin_single coins.(1) ];
  (let batch = [ coins.(1); coins.(2); bad_coin; coins.(0) ] in
   step "coin batch"
     (fun () -> [ Verify.coin_shares rt ~group:pid ~name batch ])
     [ List.for_all coin_single batch ]);
  (let batch = [ coins.(1); coins.(2); coins.(0) ] in
   step "coin retransmit"
     (fun () -> [ Verify.coin_shares rt ~group:pid ~name batch ])
     [ List.for_all coin_single batch ]);
  for _ = 1 to 2 do
    step "dec share"
      (fun () -> [ Verify.enc_dec_share rt ~group:pid ~stmt:(Verify.enc_stmt rt ct) dec ])
      [ Threshold_enc.verify_dec_share enc_pub ct dec ]
  done;
  Printf.sprintf "%s hit=%g miss=%g batches=%d/%g stmt=%d/%d"
    (String.concat " " (List.rev !log))
    (Util.counter_value c 0 "verify.cache_hit")
    (Util.counter_value c 0 "verify.cache_miss")
    (hist_count c 0 "verify.batch_size")
    (hist_sum c 0 "verify.batch_size")
    (Stmt_table.hashed rt.Runtime.stmts)
    (Stmt_table.reused rt.Runtime.stmts)

let verify_golden =
  [
    (Config.Shoup,
     "1:24.904300:0.000000 1:0.004500:0.000000 0:24.904300:0.000000 \
      1101:19.216619:0.000000 11:0.000000:18.621941 1:0.166996:0.000000 \
      1:0.001180:0.000000 1:2.033650:0.000000 0:3.362665:0.000000 \
      1:0.007800:0.000000 1:2.036410:0.000000 1:0.005360:0.000000 hit=8 \
      miss=13 batches=3/8 stmt=2/3");
    (Config.Multi,
     "1:0.167056:0.000000 1:0.001240:0.000000 0:0.167056:0.000000 \
      1101:0.502407:0.000000 11:0.000000:0.334191 1:0.501107:0.000000 \
      1:0.003260:0.000000 1:2.033650:0.000000 0:3.362665:0.000000 \
      1:0.007800:0.000000 1:2.036410:0.000000 1:0.005360:0.000000 hit=8 \
      miss=13 batches=1/3 stmt=2/3");
  ]

let verify_tests =
  [
    Alcotest.test_case
      "Verify seam: a mixed plan pins verdicts, charges and counters, both \
       schemes"
      `Quick (fun () ->
        List.iter
          (fun (scheme, want) ->
            Alcotest.(check string)
              (match scheme with Config.Shoup -> "shoup" | Config.Multi -> "multi")
              want (verify_plan scheme))
          verify_golden);

    Alcotest.test_case
      "Verify seam: Shoup shares under a multi-signature key are rejected \
       one by one, not batched"
      `Quick (fun () ->
        let shoup = Util.cluster ~seed:"amort-verify" ~tsig_scheme:Config.Shoup () in
        let c = Util.cluster ~seed:"amort-verify" ~tsig_scheme:Config.Multi () in
        let pid = "mixed" and msg = "mixed-stmt" in
        let shares =
          List.map
            (fun p ->
              let r = Cluster.runtime shoup p in
              Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig
                ~ctx:pid msg)
            [ 1; 2 ]
        in
        let rt = Cluster.runtime c 0 in
        let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
        Alcotest.(check (array bool)) "both rejected" [| false; false |]
          (Verify.tsig_shares rt ~pub ~ctx:pid msg shares);
        Alcotest.(check int) "no batch ran" 0 (hist_count c 0 "verify.batch_size"));
  ]

(* --- delivery-log determinism and scenario cost regression --- *)

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
  let c = Util.cluster ~seed:"amort-shoup" ~tsig_scheme:Config.Shoup () in
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

(* Every Charge entry priced alone on a fresh meter (a 100 ms host,
   modeled 1024-bit RSA; batch and assemble entries at k = 3, byte-priced
   entries at 1000 bytes), rendered as "name ms exp exp2 fixed multi".
   The goldens below hold the exact charge and operation mix of each. *)
let price_list (scheme : Config.tsig_scheme) : string list =
  let cfg = Config.make ~n:4 ~t:1 ~tsig_scheme:scheme ~model_rsa_bits:1024 () in
  let price name f =
    let s =
      { Charge.meter = Sim.Cost.create_meter ~exp_ms:100.0;
        cfg;
        trace = Trace.Ctx.null () }
    in
    f s;
    let m = s.Charge.meter in
    Printf.sprintf "%s %.17g %d %d %d %d" name m.Sim.Cost.total_ms
      m.Sim.Cost.exp_count m.Sim.Cost.exp2_count m.Sim.Cost.fixed_count
      m.Sim.Cost.multi_count
  in
  let k = 3 and bytes = 1000 in
  [ price "rsa_sign" Charge.rsa_sign;
    price "rsa_verify" Charge.rsa_verify;
    price "tsig_release" Charge.tsig_release;
    price "tsig_verify_share" Charge.tsig_verify_share;
    price "tsig_verify_share_batch" (Charge.tsig_verify_share_batch ~k);
    price "tsig_assemble" (Charge.tsig_assemble ~k);
    price "tsig_verify" (Charge.tsig_verify ~k);
    price "coin_release" Charge.coin_release;
    price "coin_verify_share" Charge.coin_verify_share;
    price "coin_verify_share_batch" (Charge.coin_verify_share_batch ~k);
    price "coin_assemble" (Charge.coin_assemble ~k);
    price "enc_encrypt" (Charge.enc_encrypt ~bytes);
    price "enc_dec_share" Charge.enc_dec_share;
    price "enc_verify_share" Charge.enc_verify_share;
    price "enc_combine" (Charge.enc_combine ~k ~bytes);
    price "cache_hit" Charge.cache_hit;
    price "hash" (Charge.hash ~bytes);
    price "store_append" (Charge.store_append ~bytes) ]

let price_golden : (Config.tsig_scheme * string list) list =
  [ (Config.Shoup,
     [ "rsa_sign 25 1 0 0 0";
       "rsa_verify 1.66015625 1 0 0 0";
       "tsig_release 274 2 0 1 0";
       "tsig_verify_share 249 4 0 1 0";
       "tsig_verify_share_batch 191.9921875 1 0 0 2";
       "tsig_assemble 18.619791666666664 2 0 0 1";
       "tsig_verify 1.66015625 1 0 0 0";
       "coin_release 118.125 3 0 1 0";
       "coin_verify_share 20.3125 0 1 2 0";
       "coin_verify_share_batch 33.528645833333329 0 0 0 2";
       "coin_assemble 15.299479166666666 0 0 0 1";
       "enc_encrypt 12.52 0 0 5 0";
       "enc_dec_share 70 4 0 3 0";
       "enc_verify_share 20.3125 0 1 2 0";
       "enc_combine 46.895000000000003 3 0 0 0";
       "cache_hit 0.00020000000000000001 0 0 0 0";
       "hash 0.02 0 0 0 0";
       "store_append 0.0070000000000000001 0 0 0 0" ]);
    (Config.Multi,
     [ "rsa_sign 25 1 0 0 0";
       "rsa_verify 1.66015625 1 0 0 0";
       "tsig_release 25 1 0 0 0";
       "tsig_verify_share 1.66015625 1 0 0 0";
       "tsig_verify_share_batch 4.98046875 3 0 0 0";
       "tsig_assemble 0 0 0 0 0";
       "tsig_verify 4.98046875 3 0 0 0";
       "coin_release 118.125 3 0 1 0";
       "coin_verify_share 20.3125 0 1 2 0";
       "coin_verify_share_batch 33.528645833333329 0 0 0 2";
       "coin_assemble 15.299479166666666 0 0 0 1";
       "enc_encrypt 12.52 0 0 5 0";
       "enc_dec_share 70 4 0 3 0";
       "enc_verify_share 20.3125 0 1 2 0";
       "enc_combine 46.895000000000003 3 0 0 0";
       "cache_hit 0.00020000000000000001 0 0 0 0";
       "hash 0.02 0 0 0 0";
       "store_append 0.0070000000000000001 0 0 0 0" ]) ]

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
        let shoup = Config.make ~n:4 ~t:1 ~tsig_scheme:Config.Shoup () in
        let multi = Config.make ~n:4 ~t:1 ~tsig_scheme:Config.Multi () in
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

    Alcotest.test_case "charge model: every entry's price pinned" `Quick
      (fun () ->
        List.iter
          (fun (scheme, golden) ->
            Alcotest.(check (list string))
              (if scheme = Config.Shoup then "shoup" else "multi")
              golden (price_list scheme))
          price_golden);
  ]

(* --- coin pre-generation safety --- *)

(* One dealer for the whole sweep (key material is independent of the run
   seed); engines are seeded per run, as in the vopr workloads. *)
let aba_dealer =
  lazy (Dealer.deal ~seed:"amort-aba" (Config.make ~n:4 ~t:1 ()))

let pregen_cluster ~(run_seed : string) : Cluster.t =
  Cluster.create ~seed:run_seed ~dealer:(Lazy.force aba_dealer)
    ~topo:(Util.default_topo ()) (Config.make ~n:4 ~t:1 ())

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
    hits := !hits +. Util.counter_value c p "verify.cache_hit"
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

(* --- the secure channel's decryption path, pinned end to end ---

   A seeded n=4 secure causal channel: parties 0, 1 and 3 send a
   cleartext each, party 2 hands the channel a mauled ciphertext (one
   payload byte flipped, so its validity proof fails), and party 3 is
   Byzantine on the decryption round: before any slot opens it sends every
   peer, for each of the four delivery slots, its honest decryption share
   of a different ciphertext.  Each party's delivery log, the milliseconds
   charged to each meter, the share-cache probes and the enc_* operation
   counts (every crypto span, nested ones included) are pinned. *)

let secure_pin () : string =
  let c = Util.cluster ~seed:"amort-secure" () in
  let ops = Hashtbl.create 16 in
  Cluster.set_sink c
    (Trace.Sink.Fn
       (fun (e : Trace.Event.t) ->
         if e.Trace.Event.cat = "crypto"
            && e.Trace.Event.ph = Trace.Event.Span_begin
            && String.starts_with ~prefix:"enc_" e.Trace.Event.name
         then begin
           let key = (e.Trace.Event.party, e.Trace.Event.name) in
           Hashtbl.replace ops key
             (1 + Option.value (Hashtbl.find_opt ops key) ~default:0)
         end));
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans =
    Array.init 4 (fun i ->
      Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"pin"
        ~on_deliver:(fun ~sender m ->
          logs.(i) := Printf.sprintf "%d:%s" sender m :: !(logs.(i)))
        ())
  in
  let enc_pub = c.Cluster.dealer.Dealer.enc_pub in
  let mauled =
    let ct =
      Secure_atomic_channel.encrypt ~drbg:(Util.drbg ~seed:"pin-maul" ())
        ~enc_pub ~pid:"pin" "mauled"
    in
    let b = Bytes.of_string ct in
    Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 1));
    Bytes.to_string b
  in
  let rt3 = Cluster.runtime c 3 in
  let forged =
    let other =
      Threshold_enc.encrypt ~drbg:(Util.drbg ~seed:"pin-other" ()) enc_pub
        ~label:"sac|pin" "other"
    in
    match
      Threshold_enc.dec_share ~drbg:rt3.Runtime.drbg enc_pub
        rt3.Runtime.keys.Dealer.enc_share other
    with
    | Some d -> d
    | None -> Alcotest.fail "no share for a valid ciphertext"
  in
  Cluster.inject c 3 (fun () ->
    for index = 0 to 3 do
      let body =
        Wire.encode (fun b ->
          Wire.Enc.int b index;
          Wire.Enc.int b forged.Threshold_enc.origin;
          Wire.Enc.bytes b (Bignum.Nat.to_bytes_be forged.Threshold_enc.u_i);
          Wire.Enc.bytes b
            (Bignum.Nat.to_bytes_be forged.Threshold_enc.proof.Dleq.a1);
          Wire.Enc.bytes b
            (Bignum.Nat.to_bytes_be forged.Threshold_enc.proof.Dleq.a2);
          Wire.Enc.bytes b
            (Bignum.Nat.to_bytes_be forged.Threshold_enc.proof.Dleq.response))
      in
      for dst = 0 to 2 do
        Runtime.send rt3 ~dst ~pid:"pin/dec" body
      done
    done);
  List.iter
    (fun p ->
      Cluster.inject c p (fun () ->
        Secure_atomic_channel.send chans.(p) (Printf.sprintf "pin-%d" p)))
    [ 0; 1; 3 ];
  Cluster.inject c 2 (fun () ->
    Secure_atomic_channel.send_ciphertext chans.(2) mauled);
  ignore (Cluster.run c ~until:120.0);
  String.concat "\n"
    (List.init 4 (fun p ->
       let rt = Cluster.runtime c p in
       let count name =
         Option.value (Hashtbl.find_opt ops (p, name)) ~default:0
       in
       Printf.sprintf
         "p%d [%s] cpu=%.6f store=%.6f hit=%g miss=%g valid=%d share=%d \
          verify=%d combine=%d encrypt=%d"
         p
         (String.concat "," (List.rev !(logs.(p))))
         rt.Runtime.charge.Charge.meter.Sim.Cost.total_ms
         rt.Runtime.store_charge.Charge.meter.Sim.Cost.total_ms
         (Util.counter_value c p "verify.cache_hit")
         (Util.counter_value c p "verify.cache_miss")
         (count "enc_ct_valid") (count "enc_dec_share")
         (count "enc_verify_share") (count "enc_combine")
         (count "enc_encrypt")))

let secure_pin_golden =
  String.concat "\n"
    [ "p0 [0:pin-0,1:pin-1,3:pin-3] cpu=172.174848 store=0.000000 hit=15 \
       miss=39 valid=4 share=4 verify=6 combine=3 encrypt=1";
      "p1 [0:pin-0,1:pin-1,3:pin-3] cpu=171.179154 store=0.000000 hit=17 \
       miss=37 valid=4 share=4 verify=6 combine=3 encrypt=1";
      "p2 [0:pin-0,1:pin-1,3:pin-3] cpu=170.924748 store=0.000000 hit=15 \
       miss=39 valid=4 share=4 verify=6 combine=3 encrypt=0";
      "p3 [0:pin-0,1:pin-1,3:pin-3] cpu=161.915358 store=0.000000 hit=16 \
       miss=35 valid=4 share=4 verify=3 combine=3 encrypt=1" ]

let secure_pin_tests =
  [
    Alcotest.test_case
      "secure channel: a forged decryption share and a mauled ciphertext \
       pin deliveries, charges, cache probes and enc op counts"
      `Quick (fun () ->
        Alcotest.(check string) "pinned" secure_pin_golden (secure_pin ()));
  ]

(* --- the share cache's memory follows its live entries --- *)

let cache_memory_tests =
  [
    Alcotest.test_case "share cache: the FIFO stays within 2*size + 64 over 10 000 cycles"
      `Quick (fun () ->
        (* Each cycle opens a group, fills it and evicts it, with one
           long-lived group growing alongside: without compaction the FIFO
           would keep every key ever inserted. *)
        let t = Share_cache.create ~cap:4096 in
        for i = 1 to 10_000 do
          let g = Printf.sprintf "g%d" i in
          for s = 0 to 2 do
            Share_cache.add t ~group:g ~scheme:"s" ~digest:(sha (string_of_int i))
              ~sender:s ~index:s
          done;
          if i mod 10 = 0 then
            Share_cache.add t ~group:"long" ~scheme:"l"
              ~digest:(sha (string_of_int i)) ~sender:0 ~index:0;
          Share_cache.evict_group t g;
          let size = Share_cache.size t and retained = Share_cache.retained t in
          if retained > (2 * size) + 64 then
            Alcotest.failf "cycle %d: %d keys retained for %d live entries" i
              retained size
        done;
        Alcotest.(check int) "only the long-lived group is live" 1000
          (Share_cache.size t);
        if Share_cache.peak_retained t > (2 * 1000) + 64 then
          Alcotest.failf "peak %d keys retained" (Share_cache.peak_retained t));

    Alcotest.test_case
      "share cache: FIFO by latest insertion under capacity pressure = a reference model"
      `Quick (fun () ->
        (* The model: live (key, group) pairs oldest first. *)
        let model = ref [] and cap = 5 in
        let m_add k g =
          if not (List.mem_assoc k !model) then begin
            if List.length !model >= cap then model := List.tl !model;
            model := !model @ [ (k, g) ]
          end
        in
        let m_evict g = model := List.filter (fun (_, g') -> g' <> g) !model in
        let t = Share_cache.create ~cap in
        let add k g =
          m_add k g;
          Share_cache.add t ~group:g ~scheme:"s" ~digest:(sha (string_of_int k))
            ~sender:k ~index:k
        and evict g =
          m_evict g;
          Share_cache.evict_group t g
        in
        let check what =
          for k = 0 to 11 do
            let live = List.mem_assoc k !model in
            if Share_cache.mem t ~scheme:"s" ~digest:(sha (string_of_int k))
                 ~sender:k ~index:k <> live
            then Alcotest.failf "%s: key %d should be %s" what k
                (if live then "live" else "gone")
          done;
          Alcotest.(check int) (what ^ ": size") (List.length !model)
            (Share_cache.size t)
        in
        (* Scripted: a key re-added after its group was evicted takes its
           new FIFO position... *)
        add 0 "a"; add 1 "b"; evict "a"; add 0 "b";
        add 2 "b"; add 3 "b"; add 4 "b"; add 5 "b";
        check "re-added key outlives an older one";
        evict "b";
        (* ...and a key pushed out of a live group by capacity, then
           re-added to another, survives its old group's eviction. *)
        add 6 "c"; add 7 "x"; add 8 "x"; add 9 "x"; add 11 "c"; add 10 "x";
        add 6 "e";
        evict "c";
        check "a stale pair leaves the key's new group alone";
        (* Randomized: 4000 operations over 12 keys and 4 groups. *)
        let rb = Util.random_bytes ~seed:"cache-model" () in
        let draw n = Char.code (rb 1).[0] mod n in
        let groups = [| "a"; "b"; "c"; "d" |] in
        for i = 1 to 4000 do
          if draw 4 = 0 then evict groups.(draw 4)
          else add (draw 12) groups.(draw 4);
          check (Printf.sprintf "operation %d" i)
        done);

    Alcotest.test_case
      "share-cache memory does not grow with history: atomic and secure channels"
      `Quick (fun () ->
        (* Drive each channel for R rounds and then R more, one payload per
           party per round, to quiescence each time.  The FIFO's high-water
           mark and the live entries must not follow the delivered count. *)
        let rounds = 8 in
        let drive c send from =
          for r = from to from + rounds - 1 do
            for p = 0 to 3 do
              Cluster.inject c p (fun () -> send p (Printf.sprintf "h.%d.%d" p r))
            done;
            ignore (Cluster.run c ~until:(Cluster.now c +. 30.0))
          done
        in
        let marks c =
          let m = Cluster.publish_metrics c in
          Array.init 4 (fun p ->
            let get name =
              match Trace.Metrics.find_counter m (Printf.sprintf "p%d/verify.%s" p name) with
              | Some ctr -> int_of_float (Trace.Metrics.value ctr)
              | None -> Alcotest.failf "p%d/verify.%s not published" p name
            in
            (get "cache_retained/max", get "cache_size"))
        in
        let check_flat what c send delivered =
          drive c send 0;
          let at_r = marks c and n_r = delivered () in
          drive c send rounds;
          let at_2r = marks c in
          if delivered () < 2 * n_r then
            Alcotest.failf "%s: %d then %d deliveries" what n_r (delivered ());
          Array.iteri
            (fun p (peak, live) ->
              let peak', live' = at_2r.(p) in
              if peak' > peak + 16 then
                Alcotest.failf "%s: party %d retained %d keys at R, %d at 2R" what p
                  peak peak';
              if live' > live + 16 then
                Alcotest.failf "%s: party %d held %d live entries at R, %d at 2R"
                  what p live live')
            at_r
        in
        let c = Util.cluster ~seed:"cache-history" () in
        let count = ref 0 in
        let abc =
          Array.init 4 (fun p ->
            Atomic_channel.create (Cluster.runtime c p) ~pid:"hist"
              ~on_deliver:(fun ~sender:_ _ -> if p = 0 then incr count) ())
        in
        check_flat "atomic" c (fun p m -> Atomic_channel.send abc.(p) m)
          (fun () -> !count);
        let c = Util.cluster ~seed:"cache-history" () in
        let count = ref 0 in
        let sac =
          Array.init 4 (fun p ->
            Secure_atomic_channel.create (Cluster.runtime c p) ~pid:"hist"
              ~on_deliver:(fun ~sender:_ _ -> if p = 0 then incr count) ())
        in
        check_flat "secure" c (fun p m -> Secure_atomic_channel.send sac.(p) m)
          (fun () -> !count));
  ]

(* --- near-copies of what a party already knows ---

   A party accepts a multi-signature share or part it signed or already
   checked without an RSA check, and delivers a ciphertext it encrypted
   without a validity check.  Each shortcut must fire only on the exact
   bytes: a one-byte near-copy is checked for real and rejected. *)

let flip_byte (s : string) (i : int) : string =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let near_copy_tests =
  [
    Alcotest.test_case
      "near-copies of a known multi-signature share or part are RSA-checked \
       and rejected"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"near-copy" ~tsig_scheme:Config.Multi () in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        let pid = "near" and msg = "near-stmt" in
        Runtime.register rt ~pid (fun ~src:_ _ -> ());
        let own = Runtime.release_share rt sec ~ctx:pid msg in
        let part p =
          let r = Cluster.runtime c p in
          Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx:pid msg
        in
        let multi = function
          | Tsig.Multi_share s -> s
          | Tsig.Shoup_share _ -> Alcotest.fail "a multi-signature key released a Shoup share"
        in
        let own_m = multi own in
        let near =
          { own_m with
            Multi_sig.signature =
              flip_byte own_m.Multi_sig.signature
                (String.length own_m.Multi_sig.signature - 1) }
        in
        let counts () =
          (Stmt_table.share_known rt.Runtime.stmts, Stmt_table.share_checked rt.Runtime.stmts)
        in
        let expect what ~known ~checked ok run =
          let k0, c0 = counts () in
          Alcotest.(check bool) what ok (run ());
          let k1, c1 = counts () in
          Alcotest.(check (pair int int)) (what ^ ": known/checked") (known, checked)
            (k1 - k0, c1 - c0)
        in
        expect "own share" ~known:1 ~checked:0 true (fun () ->
          Verify.tsig_share rt ~pub ~ctx:pid msg own);
        expect "near-copy of own share" ~known:0 ~checked:1 false (fun () ->
          Verify.tsig_share rt ~pub ~ctx:pid msg (Tsig.Multi_share near));
        let p1 = multi (part 1) and p2 = multi (part 2) in
        let signature parts = Multi_sig.assemble (match pub with
          | Tsig.Multi_pub p -> p
          | Tsig.Shoup_pub _ -> Alcotest.fail "expected a multi-signature key") parts
        in
        expect "own + two unchecked parts" ~known:1 ~checked:2 true (fun () ->
          Verify.tsig_signature rt ~pub ~ctx:pid ~signature:(signature [ own_m; p1; p2 ]) msg);
        (* Now all three parts are known, in any order... *)
        expect "reordered known parts" ~known:3 ~checked:0 true (fun () ->
          Verify.tsig_signature rt ~pub ~ctx:pid ~signature:(signature [ p2; own_m; p1 ]) msg);
        (* ...but a near-copy of one is checked, and fails the signature
           (the parts after it are not looked at). *)
        let near_p1 =
          { p1 with Multi_sig.signature = flip_byte p1.Multi_sig.signature 0 }
        in
        expect "near-copy part" ~known:1 ~checked:1 false (fun () ->
          Verify.tsig_signature rt ~pub ~ctx:pid
            ~signature:(signature [ own_m; near_p1; p2 ]) msg);
        (* A known signature under another origin's key is not known. *)
        expect "own signature claimed by party 2" ~known:0 ~checked:1 false (fun () ->
          Verify.tsig_share rt ~pub ~ctx:pid msg
            (Tsig.Multi_share { own_m with Multi_sig.origin = 2 }));
        (* Known lists are per statement. *)
        expect "own share on another statement" ~known:0 ~checked:1 false (fun () ->
          Verify.tsig_share rt ~pub ~ctx:pid (msg ^ "'") own));

    Alcotest.test_case
      "a near-copy of an own ciphertext is checked and its slot skipped"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"near-ct" () in
        let logs = Array.init 4 (fun _ -> ref []) in
        let chans =
          Array.init 4 (fun i ->
            Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"near"
              ~on_deliver:(fun ~sender m ->
                logs.(i) := Printf.sprintf "%d:%s" sender m :: !(logs.(i)))
              ())
        in
        let enc_pub = c.Cluster.dealer.Dealer.enc_pub in
        let message = "only-once" in
        let ct_len =
          String.length
            (Secure_atomic_channel.encrypt ~drbg:(Util.drbg ~seed:"near-len" ())
               ~enc_pub ~pid:"near" message)
        in
        (* A ciphertext's bytes are length-prefixed fields: c, then the label. *)
        let marker = Printf.sprintf "%08d%s" (String.length "sac|near") "sac|near" in
        let find s =
          let m = String.length marker in
          let rec go i =
            if i + m > String.length s then None
            else if String.sub s i m = marker then Some i
            else go (i + 1)
          in
          go 0
        in
        let sent = ref false in
        Cluster.set_intercept c (fun ~src ~dst:_ payload ->
          (if src = 0 && not !sent then
             match find payload with
             | Some j when j >= 8 + String.length message ->
               let start = j - 8 - String.length message in
               if start + ct_len <= String.length payload then begin
                 sent := true;
                 let ct = String.sub payload start ct_len in
                 (* The sender itself broadcasts a one-byte near-copy of its
                    own ciphertext: only the exact bytes are known valid. *)
                 Cluster.inject c 0 (fun () ->
                   Secure_atomic_channel.send_ciphertext chans.(0) (flip_byte ct 8))
               end
             | Some _ | None -> ());
          Sim.Net.Deliver);
        Cluster.inject c 0 (fun () -> Secure_atomic_channel.send chans.(0) message);
        ignore (Cluster.run c ~until:120.0);
        Alcotest.(check bool) "near-copy broadcast" true !sent;
        for p = 0 to 3 do
          Alcotest.(check (list string)) (Printf.sprintf "party %d delivers once" p)
            [ "0:" ^ message ] (List.rev !(logs.(p)))
        done;
        let m = Cluster.publish_metrics c in
        let get p =
          match Trace.Metrics.find_counter m (Printf.sprintf "p%d/sac.own_ct_reused" p) with
          | Some ctr -> int_of_float (Trace.Metrics.value ctr)
          | None -> Alcotest.failf "p%d/sac.own_ct_reused not published" p
        in
        Alcotest.(check (list int)) "only the sender's exact bytes skip the check"
          [ 1; 0; 0; 0 ] (List.init 4 get));
  ]

let suite =
  equivalence_tests @ cache_tests @ stmt_tests @ verify_tests
  @ determinism_tests @ cost_tests @ pregen_tests @ secure_pin_tests
  @ cache_memory_tests @ near_copy_tests
