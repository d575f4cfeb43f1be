(* System-level tests: the dealer, configuration rules, scheme
   interchangeability (Shoup vs multi-signatures), adversarial scheduling,
   larger groups, and end-to-end determinism. *)

open Sintra

let suite = [
  (* --- configuration --- *)

  Alcotest.test_case "config rejects n <= 3t" `Quick (fun () ->
    Alcotest.check_raises "n=3 t=1" (Invalid_argument "Config: need n > 3t")
      (fun () -> ignore (Config.make ~n:3 ~t:1 ()));
    Alcotest.check_raises "n=6 t=2" (Invalid_argument "Config: need n > 3t")
      (fun () -> ignore (Config.make ~n:6 ~t:2 ()));
    ignore (Config.make ~n:7 ~t:2 ()));

  Alcotest.test_case "config rejects infeasible batch sizes" `Quick (fun () ->
    Alcotest.check_raises "B > n-t"
      (Invalid_argument "Config: batch size must satisfy 1 <= B <= n - t")
      (fun () -> ignore (Config.make ~batch_size:4 ~n:4 ~t:1 ()));
    ignore (Config.make ~batch_size:3 ~n:4 ~t:1 ()));

  Alcotest.test_case "quorum arithmetic" `Quick (fun () ->
    let check ~n ~t ~echo ~vote ~ready =
      let c = Config.make ~n ~t () in
      Alcotest.(check int) "echo" echo (Config.echo_quorum c);
      Alcotest.(check int) "vote" vote (Config.vote_quorum c);
      Alcotest.(check int) "ready" ready (Config.ready_quorum c);
      Alcotest.(check int) "coin" (t + 1) (Config.coin_threshold c)
    in
    check ~n:4 ~t:1 ~echo:3 ~vote:3 ~ready:3;
    check ~n:7 ~t:2 ~echo:5 ~vote:5 ~ready:5;
    check ~n:10 ~t:3 ~echo:7 ~vote:7 ~ready:7;
    check ~n:5 ~t:1 ~echo:4 ~vote:4 ~ready:3);

  (* --- the dealer --- *)

  Alcotest.test_case "dealer is deterministic in its seed" `Quick (fun () ->
    let cfg = Config.make ~n:4 ~t:1 () in
    let d1 = Dealer.deal ~seed:"alpha" cfg in
    let d2 = Dealer.deal ~seed:"alpha" cfg in
    let d3 = Dealer.deal ~seed:"beta" cfg in
    Alcotest.(check bool) "same seed same macs" true (d1.Dealer.mac_keys = d2.Dealer.mac_keys);
    Alcotest.(check bool) "same group" true
      (Bignum.Nat.equal d1.Dealer.group.Crypto.Group.p d2.Dealer.group.Crypto.Group.p);
    Alcotest.(check bool) "different seed different macs" true
      (d1.Dealer.mac_keys <> d3.Dealer.mac_keys));

  Alcotest.test_case "dealer wires the right thresholds" `Quick (fun () ->
    let cfg = Config.make ~n:7 ~t:2 () in
    let d = Dealer.deal ~seed:"thresholds" cfg in
    Alcotest.(check int) "coin k" 3 d.Dealer.coin_pub.Crypto.Threshold_coin.k;
    Alcotest.(check int) "bc tsig k" (Config.echo_quorum cfg) (Tsig.k d.Dealer.bc_tsig_pub);
    Alcotest.(check int) "ag tsig k" (Config.vote_quorum cfg) (Tsig.k d.Dealer.ag_tsig_pub);
    Alcotest.(check int) "enc k" 3 d.Dealer.enc_pub.Crypto.Threshold_enc.k;
    Alcotest.(check int) "parties" 7 (Array.length d.Dealer.parties));

  Alcotest.test_case "cluster refuses a dealer dealt for another (n, t)" `Quick
    (fun () ->
      let dealer = (Util.cluster ~n:4 ~t:1 ()).Cluster.dealer in
      let refuses ~n ~t =
        Alcotest.check_raises (Printf.sprintf "n=%d t=%d" n t)
          (Invalid_argument "Cluster.create: dealer dealt for another (n, t)")
          (fun () ->
            ignore
              (Cluster.create ~dealer ~topo:(Util.default_topo ~count:n ())
                 (Config.make ~n ~t ())))
      in
      refuses ~n:7 ~t:2;
      refuses ~n:4 ~t:0;
      ignore
        (Cluster.create ~dealer ~topo:(Util.default_topo ())
           (Config.make ~max_batch:1 ~n:4 ~t:1 ())));

  Alcotest.test_case "dealer mac matrix is symmetric and per-pair" `Quick (fun () ->
    let cfg = Config.make ~n:4 ~t:1 () in
    let d = Dealer.deal ~seed:"macs" cfg in
    let m = Dealer.net_mac_keys d in
    for i = 0 to 3 do
      for j = 0 to 3 do
        Alcotest.(check string) "sym" m.(i).(j) m.(j).(i);
        Alcotest.(check int) "128-bit" 16 (String.length m.(i).(j))
      done
    done;
    Alcotest.(check bool) "distinct pairs" true (m.(0).(1) <> m.(0).(2)));

  (* --- scheme interchangeability (the paper's multi-signature claim) --- *)

  Alcotest.test_case "consistent broadcast works with Shoup threshold sigs" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"shoup-cbc" ~tsig_scheme:Config.Shoup () in
      let got = Array.make 4 None in
      let insts =
        Array.init 4 (fun i ->
          Consistent_broadcast.create (Cluster.runtime c i) ~pid:"sc" ~sender:0
            ~on_deliver:(fun m -> got.(i) <- Some m))
      in
      Cluster.inject c 0 (fun () -> Consistent_broadcast.send insts.(0) "via shoup");
      ignore (Cluster.run c);
      Array.iter
        (fun g -> Alcotest.(check (option string)) "delivered" (Some "via shoup") g)
        got;
      (* the closing message's signature is a standard RSA signature here *)
      match Consistent_broadcast.get_closing insts.(1) with
      | None -> Alcotest.fail "no closing"
      | Some cl ->
        Alcotest.(check bool) "valid" true
          (Consistent_broadcast.closing_valid (Cluster.runtime c 2) ~pid:"sc" cl));

  Alcotest.test_case "binary agreement works with Shoup threshold sigs" `Slow (fun () ->
    let c = Util.cluster ~seed:"shoup-aba" ~tsig_scheme:Config.Shoup () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    List.iteri
      (fun i v -> Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
      [ true; false; false; true ];
    ignore (Cluster.run c);
    Array.iter (fun d -> if d = None then Alcotest.fail "undecided") decided;
    Util.check_all_equal "agreement" (Array.to_list decided));

  Alcotest.test_case "atomic channel works with Shoup threshold sigs" `Slow (fun () ->
    let c = Util.cluster ~seed:"shoup-abc" ~tsig_scheme:Config.Shoup () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Atomic_channel.create (Cluster.runtime c i) ~pid:"abc"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    for k = 0 to 2 do
      Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) (Printf.sprintf "s%d" k))
    done;
    ignore (Cluster.run c);
    let seqs = Array.map (fun l -> List.rev !l) logs in
    Util.check_all_equal "total order" (Array.to_list seqs);
    Alcotest.(check int) "all delivered" 3 (List.length seqs.(0)));

  (* --- adversarial scheduling --- *)

  Alcotest.test_case "agreement survives heavy adversarial delays" `Slow (fun () ->
    (* Delay every 5th message by several seconds: the protocol is
       asynchronous, so this must only slow it down. *)
    let c = Util.cluster ~seed:"delays" () in
    let counter = ref 0 in
    Cluster.set_intercept c (fun ~src:_ ~dst:_ _ ->
      incr counter;
      if !counter mod 5 = 0 then Sim.Net.Delay 3.0 else Sim.Net.Deliver);
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    List.iteri
      (fun i v -> Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
      [ true; false; true; false ];
    ignore (Cluster.run c);
    Array.iter (fun d -> if d = None then Alcotest.fail "undecided under delays") decided;
    Util.check_all_equal "agreement" (Array.to_list decided));

  Alcotest.test_case "corrupted party's traffic can be dropped entirely" `Quick
    (fun () ->
      (* The adversary silences one party completely (equivalent to a crash
         from the network's viewpoint); everything still works. *)
      let c = Util.cluster ~seed:"silence" () in
      Cluster.set_intercept c (fun ~src ~dst:_ _ ->
        if src = 2 then Sim.Net.Drop else Sim.Net.Deliver);
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"abc"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      Cluster.inject c 0 (fun () -> Atomic_channel.send chans.(0) "still works");
      ignore (Cluster.run c);
      List.iter
        (fun i ->
          Alcotest.(check (list (pair int string))) "delivered"
            [ (0, "still works") ] (List.rev !(logs.(i))))
        [ 0; 1; 3 ]);

  (* --- larger groups --- *)

  Alcotest.test_case "n=7 t=2 atomic channel with two crashes" `Slow (fun () ->
    let c = Util.cluster ~seed:"big" ~n:7 ~t:2 () in
    let logs = Array.init 7 (fun _ -> ref []) in
    let chans =
      Array.init 7 (fun i ->
        Atomic_channel.create (Cluster.runtime c i) ~pid:"abc"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    Cluster.crash c 5;
    Cluster.crash c 6;
    for i = 0 to 2 do
      for k = 0 to 1 do
        Cluster.inject c i (fun () ->
          Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i k))
      done
    done;
    ignore (Cluster.run c);
    let seqs = List.map (fun i -> List.rev !(logs.(i))) [ 0; 1; 2; 3; 4 ] in
    Util.check_all_equal "total order among live" seqs;
    Alcotest.(check int) "all delivered" 6 (List.length (List.hd seqs)));

  Alcotest.test_case "secure channel with a crashed party" `Quick (fun () ->
    let c = Util.cluster ~seed:"sec-crash" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    Cluster.crash c 3;
    Cluster.inject c 0 (fun () -> Secure_atomic_channel.send chans.(0) "classified");
    ignore (Cluster.run c);
    List.iter
      (fun i ->
        Alcotest.(check (list (pair int string))) "decrypted"
          [ (0, "classified") ] (List.rev !(logs.(i))))
      [ 0; 1; 2 ]);

  (* --- determinism --- *)

  Alcotest.test_case "identical seeds give identical runs" `Quick (fun () ->
    let trace seed =
      let c = Util.cluster ~seed () in
      let log = ref [] in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"abc"
            ~on_deliver:(fun ~sender m ->
              if i = 0 then
                log := Printf.sprintf "%.9f|%d|%s" (Cluster.now c) sender m :: !log)
            ())
      in
      for i = 0 to 2 do
        Cluster.inject c i (fun () -> Atomic_channel.send chans.(i) (string_of_int i))
      done;
      ignore (Cluster.run c);
      List.rev !log
    in
    Alcotest.(check (list string)) "bit-identical" (trace "det") (trace "det");
    Alcotest.(check bool) "seed matters" true (trace "det" <> trace "det2"));

  Alcotest.test_case "virtual CPU time is actually charged" `Quick (fun () ->
    let c = Util.cluster ~seed:"meter" () in
    let got = ref None in
    let insts =
      Array.init 4 (fun i ->
        Consistent_broadcast.create (Cluster.runtime c i) ~pid:"m" ~sender:0
          ~on_deliver:(fun m -> if i = 1 then got := Some m))
    in
    Cluster.inject c 0 (fun () -> Consistent_broadcast.send insts.(0) "x");
    ignore (Cluster.run c);
    Alcotest.(check (option string)) "delivered" (Some "x") !got;
    (* every party did real modeled crypto work *)
    for i = 0 to 3 do
      let meter = Sim.Net.meter c.Cluster.net i in
      if meter.Sim.Cost.total_ms <= 0.0 then
        Alcotest.failf "party %d charged no CPU" i
    done;
    Alcotest.(check bool) "clock advanced" true (Cluster.now c > 0.0));

  Alcotest.test_case "link MACs protect protocol traffic end-to-end" `Quick (fun () ->
    (* Replace a protocol message in flight: the MAC drops it and the
       broadcast still completes via the other parties. *)
    let c = Util.cluster ~seed:"mac-e2e" () in
    let tampered = ref 0 in
    Cluster.set_intercept c (fun ~src ~dst _ ->
      if src = 0 && dst = 2 && !tampered = 0 then begin
        incr tampered;
        Sim.Net.Replace "evil bytes"
      end
      else Sim.Net.Deliver);
    let got = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Reliable_broadcast.create (Cluster.runtime c i) ~pid:"r" ~sender:0
          ~on_deliver:(fun m -> got.(i) <- Some m))
    in
    Cluster.inject c 0 (fun () -> Reliable_broadcast.send insts.(0) "protected");
    ignore (Cluster.run c);
    Alcotest.(check int) "tampering happened" 1 !tampered;
    Alcotest.(check int) "mac caught it" 1 (Sim.Net.mac_failures c.Cluster.net);
    Array.iter
      (fun g -> Alcotest.(check (option string)) "delivered anyway" (Some "protected") g)
      got);
]

(* --- the full stack over lossy datagrams (the paper's planned TCP
   replacement carrying real protocol traffic) --- *)

let lossy_suite = [
  Alcotest.test_case "reliable broadcast over 10% frame loss" `Quick (fun () ->
    let cfg = Config.make ~n:4 ~t:1 () in
    let topo = Sim.Topology.uniform ~count:4 () in
    let c = Cluster.create ~seed:"lossy-rbc" ~loss:0.10 ~topo cfg in
    let got = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Reliable_broadcast.create (Cluster.runtime c i) ~pid:"lr" ~sender:0
          ~on_deliver:(fun m -> got.(i) <- Some m))
    in
    Cluster.inject c 0 (fun () -> Reliable_broadcast.send insts.(0) "through the storm");
    ignore (Cluster.run c ~until:120.0);
    Array.iter
      (fun g -> Alcotest.(check (option string)) "delivered" (Some "through the storm") g)
      got);

  Alcotest.test_case "atomic channel over 10% frame loss keeps total order" `Slow
    (fun () ->
      let cfg = Config.make ~n:4 ~t:1 () in
      let topo = Sim.Topology.uniform ~count:4 () in
      let c = Cluster.create ~seed:"lossy-abc" ~loss:0.10 ~topo cfg in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"la"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      for i = 0 to 2 do
        for k = 0 to 1 do
          Cluster.inject c i (fun () ->
            Atomic_channel.send chans.(i) (Printf.sprintf "l%d.%d" i k))
        done
      done;
      ignore (Cluster.run c ~until:600.0);
      let seqs = Array.map (fun l -> List.rev !l) logs in
      Util.check_all_equal "total order over loss" (Array.to_list seqs);
      Alcotest.(check int) "all six delivered" 6 (List.length seqs.(0)));

  Alcotest.test_case "binary agreement over 15% frame loss" `Slow (fun () ->
    let cfg = Config.make ~n:4 ~t:1 () in
    let topo = Sim.Topology.uniform ~count:4 () in
    let c = Cluster.create ~seed:"lossy-aba" ~loss:0.15 ~topo cfg in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Binary_agreement.create (Cluster.runtime c i) ~pid:"laba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    List.iteri
      (fun i v -> Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
      [ true; false; true; false ];
    ignore (Cluster.run c ~until:600.0);
    Array.iter (fun d -> if d = None then Alcotest.fail "undecided over loss") decided;
    Util.check_all_equal "agreement over loss" (Array.to_list decided));
]

let suite = suite @ lossy_suite
