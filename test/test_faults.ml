(* Fault-scenario tests using the reusable adversaries, including the
   classic partition-and-heal liveness check. *)

open Sintra

let suite = [
  Alcotest.test_case "2-2 partition stalls atomic broadcast, heals, resumes" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"part1" () in
      Faults.install c (Faults.partition c ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~heal_at:5.0);
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"pt"
            ~on_deliver:(fun ~sender m ->
              logs.(i) := (Cluster.now c, sender, m) :: !(logs.(i)))
            ())
      in
      Cluster.inject c 0 (fun () -> Atomic_channel.send chans.(0) "split brain?");
      (* during the partition nothing can be delivered: no component has
         n-t = 3 members *)
      ignore (Cluster.run c ~until:4.9);
      Array.iteri
        (fun i log ->
          if !log <> [] then Alcotest.failf "party %d delivered during partition" i)
        logs;
      (* heal and run to quiescence *)
      ignore (Cluster.run c);
      let seqs = Array.map (fun l -> List.rev_map (fun (_, s, m) -> (s, m)) !l) logs in
      Util.check_all_equal "order after heal" (Array.to_list seqs);
      Array.iteri
        (fun i log ->
          match List.rev !log with
          | [ (time, 0, "split brain?") ] ->
            if time < 5.0 then Alcotest.failf "party %d delivered before heal" i
          | _ -> Alcotest.failf "party %d: unexpected deliveries" i)
        logs);

  Alcotest.test_case "3-1 partition: majority side keeps running" `Quick (fun () ->
    let c = Util.cluster ~seed:"part2" () in
    Faults.install c (Faults.partition c ~groups:[ [ 0; 1; 2 ]; [ 3 ] ] ~heal_at:30.0);
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Atomic_channel.create (Cluster.runtime c i) ~pid:"pt"
          ~on_deliver:(fun ~sender m ->
            logs.(i) := (Cluster.now c, sender, m) :: !(logs.(i)))
          ())
    in
    Cluster.inject c 0 (fun () -> Atomic_channel.send chans.(0) "majority");
    ignore (Cluster.run c ~until:25.0);
    (* the 3-member side (= n-t) must deliver before healing... *)
    List.iter
      (fun i ->
        match !(logs.(i)) with
        | [ (time, 0, "majority") ] ->
          if time >= 25.0 then Alcotest.failf "party %d too late" i
        | _ -> Alcotest.failf "party %d did not deliver" i)
      [ 0; 1; 2 ];
    (* ...and the isolated party catches up after the heal *)
    ignore (Cluster.run c);
    (match !(logs.(3)) with
     | [ (_, 0, "majority") ] -> ()
     | _ -> Alcotest.fail "isolated party did not catch up"));

  Alcotest.test_case "eclipsed party reads the same history late" `Quick (fun () ->
    let c = Util.cluster ~seed:"ecl" () in
    Faults.install c (Faults.eclipse 2 ~delay:6.0);
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Atomic_channel.create (Cluster.runtime c i) ~pid:"ec"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    for k = 0 to 2 do
      Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) (Printf.sprintf "e%d" k))
    done;
    ignore (Cluster.run c);
    let seqs = Array.map (fun l -> List.rev !l) logs in
    Util.check_all_equal "identical including the eclipsed party"
      (Array.to_list seqs);
    Alcotest.(check int) "complete" 3 (List.length seqs.(2)));

  Alcotest.test_case "scheduler drops: whoever delivers, delivers consistently" `Quick
    (fun () ->
      (* drop_every models an adversarial scheduler discarding messages of a
         protocol that tolerates it: reliable broadcast has enough
         redundancy to deliver when only 1 in 10 messages vanish. *)
      let c = Util.cluster ~seed:"dr" () in
      Faults.install c (Faults.drop_every 10);
      let got = Array.make 4 None in
      let insts =
        Array.init 4 (fun i ->
          Reliable_broadcast.create (Cluster.runtime c i) ~pid:"dr" ~sender:0
            ~on_deliver:(fun m -> got.(i) <- Some m))
      in
      Cluster.inject c 0 (fun () -> Reliable_broadcast.send insts.(0) "redundant");
      ignore (Cluster.run c);
      (* With random drops Bracha's quorums may or may not complete for
         every party, but consistency must hold for all who delivered. *)
      let delivered = Array.to_list got |> List.filter_map (fun x -> x) in
      Util.check_all_equal "consistent" delivered);

  Alcotest.test_case "Byzantine double pre-vote is flagged, agreement survives" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"byz-dv" () in
      let decisions = Array.make 4 None in
      let insts =
        Array.init 3 (fun i ->
          Binary_agreement.create (Cluster.runtime c i) ~pid:"byz"
            ~on_decide:(fun b _ -> decisions.(i) <- Some b))
      in
      (* Party 3 runs no honest instance: it broadcasts two conflicting,
         validly signed round-1 pre-votes — classic equivocation. *)
      let rt3 = Cluster.runtime c 3 in
      let forged_prevote (value : bool) : string =
        let stmt = Printf.sprintf "aba-pre|%s|%d|%b" "byz" 1 value in
        let share =
          Tsig.release ~drbg:rt3.Runtime.drbg rt3.Runtime.keys.Dealer.ag_tsig
            ~ctx:"byz" stmt
        in
        Wire.encode (fun b ->
          Wire.Enc.u8 b 0;                       (* tag_prevote *)
          Wire.Enc.int b 1;                      (* round *)
          Wire.Enc.bool b value;
          Tsig.enc_share b share;
          Wire.Enc.u8 b 0;                       (* J_initial *)
          Wire.Enc.option b Wire.Enc.bytes None  (* no validity proof *))
      in
      Array.iteri
        (fun i inst ->
          Cluster.inject c i (fun () -> Binary_agreement.propose inst true))
        insts;
      Cluster.inject c 3 (fun () ->
        Runtime.broadcast rt3 ~pid:"byz" (forged_prevote true);
        Runtime.broadcast rt3 ~pid:"byz" (forged_prevote false));
      ignore (Cluster.run c);
      (* The honest parties still agree... *)
      let decided = List.filter_map (fun i -> decisions.(i)) [ 0; 1; 2 ] in
      if List.length decided <> 3 then
        Alcotest.fail "an honest party failed to decide";
      Util.check_all_equal "honest agreement" decided;
      (* ...and every one of them recorded party 3 as an equivocator. *)
      List.iter
        (fun i ->
          let rt = Cluster.runtime c i in
          let flags = Invariant.flagged rt.Runtime.inv in
          if not (List.exists (fun (off, _) -> off = 3) flags) then
            Alcotest.failf "party %d did not flag the equivocator" i)
        [ 0; 1; 2 ]);

  Alcotest.test_case "invariant checker stays silent on a clean run" `Quick
    (fun () ->
      (* Atomic broadcast exercises the INIT pool, binary agreement, and
         consistent broadcast invariant hooks; any local violation would
         raise out of Cluster.run, and no party may be flagged. *)
      let c = Util.cluster ~seed:"clean-inv" () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"ci"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i)))
            ())
      in
      for k = 0 to 2 do
        Cluster.inject c (k mod 4) (fun () ->
          Atomic_channel.send chans.(k mod 4) (Printf.sprintf "m%d" k))
      done;
      ignore (Cluster.run c);
      let seqs = Array.map (fun l -> List.rev !l) logs in
      Util.check_all_equal "identical delivery" (Array.to_list seqs);
      Alcotest.(check int) "complete" 3 (List.length seqs.(0));
      Array.iteri
        (fun i _ ->
          let rt = Cluster.runtime c i in
          match Invariant.flagged rt.Runtime.inv with
          | [] -> ()
          | (off, what) :: _ ->
            Alcotest.failf "party %d flagged %d on a clean run: %s" i off what)
        chans);
]
