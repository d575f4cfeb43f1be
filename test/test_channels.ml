(* Tests for the channels: atomic, secure causal atomic, reliable,
   consistent. *)

open Sintra

let make_atomic ?(n = 4) (c : Cluster.t) pid =
  let logs = Array.init n (fun _ -> ref []) in
  let closed = Array.make n false in
  let chans =
    Array.init n (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid
        ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i)))
        ~on_close:(fun () -> closed.(i) <- true) ())
  in
  (chans, logs, closed)

let sequences logs = Array.map (fun l -> List.rev !l) logs

let suite = [
  Alcotest.test_case "atomic: single sender, in-order total delivery" `Quick (fun () ->
    let c = Util.cluster ~seed:"at1" () in
    let chans, logs, _ = make_atomic c "abc" in
    for k = 0 to 4 do
      Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) (Printf.sprintf "m%d" k))
    done;
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "total order" (Array.to_list seqs);
    Alcotest.(check (list (pair int string))) "sender order preserved"
      (List.init 5 (fun k -> (1, Printf.sprintf "m%d" k)))
      seqs.(0));

  Alcotest.test_case "atomic: concurrent senders, identical order everywhere" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"at2" () in
      let chans, logs, _ = make_atomic c "abc" in
      for i = 0 to 3 do
        for k = 0 to 3 do
          Cluster.inject c i (fun () ->
            Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i k))
        done
      done;
      ignore (Cluster.run c);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 16 delivered" 16 (List.length seqs.(0));
      (* no duplicates *)
      Alcotest.(check int) "distinct" 16
        (List.length (List.sort_uniq compare seqs.(0)));
      (* per-sender FIFO *)
      for i = 0 to 3 do
        let mine = List.filter (fun (s, _) -> s = i) seqs.(0) in
        Alcotest.(check (list (pair int string))) (Printf.sprintf "fifo %d" i)
          (List.init 4 (fun k -> (i, Printf.sprintf "m%d.%d" i k)))
          mine
      done);

  Alcotest.test_case "atomic: tolerates a crashed party" `Quick (fun () ->
    let c = Util.cluster ~seed:"at3" () in
    let chans, logs, _ = make_atomic c "abc" in
    Cluster.crash c 3;
    for k = 0 to 2 do
      Cluster.inject c 0 (fun () -> Atomic_channel.send chans.(0) (Printf.sprintf "x%d" k))
    done;
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "order among live" [ seqs.(0); seqs.(1); seqs.(2) ];
    Alcotest.(check int) "all delivered" 3 (List.length seqs.(0)));

  Alcotest.test_case "atomic: byzantine party cannot forge a sender" `Quick (fun () ->
    (* Party 0 injects an INIT claiming to carry a message from party 2 with
       a bogus signature; the batch validator must reject it everywhere, and
       the channel must still deliver honest traffic. *)
    let c = Util.cluster ~seed:"at4" () in
    let chans, logs, _ = make_atomic c "abc" in
    Cluster.inject c 0 (fun () ->
      let rt = Cluster.runtime c 0 in
      let body =
        Wire.encode (fun b ->
          Wire.Enc.u8 b 0;
          Wire.Enc.int b 0;          (* round *)
          Wire.Enc.int b 2;          (* forged orig *)
          Wire.Enc.int b 0;          (* seq *)
          Wire.Enc.bytes b "\x01forged-from-2";
          Wire.Enc.int b 0;          (* signer = 0, but sig is garbage *)
          Wire.Enc.bytes b (String.make 32 '\000'))
      in
      for dst = 0 to 3 do Runtime.send rt ~dst ~pid:"abc" body done);
    Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) "legit");
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check (list (pair int string))) "only legit" [ (1, "legit") ] seqs.(0));

  Alcotest.test_case "atomic: close needs t+1 requests" `Quick (fun () ->
    let c = Util.cluster ~seed:"at5" () in
    let chans, _, closed = make_atomic c "abc" in
    (* one close request (t = 1) is not enough *)
    Cluster.inject c 0 (fun () -> Atomic_channel.close chans.(0));
    ignore (Cluster.run c);
    Alcotest.(check bool) "not closed" false (Array.exists (fun x -> x) closed);
    (* a second requester closes the channel everywhere *)
    Cluster.inject c 1 (fun () -> Atomic_channel.close chans.(1));
    ignore (Cluster.run c);
    Alcotest.(check bool) "all closed" true (Array.for_all (fun x -> x) closed);
    Alcotest.check_raises "send after close"
      (Invalid_argument "Atomic_channel.send: channel closed")
      (fun () -> Atomic_channel.send chans.(2) "late"));

  Alcotest.test_case "atomic: messages before close are delivered" `Quick (fun () ->
    let c = Util.cluster ~seed:"at6" () in
    let chans, logs, closed = make_atomic c "abc" in
    Cluster.inject c 0 (fun () ->
      Atomic_channel.send chans.(0) "before";
      Atomic_channel.close chans.(0));
    Cluster.inject c 1 (fun () -> Atomic_channel.close chans.(1));
    Cluster.inject c 2 (fun () -> Atomic_channel.close chans.(2));
    ignore (Cluster.run c);
    Alcotest.(check bool) "closed" true (Array.for_all (fun x -> x) closed);
    let seqs = sequences logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check bool) "payload delivered" true
      (List.mem (0, "before") seqs.(0)));

  Alcotest.test_case "atomic: batch size n-t also works" `Quick (fun () ->
    let c = Util.cluster ~seed:"at7" ~batch_size:3 () in
    let chans, logs, _ = make_atomic c "abc" in
    for i = 0 to 2 do
      Cluster.inject c i (fun () -> Atomic_channel.send chans.(i) (Printf.sprintf "b%d" i))
    done;
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check int) "all three" 3 (List.length seqs.(0)));

  Alcotest.test_case "secure: total order and correct plaintexts" `Quick (fun () ->
    let c = Util.cluster ~seed:"sc1" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    for i = 0 to 2 do
      Cluster.inject c i (fun () ->
        Secure_atomic_channel.send chans.(i) (Printf.sprintf "secret-%d" i))
    done;
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check int) "three" 3 (List.length seqs.(0));
    List.iter
      (fun (s, m) -> Alcotest.(check string) "plaintext" (Printf.sprintf "secret-%d" s) m)
      seqs.(0));

  Alcotest.test_case "secure: plaintext never appears on the wire" `Quick (fun () ->
    let c = Util.cluster ~seed:"sc2" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    let secret = "EXTREMELY-SECRET-BID-1234567" in
    let contains_secret = ref false in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m > 0 && go 0
    in
    Cluster.set_intercept c (fun ~src:_ ~dst:_ payload ->
      if contains payload secret then contains_secret := true;
      Sim.Net.Deliver);
    Cluster.inject c 0 (fun () -> Secure_atomic_channel.send chans.(0) secret);
    ignore (Cluster.run c);
    Alcotest.(check bool) "confidential on the wire" false !contains_secret;
    Alcotest.(check (list (pair int string))) "but delivered" [ (0, secret) ]
      (List.rev !(logs.(1))));

  Alcotest.test_case "secure: ciphertext event precedes delivery" `Quick (fun () ->
    let c = Util.cluster ~seed:"sc3" () in
    let order = ref [] in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender:_ _ -> if i = 1 then order := `Plain :: !order)
          ~on_ciphertext:(fun ~sender:_ _ -> if i = 1 then order := `Cipher :: !order)
          ())
    in
    Cluster.inject c 2 (fun () -> Secure_atomic_channel.send chans.(2) "m");
    ignore (Cluster.run c);
    Alcotest.(check bool) "cipher first" true (List.rev !order = [ `Cipher; `Plain ]));

  Alcotest.test_case "secure: external ciphertext via sendCiphertext" `Quick (fun () ->
    let c = Util.cluster ~seed:"sc4" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    (* an outside client encrypts with only the public key... *)
    let ct =
      Secure_atomic_channel.encrypt ~drbg:(Util.drbg ~seed:"client" ())
        ~enc_pub:c.Cluster.dealer.Dealer.enc_pub ~pid:"sac" "from outside"
    in
    (* ...and hands the ciphertext to a group member for broadcasting *)
    Cluster.inject c 3 (fun () -> Secure_atomic_channel.send_ciphertext chans.(3) ct);
    ignore (Cluster.run c);
    List.iter
      (fun log ->
        Alcotest.(check (list (pair int string))) "delivered" [ (3, "from outside") ]
          (List.rev !log))
      (Array.to_list logs));

  Alcotest.test_case "secure: garbage ciphertext skipped consistently" `Quick (fun () ->
    let c = Util.cluster ~seed:"sc5" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    Cluster.inject c 0 (fun () ->
      Secure_atomic_channel.send_ciphertext chans.(0) "not a ciphertext at all");
    Cluster.inject c 1 (fun () -> Secure_atomic_channel.send chans.(1) "real");
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check (list (pair int string))) "only real" [ (1, "real") ] seqs.(0));

  Alcotest.test_case "secure: one decryption-share frame per peer per round" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"sc6" () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      (* Per sender: share frames and share records to the other parties;
         a frame's slot indices must run consecutively upward. *)
      let frames = Array.make 4 0 and records = Array.make 4 0 in
      Cluster.set_intercept c (fun ~src ~dst payload ->
        (match
           Wire.decode payload (fun d ->
             let pid = Wire.Dec.bytes d in
             (pid, Wire.Dec.bytes d))
         with
         | Some ("sac/dec", body) when src <> dst ->
           let indices =
             Wire.decode body (fun d ->
               let rec go acc =
                 let index = Wire.Dec.int d in
                 ignore (Wire.Dec.int d);
                 for _ = 1 to 4 do ignore (Wire.Dec.bytes d) done;
                 if Wire.Dec.finished d then List.rev (index :: acc)
                 else go (index :: acc)
               in
               go [])
           in
           (match indices with
            | Some (first :: _ as l) ->
              Alcotest.(check (list int)) "consecutive slots"
                (List.init (List.length l) (fun k -> first + k)) l;
              frames.(src) <- frames.(src) + 1;
              records.(src) <- records.(src) + List.length l
            | Some [] | None -> Alcotest.fail "malformed share frame")
         | _ -> ());
        Sim.Net.Deliver);
      for i = 0 to 3 do
        Cluster.inject c i (fun () ->
          for k = 0 to 2 do
            Secure_atomic_channel.send chans.(i) (Printf.sprintf "s%d.%d" i k)
          done)
      done;
      ignore (Cluster.run c);
      let seqs = sequences logs in
      Util.check_all_equal "order" (Array.to_list seqs);
      Alcotest.(check int) "all twelve" 12 (List.length seqs.(0));
      for p = 0 to 3 do
        Alcotest.(check int) "one share per slot and peer" 36 records.(p);
        let rounds = int_of_float (Util.counter_value c p "abc.rounds") in
        if frames.(p) > 3 * rounds || frames.(p) >= records.(p) then
          Alcotest.failf "party %d sent %d share frames (%d records) in %d rounds"
            p frames.(p) records.(p) rounds
      done);

  Alcotest.test_case "secure: early shares are buffered once per (slot, sender)" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"sc7" () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"sac"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      (* Share records for future slots, with junk group elements: nothing
         checks a share before its slot opens. *)
      let frame ~src indices =
        Wire.encode (fun b ->
          List.iter
            (fun index ->
              Wire.Enc.int b index;
              Wire.Enc.int b (src + 1);
              for _ = 1 to 4 do Wire.Enc.bytes b "\x01" done)
            indices)
      in
      let send ~src body = Runtime.send (Cluster.runtime c src) ~dst:0 ~pid:"sac/dec" body in
      (* Party 3 floods party 0: 50 copies of a share for each of slots
         5-7, then one frame repeating them and adding slot 8. *)
      Cluster.inject c 3 (fun () ->
        for _ = 1 to 50 do
          List.iter (fun index -> send ~src:3 (frame ~src:3 [ index ])) [ 5; 6; 7 ]
        done;
        send ~src:3 (frame ~src:3 [ 5; 5; 6; 6; 7; 7; 8; 8 ]));
      Cluster.inject c 1 (fun () -> send ~src:1 (frame ~src:1 [ 5 ]));
      (* A frame with a trailing byte is dropped whole. *)
      Cluster.inject c 2 (fun () -> send ~src:2 (frame ~src:2 [ 9 ] ^ "\x00"));
      ignore (Cluster.run c);
      Alcotest.(check int) "one per (slot, sender)" 5
        (Secure_atomic_channel.buffered_shares chans.(0));
      (* The flood costs the channel nothing: slot 0 still decrypts. *)
      Cluster.inject c 2 (fun () -> Secure_atomic_channel.send chans.(2) "after");
      ignore (Cluster.run c);
      Array.iter
        (fun log ->
          Alcotest.(check (list (pair int string))) "delivered" [ (2, "after") ]
            (List.rev !log))
        logs;
      Alcotest.(check int) "unchanged" 5
        (Secure_atomic_channel.buffered_shares chans.(0)));

  Alcotest.test_case "reliable channel: unordered but complete" `Quick (fun () ->
    let c = Util.cluster ~seed:"rc1" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Reliable_channel.create (Cluster.runtime c i) ~pid:"rch"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    for i = 0 to 3 do
      for k = 0 to 3 do
        Cluster.inject c i (fun () ->
          Reliable_channel.send chans.(i) (Printf.sprintf "r%d.%d" i k))
      done
    done;
    ignore (Cluster.run c);
    Array.iteri
      (fun i log ->
        Alcotest.(check int) (Printf.sprintf "party %d count" i) 16 (List.length !log);
        (* per-sender order is preserved by the sequence-numbered instances *)
        for s = 0 to 3 do
          let mine = List.filter (fun (x, _) -> x = s) (List.rev !log) in
          Alcotest.(check (list (pair int string))) "fifo"
            (List.init 4 (fun k -> (s, Printf.sprintf "r%d.%d" s k)))
            mine
        done)
      logs);

  Alcotest.test_case "reliable channel: close on t+1 requests" `Quick (fun () ->
    let c = Util.cluster ~seed:"rc2" () in
    let closed = Array.make 4 false in
    let chans =
      Array.init 4 (fun i ->
        Reliable_channel.create (Cluster.runtime c i) ~pid:"rch"
          ~on_deliver:(fun ~sender:_ _ -> ())
          ~on_close:(fun () -> closed.(i) <- true) ())
    in
    Cluster.inject c 0 (fun () -> Reliable_channel.close chans.(0));
    ignore (Cluster.run c);
    Alcotest.(check bool) "one is not enough" false (Array.exists (fun x -> x) closed);
    Cluster.inject c 3 (fun () -> Reliable_channel.close chans.(3));
    ignore (Cluster.run c);
    Alcotest.(check bool) "closed everywhere" true (Array.for_all (fun x -> x) closed));

  Alcotest.test_case "consistent channel: delivers and counts match" `Quick (fun () ->
    let c = Util.cluster ~seed:"cc1" () in
    let counts = Array.make 4 0 in
    let chans =
      Array.init 4 (fun i ->
        Consistent_channel.create (Cluster.runtime c i) ~pid:"cch"
          ~on_deliver:(fun ~sender:_ _ -> counts.(i) <- counts.(i) + 1) ())
    in
    for i = 0 to 3 do
      for _k = 0 to 2 do
        Cluster.inject c i (fun () -> Consistent_channel.send chans.(i) "payload")
      done
    done;
    ignore (Cluster.run c);
    Array.iteri
      (fun i n -> Alcotest.(check int) (Printf.sprintf "party %d" i) 12 n)
      counts);

  Alcotest.test_case "runtime: orphan messages replay on late registration" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"orph" () in
      (* party 0 broadcasts before party 2 has created the instance *)
      let got = ref None in
      let insts01 =
        List.map
          (fun i ->
            Reliable_broadcast.create (Cluster.runtime c i) ~pid:"late" ~sender:0
              ~on_deliver:(fun _ -> ()))
          [ 0; 1; 3 ]
      in
      Cluster.inject c 0 (fun () ->
        Reliable_broadcast.send (List.hd insts01) "buffered");
      ignore (Cluster.run c);
      (* now the late party joins and must still deliver from the buffer *)
      let _late =
        Reliable_broadcast.create (Cluster.runtime c 2) ~pid:"late" ~sender:0
          ~on_deliver:(fun m -> got := Some m)
      in
      ignore (Cluster.run c);
      Alcotest.(check (option string)) "delivered from orphans" (Some "buffered") !got);

  Alcotest.test_case "runtime: duplicate registration rejected" `Quick (fun () ->
    let c = Util.cluster ~seed:"dup" () in
    let rt = Cluster.runtime c 0 in
    Runtime.register rt ~pid:"x" (fun ~src:_ _ -> ());
    Alcotest.check_raises "dup" (Invalid_argument "Runtime.register: duplicate pid \"x\"")
      (fun () -> Runtime.register rt ~pid:"x" (fun ~src:_ _ -> ())));

  Alcotest.test_case "atomic: each INIT signature is verified once per party" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"init-once" () in
      let chans, logs, _ = make_atomic c "abc" in
      for k = 0 to 11 do
        for i = 0 to 3 do
          Cluster.inject c i (fun () ->
            Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i k))
        done
      done;
      ignore (Cluster.run c);
      Alcotest.(check int) "all delivered" 48 (List.length !(logs.(0)));
      for p = 0 to 3 do
        let rounds = Atomic_channel.rounds_completed chans.(p) in
        let verified = int_of_float (Util.counter_value c p "abc.init_sig_verified") in
        let reused = Util.counter_value c p "abc.init_sig_reused" in
        (* One verification per INIT received, at most n per round; the
           slack of one more round covers proposal entries checked before
           their INIT reached this party.  Every other MVBA validity check
           reuses a pooled verification. *)
        if verified > 4 * (rounds + 1) then
          Alcotest.failf "party %d verified %d INIT signatures in %d rounds" p verified
            rounds;
        if reused = 0.0 then Alcotest.failf "party %d never reused an INIT verification" p
      done);

  Alcotest.test_case "atomic: a closed atomic channel leaves no agreement registered"
    `Quick (fun () ->
      let c = Util.cluster ~seed:"close-ends-agreements" () in
      let chans, logs, closed = make_atomic c "abc" in
      for k = 0 to 5 do
        Cluster.inject c (k mod 4) (fun () ->
          Atomic_channel.send chans.(k mod 4) (Printf.sprintf "m%d" k))
      done;
      ignore (Cluster.run c);
      (* t + 1 = 2 termination requests close the channel everywhere. *)
      Cluster.inject c 0 (fun () -> Atomic_channel.close chans.(0));
      Cluster.inject c 1 (fun () -> Atomic_channel.close chans.(1));
      ignore (Cluster.run c);
      Alcotest.(check bool) "all closed" true (Array.for_all (fun x -> x) closed);
      Alcotest.(check int) "all delivered" 6 (List.length !(logs.(0)));
      for p = 0 to 3 do
        let left =
          Hashtbl.fold
            (fun pid _ acc -> if String.starts_with ~prefix:"abc/mv." pid then pid :: acc else acc)
            (Cluster.runtime c p).Runtime.handlers []
        in
        if left <> [] then
          Alcotest.failf "party %d still registers %d agreement handlers, e.g. %s" p
            (List.length left) (List.hd (List.sort compare left))
      done);
]
