(* Robustness: every protocol handler is fed adversarial garbage — random
   bytes, truncated encodings, mis-tagged messages — and must neither crash
   nor lose its safety/liveness afterwards.  A corrupted party controls
   every byte it sends, so this is the protocol-level analogue of the wire
   fuzz tests. *)

open Sintra

let fuzz_bodies ~(seed : string) ~(count : int) : string list =
  let d = Hashes.Drbg.create ~seed in
  List.init count (fun _ ->
    let len = Hashes.Drbg.int d 120 in
    Hashes.Drbg.bytes d len)

(* Send garbage from party 0 to all parties on [pid], before and after the
   honest workload starts. *)
let flood (c : Cluster.t) ~(pid : string) ~(seed : string) : unit =
  Cluster.inject c 0 (fun () ->
    let rt = Cluster.runtime c 0 in
    List.iter
      (fun body ->
        for dst = 0 to Cluster.n c - 1 do
          Runtime.send rt ~dst ~pid body
        done)
      (fuzz_bodies ~seed ~count:30))

(* --- a Byzantine INIT signer against the atomic channel ---

   The harness owns a signer's RSA key and crafts its INIT frames, entries
   and batches directly.  The formats are duplicated from Atomic_channel
   (INIT tag 0, the entry encoding, the signed statement), as a real
   attacker's would be. *)

type init_entry = { signer : int; items : (int * int * string) list; signature : string }

let enc_items (b : Wire.Enc.t) items =
  Wire.Enc.list b
    (fun b (orig, seq, payload) ->
      Wire.Enc.int b orig;
      Wire.Enc.int b seq;
      Wire.Enc.bytes b payload)
    items

let enc_init_entry (b : Wire.Enc.t) (en : init_entry) =
  Wire.Enc.int b en.signer;
  enc_items b en.items;
  Wire.Enc.bytes b en.signature

let signed_init (c : Cluster.t) ~(pid : string) ~(round : int) ~(signer : int) items :
    init_entry =
  let digest = Hashes.Sha256.digest (Wire.encode (fun b -> enc_items b items)) in
  let signature =
    Crypto.Rsa.sign (Cluster.runtime c signer).Runtime.keys.Dealer.sign_sk ~ctx:pid
      (Printf.sprintf "abc-init|%s|%d|%d|%s" pid round signer digest)
  in
  { signer; items; signature }

let send_init_frame (c : Cluster.t) ~(pid : string) ~(round : int) ~(dst : int)
    (en : init_entry) =
  Cluster.inject c en.signer (fun () ->
    Runtime.send (Cluster.runtime c en.signer) ~dst ~pid
      (Wire.encode (fun b ->
         Wire.Enc.u8 b 0;
         Wire.Enc.int b round;
         enc_init_entry b en)))

let encode_batch (entries : init_entry list) : string =
  Wire.encode (fun b -> Wire.Enc.list b enc_init_entry entries)

let flip_last_byte (s : string) : string =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let suite = [
  Alcotest.test_case "reliable broadcast survives garbage" `Quick (fun () ->
    let c = Util.cluster ~seed:"fz-rbc" () in
    let got = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Reliable_broadcast.create (Cluster.runtime c i) ~pid:"fz" ~sender:1
          ~on_deliver:(fun m -> got.(i) <- Some m))
    in
    flood c ~pid:"fz" ~seed:"g1";
    Cluster.inject c 1 (fun () -> Reliable_broadcast.send insts.(1) "real payload");
    flood c ~pid:"fz" ~seed:"g2";
    ignore (Cluster.run c);
    List.iter
      (fun i ->
        Alcotest.(check (option string)) "delivered" (Some "real payload") got.(i))
      [ 1; 2; 3 ]);

  Alcotest.test_case "consistent broadcast survives garbage" `Quick (fun () ->
    let c = Util.cluster ~seed:"fz-cbc" () in
    let got = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Consistent_broadcast.create (Cluster.runtime c i) ~pid:"fz" ~sender:1
          ~on_deliver:(fun m -> got.(i) <- Some m))
    in
    flood c ~pid:"fz" ~seed:"g3";
    Cluster.inject c 1 (fun () -> Consistent_broadcast.send insts.(1) "echo me");
    ignore (Cluster.run c);
    List.iter
      (fun i -> Alcotest.(check (option string)) "delivered" (Some "echo me") got.(i))
      [ 1; 2; 3 ]);

  Alcotest.test_case "binary agreement survives garbage" `Quick (fun () ->
    let c = Util.cluster ~seed:"fz-aba" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 3 (fun k ->
        let i = k + 1 in
        Binary_agreement.create (Cluster.runtime c i) ~pid:"fz"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    flood c ~pid:"fz" ~seed:"g4";
    Array.iteri
      (fun k inst ->
        Cluster.inject c (k + 1) (fun () -> Binary_agreement.propose inst true))
      insts;
    ignore (Cluster.run c);
    for i = 1 to 3 do
      Alcotest.(check (option bool)) "decided true" (Some true) decided.(i)
    done);

  Alcotest.test_case "atomic channel survives garbage on every sub-pid" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"fz-abc" () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"fz"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      (* hit the channel pid and the inner MVBA/VCBC/VBA namespaces *)
      List.iter
        (fun pid -> flood c ~pid ~seed:("g5" ^ pid))
        [ "fz"; "fz/mv.0"; "fz/mv.0/p.1"; "fz/mv.0/ba.0"; "fz/mv.0/ba.2" ];
      Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) "genuine");
      ignore (Cluster.run c);
      let seqs = Array.map (fun l -> List.rev !l) logs in
      Util.check_all_equal "order" (Array.to_list seqs);
      Alcotest.(check (list (pair int string))) "only genuine" [ (1, "genuine") ]
        seqs.(0));

  Alcotest.test_case "secure channel survives garbage decryption shares" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"fz-sac" () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"fz"
            ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
      in
      flood c ~pid:"fz/dec" ~seed:"g6";
      Cluster.inject c 2 (fun () -> Secure_atomic_channel.send chans.(2) "sealed");
      flood c ~pid:"fz/dec" ~seed:"g7";
      ignore (Cluster.run c);
      List.iter
        (fun i ->
          Alcotest.(check (list (pair int string))) "decrypted"
            [ (2, "sealed") ] (List.rev !(logs.(i))))
        [ 1; 2; 3 ]);

  Alcotest.test_case "optimistic channel survives garbage" `Quick (fun () ->
    let c = Util.cluster ~seed:"fz-opt" () in
    let logs = Array.init 4 (fun _ -> ref []) in
    let chans =
      Array.init 4 (fun i ->
        Optimistic_channel.create ~timeout:2.0 (Cluster.runtime c i) ~pid:"fz"
          ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
    in
    flood c ~pid:"fz" ~seed:"g8";
    flood c ~pid:"fz/e.0.0" ~seed:"g9";
    Cluster.inject c 1 (fun () -> Optimistic_channel.send chans.(1) "fast path");
    ignore (Cluster.run c ~until:120.0);
    let seqs = Array.map (fun l -> List.rev !l) logs in
    Util.check_all_equal "order" (Array.to_list seqs);
    Alcotest.(check bool) "delivered" true (List.mem (1, "fast path") seqs.(0)));

  Alcotest.test_case "orphan buffer is bounded" `Quick (fun () ->
    let c = Util.cluster ~seed:"fz-orphan" () in
    let rt0 = Cluster.runtime c 0 in
    let rt1 = Cluster.runtime c 1 in
    (* flood an unregistered pid far past the cap *)
    for batch = 0 to 5 do
      Cluster.inject c 0 (fun () ->
        for k = 0 to 999 do
          Runtime.send rt0 ~dst:1 ~pid:"never-registered"
            (Printf.sprintf "junk %d.%d" batch k)
        done)
    done;
    ignore (Cluster.run c);
    Alcotest.(check bool) "dropped some" true
      (Util.counter_value c 1 "runtime.dropped_orphans" > 0.0);
    (match Hashtbl.find_opt rt1.Runtime.orphans "never-registered" with
     | Some q -> Alcotest.(check bool) "bounded" true (Queue.length q <= 4096)
     | None -> Alcotest.fail "expected an orphan queue"));

  Alcotest.test_case "forged main-vote justification is rejected" `Quick (fun () ->
    (* A Byzantine party claims a main-vote for true justified by a
       threshold signature over the *false* pre-vote statement; honest
       parties must ignore it and settle on their own proposals. *)
    let c = Util.cluster ~seed:"fz-mj" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 3 (fun k ->
        let i = k + 1 in
        Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    Cluster.inject c 0 (fun () ->
      let rt = Cluster.runtime c 0 in
      (* a correctly signed share for the main statement... *)
      let share =
        Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.ag_tsig
          ~ctx:"aba" "aba-main|aba|1|true"
      in
      (* ...but a justification that cannot verify *)
      let body =
        Wire.encode (fun b ->
          Wire.Enc.u8 b 1;            (* MAINVOTE *)
          Wire.Enc.int b 1;           (* round *)
          Wire.Enc.u8 b 1;            (* value true *)
          Tsig.enc_share b share;
          Wire.Enc.u8 b 0;            (* MJ_value *)
          Wire.Enc.bytes b "not a threshold signature")
      in
      for dst = 1 to 3 do Runtime.send rt ~dst ~pid:"aba" body done);
    Array.iteri
      (fun k inst ->
        Cluster.inject c (k + 1) (fun () -> Binary_agreement.propose inst false))
      insts;
    ignore (Cluster.run c);
    for i = 1 to 3 do
      Alcotest.(check (option bool)) "honest value wins" (Some false) decided.(i)
    done);

  Alcotest.test_case "INIT reuse is exact: near-copies of a pooled INIT are fully checked"
    `Quick (fun () ->
      let c = Util.cluster ~seed:"init-reuse" () in
      let pid = "abc" and round = 0 and j = 3 in
      let log = ref [] in
      let chan =
        Atomic_channel.create (Cluster.runtime c 0) ~pid
          ~on_deliver:(fun ~sender m -> log := (sender, m) :: !log) ()
      in
      (* Party 0 pools INITs but neither INITs nor proposes on its own, so
         round 0 stays open while the harness probes it. *)
      Abc_core.set_gate (Atomic_channel.core chan) (fun () -> false);
      let verified () = Util.counter_value c 0 "abc.init_sig_verified" in
      let reused () = Util.counter_value c 0 "abc.init_sig_reused" in
      let items = [ (j, 0, "\x01pooled") ] in
      let pooled = signed_init c ~pid ~round ~signer:j items in
      send_init_frame c ~pid ~round ~dst:0 pooled;
      ignore (Cluster.run c);
      Alcotest.(check (float 0.0)) "pooled INIT verified on arrival" 1.0 (verified ());
      let other = signed_init c ~pid ~round ~signer:1 [ (1, 0, "\x01other") ] in
      let near_copies =
        [ ("flipped signature byte", { pooled with signature = flip_last_byte pooled.signature });
          ("altered orig", { pooled with items = [ (2, 0, "\x01pooled") ] });
          ("altered seq", { pooled with items = [ (j, 1, "\x01pooled") ] });
          ("altered payload", { pooled with items = [ (j, 0, "\x01pooleD") ] });
          ("extra item", { pooled with items = items @ [ (j, 1, "\x01more") ] }) ]
      in
      (* MVBA external validity (reached here through log replay): each
         near-copy is verified in full and rejected. *)
      List.iter
        (fun (name, en) ->
          let v = verified () and r = reused () in
          Cluster.inject c 0 (fun () ->
            Atomic_channel.adopt_round chan ~round ~batch:(encode_batch [ en; other ]));
          ignore (Cluster.run c);
          Alcotest.(check int) (name ^ ": batch rejected") 0 (Atomic_channel.current_round chan);
          Alcotest.(check (float 0.0)) (name ^ ": verified in full") (v +. 1.0) (verified ());
          Alcotest.(check (float 0.0)) (name ^ ": not reused") r (reused ()))
        near_copies;
      (* INIT receipt: a second INIT from j carrying the pooled signature over
         altered items is no evidence (its signature is invalid); a validly
         signed conflicting INIT is. *)
      let flagged () = Invariant.flagged (Cluster.runtime c 0).Runtime.inv in
      List.iter
        (fun (name, en) ->
          if en.items <> items then begin
            send_init_frame c ~pid ~round ~dst:0 en;
            ignore (Cluster.run c);
            Alcotest.(check int) (name ^ ": INIT not flagged") 0 (List.length (flagged ()))
          end)
        near_copies;
      let conflicting = signed_init c ~pid ~round ~signer:j [ (j, 0, "\x01rival") ] in
      send_init_frame c ~pid ~round ~dst:0 conflicting;
      ignore (Cluster.run c);
      Alcotest.(check (list int)) "conflicting INIT flagged" [ j ] (List.map fst (flagged ()));
      (* The exact pooled entry is reused, and the batch is adopted. *)
      let v = verified () and r = reused () in
      Cluster.inject c 0 (fun () ->
        Atomic_channel.adopt_round chan ~round ~batch:(encode_batch [ pooled; other ]));
      ignore (Cluster.run c);
      Alcotest.(check (float 0.0)) "exact copy reused" (r +. 1.0) (reused ());
      Alcotest.(check (float 0.0)) "only the unpooled entry verified" (v +. 1.0) (verified ());
      Alcotest.(check int) "batch adopted" 1 (Atomic_channel.current_round chan);
      Alcotest.(check (list (pair int string))) "delivered"
        [ (1, "other"); (j, "pooled") ] (List.rev !log));

  Alcotest.test_case "a flood of junk and far-ahead INITs leaves no round records"
    `Quick (fun () ->
      (* Party 0 sends every honest party INITs with flipped signatures for
         rounds 1000-1299 and validly signed INITs for rounds 10000-10299.
         Neither kind may leave a round record behind, the validly signed
         ones make each honest party ask for catch-up once, not once per
         INIT, and the channel still delivers a genuine payload. *)
      let c = Util.cluster ~seed:"init-flood" () in
      let pid = "abc" in
      let logs = Array.make 4 [] in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid
            ~on_deliver:(fun ~sender:_ m -> logs.(i) <- m :: logs.(i)) ())
      in
      let flood ~first ~forge =
        for round = first to first + 299 do
          let en = signed_init c ~pid ~round ~signer:0 [ (0, round, "\x01junk") ] in
          let en = if forge then { en with signature = flip_last_byte en.signature } else en in
          for dst = 1 to 3 do send_init_frame c ~pid ~round ~dst en done
        done
      in
      flood ~first:1000 ~forge:true;
      flood ~first:10_000 ~forge:false;
      Cluster.inject c 1 (fun () -> Atomic_channel.send chans.(1) "genuine");
      ignore (Cluster.run c ~until:60.0);
      for i = 1 to 3 do
        Alcotest.(check (list string)) "genuine payload delivered" [ "genuine" ] logs.(i);
        let held = Abc_core.rounds_held (Atomic_channel.core chans.(i)) in
        Alcotest.(check bool) (Printf.sprintf "party %d holds %d records" i held) true
          (held <= 4);
        let asked = Util.counter_value c i "abc.catchup.request_sent" in
        Alcotest.(check bool) (Printf.sprintf "party %d sent %.0f REQUESTs" i asked) true
          (asked <= 3.0)
      done);

  Alcotest.test_case "INITs of invented payloads leave a bounded missed set"
    `Quick (fun () ->
      (* Parties 1-3 send a payload every 0.1 s.  Each time party 1
         delivers a round r, party 0 signs a valid INIT for round r+1
         carrying max_batch payloads nobody sent.  It reaches the honest
         parties after they proposed, so no batch takes it and its items
         are missed when r+1 delivers, 4 new ones a round.  The set the
         channel keeps to put missed payloads first is rebuilt from one
         round's INITs, so it never holds more than n * max_batch entries,
         however many rounds the junk fills. *)
      let max_batch = 4 in
      let c = Util.cluster ~seed:"missed-flood" ~max_batch () in
      let pid = "abc" in
      let logs = Array.make 4 [] in
      let peak = Array.make 4 0 in
      let chans = Array.make 4 None in
      let junk_init round =
        let junk = List.init max_batch (fun k -> (0, 1000 + (100 * round) + k, "\x01junk")) in
        let en = signed_init c ~pid ~round ~signer:0 junk in
        for dst = 1 to 3 do send_init_frame c ~pid ~round ~dst en done
      in
      for i = 1 to 3 do
        chans.(i) <-
          Some
            (Atomic_channel.create (Cluster.runtime c i) ~pid
               ~on_deliver:(fun ~sender m -> logs.(i) <- (sender, m) :: logs.(i))
               ~on_round_end:(fun () ->
                 Option.iter
                   (fun ch ->
                     peak.(i) <- max peak.(i) (Abc_core.missed_held (Atomic_channel.core ch));
                     let r = Atomic_channel.current_round ch in
                     if i = 1 && r < 30 then junk_init (r + 1))
                   chans.(i))
               ())
      done;
      let chan i = Option.get chans.(i) in
      for i = 1 to 3 do
        for k = 0 to 29 do
          Cluster.at c ~time:(0.1 *. float_of_int k) (fun () ->
            Cluster.inject c i (fun () ->
              Atomic_channel.send (chan i) (Printf.sprintf "p%d.m%02d" i k)))
        done
      done;
      ignore (Cluster.run c ~until:120.0);
      let bound = 4 * max_batch in
      for i = 1 to 3 do
        let genuine = List.filter (fun (s, _) -> s = i) logs.(1) in
        Alcotest.(check int) (Printf.sprintf "party %d's payloads delivered" i) 30
          (List.length genuine);
        Alcotest.(check bool)
          (Printf.sprintf "party %d held at most %d missed, saw %d" i bound peak.(i))
          true
          (peak.(i) >= max_batch && peak.(i) <= bound)
      done;
      Util.check_all_equal "total order" [ logs.(1); logs.(2); logs.(3) ]);

  Alcotest.test_case "one far INIT does not silence a straggler's catch-up"
    `Quick (fun () ->
      (* Party 1 signs an INIT for round 1 000 000 and sends it to party 3
         alone.  Frames to party 3 are then dropped from 0.1 s to 20 s
         while party 0 sends 40 payloads 1 s apart from 1 s on, so party 3 falls
         behind and has to ask.  The far INIT may cost one REQUEST, but a
         round one signer names alone must not silence the REQUESTs that
         t+1 signers' INITs, a dark base or a decided later round call
         for: party 3 catches up and delivers all 40. *)
      let c = Util.cluster ~seed:"far-poison" () in
      let pid = "abc" and far = 1_000_000 in
      let logs = Array.make 4 [] in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid
            ~on_deliver:(fun ~sender:_ m -> logs.(i) <- m :: logs.(i)) ())
      in
      send_init_frame c ~pid ~round:far ~dst:3
        (signed_init c ~pid ~round:far ~signer:1 [ (1, 0, "\x01far") ]);
      Cluster.set_intercept c (fun ~src:_ ~dst _ ->
        let now = Cluster.now c in
        if dst = 3 && now > 0.1 && now < 20.0 then Sim.Net.Drop else Sim.Net.Deliver);
      for k = 0 to 39 do
        Cluster.at c ~time:(float_of_int (k + 1)) (fun () ->
          Cluster.inject c 0 (fun () ->
            Atomic_channel.send chans.(0) (Printf.sprintf "m%02d" k)))
      done;
      ignore (Cluster.run c ~until:120.0);
      let sent = List.init 40 (Printf.sprintf "m%02d") in
      Alcotest.(check (list string)) "party 0 delivers all" sent (List.rev logs.(0));
      Alcotest.(check (list string)) "party 3 delivers all" sent (List.rev logs.(3)));
]
