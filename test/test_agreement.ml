(* Tests for binary, validated and multi-valued Byzantine agreement. *)

open Sintra

let run_aba ?(seed = "aba") ?(n = 4) ?(crash = []) (proposals : bool list) :
    bool option array * Cluster.t =
  let c = Util.cluster ~seed ~n () in
  let decided = Array.make n None in
  let insts =
    Array.init n (fun i ->
      Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
        ~on_decide:(fun b _ -> decided.(i) <- Some b))
  in
  List.iter (Cluster.crash c) crash;
  List.iteri
    (fun i v ->
      if not (List.mem i crash) then
        Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
    proposals;
  ignore (Cluster.run c);
  (decided, c)

let check_agreement_validity ?(crash = []) (proposals : bool list)
    (decided : bool option array) =
  let honest = List.filteri (fun i _ -> not (List.mem i crash)) (Array.to_list decided) in
  List.iteri
    (fun i d -> if d = None then Alcotest.failf "honest party %d did not decide" i)
    honest;
  Util.check_all_equal "agreement" honest;
  match honest with
  | Some v :: _ ->
    let honest_proposals = List.filteri (fun i _ -> not (List.mem i crash)) proposals in
    if not (List.mem v honest_proposals) then
      Alcotest.failf "decided %b which no honest party proposed" v
  | _ -> ()


(* --- decision certificates: frames on the wire, and crafted ones --- *)

(* The (tag, round) of an ABA frame for [pid]; every ABA body starts with
   a tag byte and (all tags but garbage) a round. *)
let aba_frame ~(pid : string) (payload : string) : (int * int) option =
  match
    Wire.decode payload (fun d ->
      let p = Wire.Dec.bytes d in
      let body = Wire.Dec.bytes d in
      (p, body))
  with
  | Some (p, body) when p = pid ->
    Wire.decode_prefix body (fun d ->
      let tag = Wire.Dec.u8 d in
      (tag, Wire.Dec.int d))
  | Some _ | None -> None

let tag_decided = 3

(* The genuine certificate for "main-vote [b] in round [r]", assembled
   from parties 0-2's shares. *)
let main_cert (c : Cluster.t) ~(pid : string) ~(round : int) (b : bool) : string =
  let stmt = Printf.sprintf "aba-main|%s|%d|%b" pid round b in
  let key i = (Cluster.runtime c i).Runtime.keys.Dealer.ag_tsig in
  let shares =
    List.map
      (fun i ->
        Tsig.release ~drbg:(Cluster.runtime c i).Runtime.drbg (key i) ~ctx:pid stmt)
      [ 0; 1; 2 ]
  in
  Tsig.assemble (Tsig.public_of_secret (key 0)) ~ctx:pid stmt shares

let decided_body ~(round : int) (b : bool) ~(signature : string)
    (proof : string option) : string =
  Wire.encode (fun buf ->
    Wire.Enc.u8 buf tag_decided;
    Wire.Enc.int buf round;
    Wire.Enc.bool buf b;
    Wire.Enc.bytes buf signature;
    Wire.Enc.option buf Wire.Enc.bytes proof)

(* A registry counter of party [p], after publishing the registry. *)
let counter (c : Cluster.t) (p : int) (name : string) : float =
  ignore (Cluster.publish_metrics c);
  Util.counter_value c p name

let suite = [
  Alcotest.test_case "unanimous 1 decides 1" `Quick (fun () ->
    let d, _ = run_aba ~seed:"u1" [ true; true; true; true ] in
    Array.iter (fun x -> Alcotest.(check (option bool)) "one" (Some true) x) d);

  Alcotest.test_case "unanimous 0 decides 0" `Quick (fun () ->
    let d, _ = run_aba ~seed:"u0" [ false; false; false; false ] in
    Array.iter (fun x -> Alcotest.(check (option bool)) "zero" (Some false) x) d);

  Alcotest.test_case "mixed proposals agree" `Quick (fun () ->
    List.iteri
      (fun k props ->
        let d, _ = run_aba ~seed:(Printf.sprintf "mix%d" k) props in
        check_agreement_validity props d)
      [ [ true; false; true; false ];
        [ true; false; false; false ];
        [ false; true; true; true ] ]);

  Alcotest.test_case "agreement across many randomized runs" `Slow (fun () ->
    let d = Hashes.Drbg.create ~seed:"aba-fuzz" in
    for k = 0 to 9 do
      let props = List.init 4 (fun _ -> Hashes.Drbg.bool d) in
      let dec, _ = run_aba ~seed:(Printf.sprintf "fuzz%d" k) props in
      check_agreement_validity props dec
    done);

  Alcotest.test_case "tolerates one crashed party" `Quick (fun () ->
    let props = [ true; false; true; false ] in
    let d, _ = run_aba ~seed:"crash" ~crash:[ 3 ] props in
    check_agreement_validity ~crash:[ 3 ] props d);

  Alcotest.test_case "n=7 t=2 with two crashes" `Slow (fun () ->
    let props = [ true; false; true; false; true; false; true ] in
    let c = Util.cluster ~seed:"aba7" ~n:7 ~t:2 () in
    let decided = Array.make 7 None in
    let insts =
      Array.init 7 (fun i ->
        Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    Cluster.crash c 5;
    Cluster.crash c 6;
    List.iteri
      (fun i v ->
        if i < 5 then Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
      props;
    ignore (Cluster.run c);
    check_agreement_validity ~crash:[ 5; 6 ] props decided);

  Alcotest.test_case "double proposal rejected" `Quick (fun () ->
    let c = Util.cluster ~seed:"dbl" () in
    let inst =
      Binary_agreement.create (Cluster.runtime c 0) ~pid:"aba"
        ~on_decide:(fun _ _ -> ())
    in
    Binary_agreement.propose inst true;
    Alcotest.check_raises "double"
      (Invalid_argument "Binary_agreement.propose: already proposed")
      (fun () -> Binary_agreement.propose inst false));

  Alcotest.test_case "bias breaks a 2-2 split its way" `Quick (fun () ->
    (* With two proposals each way, neither bit can gather n-t unanimous
       pre-votes, so round 1 ends in abstain everywhere and the biased
       "coin" decides.  This is deterministic: the protocol must decide the
       bias value. *)
    List.iter
      (fun bias ->
        let c = Util.cluster ~seed:"bias" () in
        let decided = Array.make 4 None in
        let insts =
          Array.init 4 (fun i ->
            Binary_agreement.create ~bias (Cluster.runtime c i) ~pid:"aba"
              ~on_decide:(fun b _ -> decided.(i) <- Some b))
        in
        List.iteri
          (fun i v -> Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) v))
          [ true; true; false; false ];
        ignore (Cluster.run c);
        Array.iter
          (fun x -> Alcotest.(check (option bool)) "bias value" (Some bias) x)
          decided)
      [ true; false ]);

  Alcotest.test_case "validated agreement returns usable proof" `Quick (fun () ->
    let validator b proof = proof = "proof:" ^ string_of_bool b in
    let c = Util.cluster ~seed:"vba" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Validated_agreement.create (Cluster.runtime c i) ~pid:"vba" ~validator
          ~on_decide:(fun b ~proof -> decided.(i) <- Some (b, proof)))
    in
    List.iteri
      (fun i v ->
        Cluster.inject c i (fun () ->
          Validated_agreement.propose insts.(i) v ~proof:("proof:" ^ string_of_bool v)))
      [ true; false; true; false ];
    ignore (Cluster.run c);
    Array.iter
      (fun x ->
        match x with
        | None -> Alcotest.fail "no decision"
        | Some (b, proof) ->
          Alcotest.(check bool) "proof validates decision" true (validator b proof))
      decided;
    Util.check_all_equal "agreement" (Array.to_list decided));

  Alcotest.test_case "invalid proposal rejected locally" `Quick (fun () ->
    let validator b proof = proof = "proof:" ^ string_of_bool b in
    let c = Util.cluster ~seed:"vba2" () in
    let inst =
      Validated_agreement.create (Cluster.runtime c 0) ~pid:"vba" ~validator
        ~on_decide:(fun _ ~proof:_ -> ())
    in
    Alcotest.check_raises "bad proof"
      (Invalid_argument "Binary_agreement.propose: proposal fails validation")
      (fun () -> Validated_agreement.propose inst true ~proof:"wrong"));

  Alcotest.test_case "byzantine prevote shares are ignored" `Quick (fun () ->
    (* Party 0 floods garbage and unjustified votes; the three honest
       parties still reach agreement on their common proposal. *)
    let c = Util.cluster ~seed:"byz-aba" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 3 (fun k ->
        let i = k + 1 in
        Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
          ~on_decide:(fun b _ -> decided.(i) <- Some b))
    in
    Cluster.inject c 0 (fun () ->
      let rt = Cluster.runtime c 0 in
      for dst = 1 to 3 do
        (* raw garbage *)
        Runtime.send rt ~dst ~pid:"aba" "complete nonsense";
        (* a syntactically valid pre-vote whose share is for the wrong
           statement (claims value true but shares the false statement) *)
        let bogus_share =
          Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.ag_tsig
            ~ctx:"aba" "aba-pre|aba|1|false"
        in
        let body =
          Wire.encode (fun b ->
            Wire.Enc.u8 b 0;
            Wire.Enc.int b 1;
            Wire.Enc.bool b true;
            Tsig.enc_share b bogus_share;
            Wire.Enc.u8 b 0;
            Wire.Enc.option b Wire.Enc.bytes None)
        in
        Runtime.send rt ~dst ~pid:"aba" body
      done);
    Array.iteri
      (fun k inst ->
        Cluster.inject c (k + 1) (fun () -> Binary_agreement.propose inst false))
      insts;
    ignore (Cluster.run c);
    for i = 1 to 3 do
      Alcotest.(check (option bool)) "honest decide false" (Some false) decided.(i)
    done);

  Alcotest.test_case "certificates: a fault-free run sends no round-2 frame" `Quick
    (fun () ->
    let c = Util.cluster ~seed:"cert-free" () in
    let later = ref [] in
    Cluster.set_intercept c (fun ~src ~dst payload ->
      (match aba_frame ~pid:"aba" payload with
       | Some (tag, r) when r >= 2 || tag = tag_decided ->
         later := (src, dst, tag, r) :: !later
       | Some _ | None -> ());
      Sim.Net.Deliver);
    let decided = Array.make 4 None in
    Array.iteri
      (fun i inst -> Cluster.inject c i (fun () -> Binary_agreement.propose inst true))
      (Array.init 4 (fun i ->
         Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
           ~on_decide:(fun b _ -> decided.(i) <- Some b)));
    ignore (Cluster.run c);
    Array.iter
      (fun x -> Alcotest.(check (option bool)) "decided 1" (Some true) x)
      decided;
    Alcotest.(check int) "frames past round 1, or DECIDED" 0 (List.length !later);
    for i = 0 to 3 do
      Alcotest.(check (float 0.0)) "no certificate sent" 0.0
        (counter c i "aba.cert_sent")
    done);

  Alcotest.test_case "certificates: a laggard pushed into round 2 decides on them" `Quick
    (fun () ->
    (* Party 3 proposes 0 against three 1s.  Its own votes reach it first
       and everyone else late, so parties 0-2 decide 1 on their own
       unanimous round-1 votes while party 3 sees its abstain among its
       first main-votes and moves on to round 2.  Each decided peer answers
       its round-2 pre-vote with one certificate, once.  Under both
       threshold-signature schemes. *)
    List.iter
      (fun tsig_scheme ->
        let c = Util.cluster ~seed:"cert-lag" ~tsig_scheme () in
        let decided_frames = Array.make 4 0 in
        let round2 = ref 0 in
        Cluster.set_intercept c (fun ~src ~dst payload ->
          (match aba_frame ~pid:"aba" payload with
           | Some (tag, _) when tag = tag_decided && dst = 3 ->
             decided_frames.(src) <- decided_frames.(src) + 1
           | Some (0, 2) when src = 3 -> incr round2
           | Some _ | None -> ());
          if src = 3 && dst <> 3 then Sim.Net.Delay 1.0
          else if dst = 3 && src <> 3 then Sim.Net.Delay 0.2
          else Sim.Net.Deliver);
        let decided = Array.make 4 None in
        let insts =
          Array.init 4 (fun i ->
            Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
              ~on_decide:(fun b _ -> decided.(i) <- Some b))
        in
        Array.iteri
          (fun i inst ->
            Cluster.inject c i (fun () -> Binary_agreement.propose inst (i < 3)))
          insts;
        ignore (Cluster.run c);
        Array.iter
          (fun x -> Alcotest.(check (option bool)) "decided 1" (Some true) x)
          decided;
        Alcotest.(check bool) "party 3 pre-voted in round 2" true (!round2 > 0);
        Alcotest.(check (array int)) "one DECIDED per decided peer"
          [| 1; 1; 1; 0 |] decided_frames;
        Alcotest.(check (float 0.0)) "party 3 decided on a certificate" 1.0
          (counter c 3 "aba.cert_decided");
        for i = 0 to 2 do
          Alcotest.(check (float 0.0)) "peers decided on votes" 0.0
            (counter c i "aba.cert_decided")
        done;
        Alcotest.(check (list (pair int string))) "nobody flagged" []
          (List.concat_map
             (fun i -> Invariant.flagged (Cluster.runtime c i).Runtime.inv)
             [ 0; 1; 2; 3 ]))
      [ Config.Multi; Config.Shoup ]);

  Alcotest.test_case "certificates: wrong round, bit or signature is rejected and flagged"
    `Quick (fun () ->
    (* Party 0 sends party 1 a genuine certificate for 1 in round 1 under a
       wrong round and a wrong bit, and a garbled copy; parties 1-3 all
       propose 0 and must still decide 0, party 1 flagging each frame.
       Under both threshold-signature schemes. *)
    List.iter
      (fun tsig_scheme ->
        let c = Util.cluster ~seed:"cert-bad" ~tsig_scheme () in
        let good = main_cert c ~pid:"aba" ~round:1 true in
        let garbled = Bytes.of_string good in
        let last = Bytes.length garbled - 1 in
        Bytes.set garbled last
          (Char.chr (Char.code (Bytes.get garbled last) lxor 1));
        let rt0 = Cluster.runtime c 0 in
        Cluster.inject c 0 (fun () ->
          List.iter
            (fun body -> Runtime.send rt0 ~dst:1 ~pid:"aba" body)
            [ decided_body ~round:2 true ~signature:good None;
              decided_body ~round:1 false ~signature:good None;
              decided_body ~round:1 true ~signature:(Bytes.to_string garbled)
                None;
              decided_body ~round:0 true ~signature:good None ]);
        let decided = Array.make 4 None in
        for i = 1 to 3 do
          let inst =
            Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
              ~on_decide:(fun b _ -> decided.(i) <- Some b)
          in
          Cluster.at c ~time:0.5 (fun () ->
            Cluster.inject c i (fun () -> Binary_agreement.propose inst false))
        done;
        ignore (Cluster.run c);
        for i = 1 to 3 do
          Alcotest.(check (option bool)) "decided 0" (Some false) decided.(i)
        done;
        let flags = Invariant.flagged (Cluster.runtime c 1).Runtime.inv in
        Alcotest.(check (list int)) "party 0 flagged once per certificate"
          [ 0; 0; 0; 0 ] (List.map fst flags);
        List.iter
          (fun (_, why) ->
            Alcotest.(check bool) why true
              (String.starts_with ~prefix:"aba aba: invalid decision certificate"
                 why))
          flags)
      [ Config.Multi; Config.Shoup ]);

  Alcotest.test_case "certificates: no validation data leaves the decision pending"
    `Quick (fun () ->
    (* Only party 3 runs an instance, under external validity.  A genuine
       certificate without validation data decides it but cannot be handed
       out; one with bad data changes nothing; the data arriving in a
       later certificate releases the decision. *)
    let validator b proof = proof = "proof:" ^ string_of_bool b in
    let c = Util.cluster ~seed:"cert-proof" () in
    let got = ref None in
    ignore
      (Binary_agreement.create ~validator (Cluster.runtime c 3) ~pid:"aba"
         ~on_decide:(fun b proof -> got := Some (b, proof)));
    let good = main_cert c ~pid:"aba" ~round:1 true in
    let send_from src body =
      let rt = Cluster.runtime c src in
      Cluster.inject c src (fun () -> Runtime.send rt ~dst:3 ~pid:"aba" body)
    in
    send_from 0 (decided_body ~round:1 true ~signature:good None);
    ignore (Cluster.run c);
    Alcotest.(check bool) "pending without data" true (!got = None);
    send_from 1 (decided_body ~round:1 true ~signature:good (Some "proof:false"));
    ignore (Cluster.run c);
    Alcotest.(check bool) "pending with bad data" true (!got = None);
    send_from 2 (decided_body ~round:1 true ~signature:good (Some "proof:true"));
    ignore (Cluster.run c);
    Alcotest.(check (option (pair bool (option string)))) "decided with the data"
      (Some (true, Some "proof:true")) !got;
    Alcotest.(check (float 0.0)) "one decision on a certificate" 1.0
      (counter c 3 "aba.cert_decided"));

  (* --- multi-valued agreement --- *)

  Alcotest.test_case "mvba agrees on a proposed value" `Quick (fun () ->
    let c = Util.cluster ~seed:"mv1" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Array_agreement.create (Cluster.runtime c i) ~pid:"mv"
          ~validator:(fun s -> String.length s > 0)
          ~on_decide:(fun v -> decided.(i) <- Some v))
    in
    let proposals = List.init 4 (fun i -> Printf.sprintf "proposal-%d" i) in
    List.iteri
      (fun i v -> Cluster.inject c i (fun () -> Array_agreement.propose insts.(i) v))
      proposals;
    ignore (Cluster.run c);
    Array.iter (fun d -> if d = None then Alcotest.fail "undecided") decided;
    Util.check_all_equal "agreement" (Array.to_list decided);
    match decided.(0) with
    | Some v -> Alcotest.(check bool) "validity" true (List.mem v proposals)
    | None -> assert false);

  Alcotest.test_case "mvba with random candidate order" `Quick (fun () ->
    let c = Util.cluster ~seed:"mv2" ~perm_mode:Config.Random_local () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Array_agreement.create (Cluster.runtime c i) ~pid:"mv-rand"
          ~validator:(fun _ -> true)
          ~on_decide:(fun v -> decided.(i) <- Some v))
    in
    List.iteri
      (fun i inst ->
        Cluster.inject c i (fun () -> Array_agreement.propose inst (string_of_int i)))
      (Array.to_list insts);
    ignore (Cluster.run c);
    Array.iter (fun d -> if d = None then Alcotest.fail "undecided") decided;
    Util.check_all_equal "agreement" (Array.to_list decided));

  Alcotest.test_case "mvba tolerates a crashed party" `Quick (fun () ->
    let c = Util.cluster ~seed:"mv3" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Array_agreement.create (Cluster.runtime c i) ~pid:"mv"
          ~validator:(fun s -> String.length s > 0)
          ~on_decide:(fun v -> decided.(i) <- Some v))
    in
    Cluster.crash c 2;
    List.iteri
      (fun i inst ->
        if i <> 2 then
          Cluster.inject c i (fun () -> Array_agreement.propose inst (Printf.sprintf "p%d" i)))
      (Array.to_list insts);
    ignore (Cluster.run c);
    List.iter
      (fun i ->
        match decided.(i) with
        | None -> Alcotest.failf "party %d undecided" i
        | Some v -> Alcotest.(check bool) "valid" true (String.length v > 0))
      [ 0; 1; 3 ];
    Util.check_all_equal "agreement" [ decided.(0); decided.(1); decided.(3) ]);

  Alcotest.test_case "mvba never decides an invalid value" `Quick (fun () ->
    (* The validator only accepts values with prefix "ok:"; the corrupted
       party proposes something invalid, which can win no agreement. *)
    let validator s = String.length s >= 3 && String.sub s 0 3 = "ok:" in
    let c = Util.cluster ~seed:"mv4" () in
    let decided = Array.make 4 None in
    let insts =
      Array.init 4 (fun i ->
        Array_agreement.create (Cluster.runtime c i) ~pid:"mv"
          ~validator
          ~on_decide:(fun v -> decided.(i) <- Some v))
    in
    (* Party 0 is corrupted: it broadcasts an invalid proposal via its own
       VCBC instance directly (bypassing the local validation in propose). *)
    Cluster.inject c 0 (fun () ->
      Consistent_broadcast.send insts.(0).Array_agreement.vcbc.(0) "evil");
    List.iteri
      (fun i inst ->
        if i > 0 then
          Cluster.inject c i (fun () ->
            Array_agreement.propose inst (Printf.sprintf "ok:%d" i)))
      (Array.to_list insts);
    ignore (Cluster.run c);
    List.iter
      (fun i ->
        match decided.(i) with
        | None -> Alcotest.failf "party %d undecided" i
        | Some v -> Alcotest.(check bool) "validator accepts" true (validator v))
      [ 1; 2; 3 ]);

  Alcotest.test_case "mvba double propose rejected" `Quick (fun () ->
    let c = Util.cluster ~seed:"mv5" () in
    let inst =
      Array_agreement.create (Cluster.runtime c 0) ~pid:"mv"
        ~validator:(fun _ -> true) ~on_decide:(fun _ -> ())
    in
    Array_agreement.propose inst "a";
    Alcotest.check_raises "double"
      (Invalid_argument "Array_agreement.propose: already proposed")
      (fun () -> Array_agreement.propose inst "b"));
]
