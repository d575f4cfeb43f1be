(* Tests for the threshold-cryptography layer. *)

open Crypto

let drbg = Util.drbg ~seed:"crypto-tests" ()

(* Shared fixtures (key generation dominates runtime). *)
let group = lazy (Group.generate ~drbg:(Hashes.Drbg.fork drbg "grp") ~pbits:256 ~qbits:96)

let coin_keys =
  lazy (Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin") ~group:(Lazy.force group)
          ~n:4 ~k:2 ~t:1)

let tsig_keys =
  lazy (Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg "tsig") ~modulus_bits:256
          ~nparties:4 ~k:3 ~t:1 ())

let msig_keys =
  lazy (Multi_sig.deal ~drbg:(Hashes.Drbg.fork drbg "msig") ~modulus_bits:256
          ~nparties:4 ~k:3 ~t:1 ())

let enc_keys =
  lazy (Threshold_enc.deal ~drbg:(Hashes.Drbg.fork drbg "enc") ~group:(Lazy.force group)
          ~n:4 ~k:2 ~t:1)

let rsa_key = lazy (Rsa.keygen ~drbg:(Hashes.Drbg.fork drbg "rsa") ~bits:256 ())

let nat = Alcotest.testable Bignum.Nat.pp Bignum.Nat.equal

let group_tests = [
  Alcotest.test_case "group law" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "law" in
    let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    let b = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    Alcotest.check nat "commute" (Group.mul g a b) (Group.mul g b a);
    Alcotest.check nat "identity" a (Group.mul g a (Group.one g));
    Alcotest.check nat "inverse" (Group.one g) (Group.mul g a (Group.inv g a));
    Alcotest.check nat "div" b (Group.div g (Group.mul g a b) a));

  Alcotest.test_case "pow laws" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "pow" in
    let x = Group.random_exponent g ~drbg:d in
    let y = Group.random_exponent g ~drbg:d in
    let gx = Group.pow_g g x in
    Alcotest.check nat "g^x^y = g^y^x"
      (Group.pow g gx y) (Group.pow g (Group.pow_g g y) x);
    Alcotest.check nat "members have order q"
      (Group.one g) (Group.pow g gx g.Group.q));

  Alcotest.test_case "membership" `Quick (fun () ->
    let g = Lazy.force group in
    Alcotest.(check bool) "generator" true (Group.is_member g g.Group.g);
    Alcotest.(check bool) "zero" false (Group.is_member g Bignum.Nat.zero);
    Alcotest.(check bool) "p" false (Group.is_member g g.Group.p);
    (* an element outside the order-q subgroup *)
    let outside = Bignum.Nat.of_int 2 in
    let member = Group.is_member g outside in
    let check = Bignum.Nat.equal (Bignum.Nat.powmod outside g.Group.q g.Group.p) Bignum.Nat.one in
    Alcotest.(check bool) "subgroup test consistent" check member);

  Alcotest.test_case "hash_to_group lands in subgroup" `Quick (fun () ->
    let g = Lazy.force group in
    List.iter
      (fun s ->
        let e = Group.hash_to_group g s in
        Alcotest.(check bool) s true (Group.is_member g e))
      [ ""; "a"; "coin|42"; String.make 1000 'z' ];
    Alcotest.(check bool) "distinct inputs distinct points" true
      (not (Bignum.Nat.equal (Group.hash_to_group g "a") (Group.hash_to_group g "b")));
    Alcotest.check nat "deterministic" (Group.hash_to_group g "a") (Group.hash_to_group g "a"));

  Alcotest.test_case "hash_to_exponent below q" `Quick (fun () ->
    let g = Lazy.force group in
    for i = 0 to 20 do
      let e = Group.hash_to_exponent g [ "x"; string_of_int i ] in
      if Bignum.Nat.compare e g.Group.q >= 0 then Alcotest.fail "exponent out of range"
    done);

  Alcotest.test_case "elt bytes roundtrip" `Quick (fun () ->
    let g = Lazy.force group in
    let e = Group.hash_to_group g "roundtrip" in
    Alcotest.check nat "same" e (Group.elt_of_bytes (Group.elt_to_bytes g e)));
]

let fastpath_tests = [
  Alcotest.test_case "mul_exp2 equals product of powers" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "exp2" in
    for _ = 1 to 10 do
      let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
      let b = Group.pow_g g (Group.random_exponent g ~drbg:d) in
      let ea = Group.random_exponent g ~drbg:d in
      let eb = Group.random_exponent g ~drbg:d in
      Alcotest.check nat "a^ea * b^eb"
        (Group.mul g (Group.pow g a ea) (Group.pow g b eb))
        (Group.mul_exp2 g a ea b eb)
    done);

  Alcotest.test_case "precompute table matches plain pow" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "tbl" in
    let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    let tbl = Group.precompute g a in
    for _ = 1 to 10 do
      let e = Group.random_exponent g ~drbg:d in
      Alcotest.check nat "a^e" (Group.pow g a e) (Group.pow_table tbl e)
    done;
    (* the group's own generator table agrees with pow_g *)
    let e = Group.random_exponent g ~drbg:d in
    Alcotest.check nat "g table" (Group.pow_g g e) (Group.pow_table g.Group.g_tbl e));

  Alcotest.test_case "a table is built only for a subgroup member" `Quick (fun () ->
    let g = Lazy.force group in
    let refuse name a =
      Alcotest.check_raises name
        (Invalid_argument "Group.precompute: base is not in the order-q subgroup")
        (fun () -> ignore (Group.precompute g a))
    in
    refuse "zero" Bignum.Nat.zero;
    refuse "p" g.Group.p;
    let rec non_member k =
      let e = Bignum.Nat.of_int k in
      if Group.is_member g e then non_member (k + 1) else e
    in
    refuse "non-member" (non_member 2);
    let a = Group.pow_g g (Bignum.Nat.of_int 12345) in
    Alcotest.check nat "a member's table keeps its base" a
      (Group.table_base (Group.precompute g a)));

  Alcotest.test_case "dleq fast verify == reference verify" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq-eq" in
    for i = 1 to 10 do
      let x = Group.random_exponent g ~drbg:d in
      let g2 = Group.hash_to_group g (Printf.sprintf "base-%d" i) in
      let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
      let h1_tbl = Group.precompute g h1 in
      let ctx = Printf.sprintf "ctx-%d" i in
      let pf = Dleq.prove g ~drbg:d ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
      (* honest proofs: both verifiers accept *)
      List.iter
        (fun (label, ok) -> Alcotest.(check bool) label true ok)
        [ "fast", Dleq.verify g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 pf;
          "fast+tbl", Dleq.verify_keyed g ~ctx ~g1:g.Group.g ~key:h1_tbl ~g2 ~h2 pf;
          "reference", Dleq.verify_reference g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 pf ];
      (* forged proofs: both verifiers agree (and reject) *)
      let tweak = Bignum.Nat.rem (Bignum.Nat.add pf.Dleq.response Bignum.Nat.one) g.Group.q in
      let forged = [
        { pf with Dleq.response = tweak };
        { pf with Dleq.a1 = Group.mul g pf.Dleq.a1 g.Group.g };
        { pf with Dleq.a2 = Group.mul g pf.Dleq.a2 g.Group.g };
        { Dleq.a1 = Group.one g; a2 = Group.one g; response = Bignum.Nat.zero };
      ] in
      List.iter
        (fun bad ->
          let fast = Dleq.verify_keyed g ~ctx ~g1:g.Group.g ~key:h1_tbl ~g2 ~h2 bad in
          let slow = Dleq.verify_reference g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 bad in
          Alcotest.(check bool) "verifiers agree" slow fast;
          Alcotest.(check bool) "forgery rejected" false fast)
        forged
    done);

  Alcotest.test_case "make rejects an even modulus" `Quick (fun () ->
    (* Montgomery arithmetic needs gcd(p, 2^64) = 1; Group.make must refuse
       an even p before any table is built on top of it. *)
    let even_p = Bignum.Nat.of_int 22 and q = Bignum.Nat.of_int 7 in
    Alcotest.check_raises "even p"
      (Invalid_argument "Group.make: modulus must be odd")
      (fun () -> ignore (Group.make ~p:even_p ~q ~g:(Bignum.Nat.of_int 2))));
]

let shamir_tests = [
  Alcotest.test_case "interpolation recovers secret" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 424242 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh1") ~modulus:q ~secret ~n:5 ~k:3
    in
    let open Shamir in
    (* every 3-subset recovers the secret *)
    let subsets = [ [0;1;2]; [0;2;4]; [1;3;4]; [2;3;4] ] in
    List.iter
      (fun idx ->
        let sel = List.map (fun i -> shares.(i)) idx in
        Alcotest.check nat "recovered" secret (interpolate ~modulus:q ~shares:sel ~at:0))
      subsets);

  Alcotest.test_case "k-1 shares give a different polynomial" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 7 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh2") ~modulus:q ~secret ~n:5 ~k:3
    in
    (* interpolating only 2 shares yields the line through them - almost
       surely not the secret *)
    let sel = [ shares.(0); shares.(1) ] in
    Alcotest.(check bool) "wrong" false
      (Bignum.Nat.equal secret (Shamir.interpolate ~modulus:q ~shares:sel ~at:0)));

  Alcotest.test_case "interpolate at share points" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 99 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh3") ~modulus:q ~secret ~n:4 ~k:2
    in
    let sel = [ shares.(1); shares.(3) ] in
    Alcotest.check nat "f(1)" shares.(0).Shamir.value
      (Shamir.interpolate ~modulus:q ~shares:sel ~at:1));

  Alcotest.test_case "rejects bad parameters" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    Alcotest.check_raises "k > n" (Invalid_argument "Shamir.share_secret: need 1 <= k <= n")
      (fun () ->
        ignore
          (Shamir.share_secret ~drbg ~modulus:q ~secret:Bignum.Nat.one ~n:3 ~k:4)));

  Alcotest.test_case "integer lagrange coefficients are integral" `Quick (fun () ->
    (* Delta-scaled coefficients must divide exactly for every subset. *)
    List.iter
      (fun points ->
        List.iter
          (fun j ->
            ignore (Shamir.integer_lagrange_coeff ~n:7 ~points ~j ~at:0))
          points)
      [ [1;2;3]; [2;4;6]; [1;5;7]; [3;4;5;6;7] ]);

  Alcotest.test_case "delta is n!" `Quick (fun () ->
    Alcotest.check nat "5!" (Bignum.Nat.of_int 120) (Shamir.delta 5);
    Alcotest.check nat "1" Bignum.Nat.one (Shamir.delta 1));
]

let dleq_tests = [
  Alcotest.test_case "honest proof verifies" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq1" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "ok" true
      (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "wrong statement rejected" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq2" in
    let x = Group.random_exponent g ~drbg:d in
    let y = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 y in (* unequal logs *)
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "rejected" false
      (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "context separation" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq3" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"ctx-A" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "other ctx rejected" false
      (Dleq.verify g ~ctx:"ctx-B" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "serialization roundtrip" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq4" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    match Dleq.of_bytes g (Dleq.to_bytes g proof) with
    | None -> Alcotest.fail "roundtrip failed"
    | Some p ->
      Alcotest.(check bool) "still verifies" true
        (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 p));

  Alcotest.test_case "unreduced response z + q rejected on every path" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq-zq" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let key = Group.precompute g h1 in
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    let twin = { proof with Dleq.response = Bignum.Nat.add proof.Dleq.response g.Group.q } in
    (* The twin satisfies the verification equations: only the range check
       tells it from the honest proof. *)
    let c = Dleq.challenge g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 twin in
    Alcotest.check nat "g1^(z+q) = a1 * h1^c"
      (Group.mul g twin.Dleq.a1 (Group.pow g h1 c)) (Group.pow g g.Group.g twin.Dleq.response);
    (* It fits the fixed-width wire form whenever z + q < 2^(8 * |q| bytes). *)
    let qbytes = (Bignum.Nat.numbits g.Group.q + 7) / 8 in
    if Bignum.Nat.numbits twin.Dleq.response <= 8 * qbytes then
      Alcotest.(check bool) "survives the wire" true
        (Dleq.of_bytes g (Dleq.to_bytes g twin) <> None);
    List.iter
      (fun (name, ok) -> Alcotest.(check bool) name false ok)
      [ "single", Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 twin;
        "keyed", Dleq.verify_keyed g ~ctx:"c" ~g1:g.Group.g ~key ~g2 ~h2 twin;
        "reference", Dleq.verify_reference g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 twin ];
    (* z + 256q outgrows the fixed-width field; shares arrive with
       variable-length integers, so the batch must reject it, not fail to
       encode it. *)
    let wide =
      { proof with
        Dleq.response =
          Bignum.Nat.add proof.Dleq.response (Bignum.Nat.mul (Bignum.Nat.of_int 256) g.Group.q) }
    in
    (match
       Batch.dleq g ~g1:g.Group.g ~g2
         [ ("c", h1, h2, proof); ("c", h1, h2, twin); ("c", h1, h2, wide); ("c", h1, h2, proof) ]
     with
     | Batch.Invalid [ 1; 2 ] -> ()
     | _ -> Alcotest.fail "batch did not name exactly the twins");
    (* the same twin of a coin share and of a decryption share *)
    let keys = Lazy.force coin_keys in
    let pub = keys.Threshold_coin.public in
    let share i =
      Threshold_coin.release ~drbg:d pub keys.Threshold_coin.shares.(i) ~name:"zq"
    in
    let s0 = share 0 and s1 = share 1 and s2 = share 2 in
    let bump (p : Dleq.t) = { p with Dleq.response = Bignum.Nat.add p.Dleq.response g.Group.q } in
    let bad = { s1 with Threshold_coin.proof = bump s1.Threshold_coin.proof } in
    Alcotest.(check bool) "coin single" false (Threshold_coin.verify_share pub ~name:"zq" bad);
    Alcotest.(check bool) "coin reference" false
      (Threshold_coin.verify_share_reference pub ~name:"zq" bad);
    (match Batch.coin_shares pub ~name:"zq" [ s0; bad; s2 ] with
     | Batch.Invalid [ 1 ] -> ()
     | _ -> Alcotest.fail "coin batch did not name exactly the twin");
    let ekeys = Lazy.force enc_keys in
    let epub = ekeys.Threshold_enc.public in
    let ct = Threshold_enc.encrypt ~drbg:d epub ~label:"L" "zq" in
    match Threshold_enc.dec_share ~drbg:d epub ekeys.Threshold_enc.shares.(0) ct with
    | None -> Alcotest.fail "no decryption share"
    | Some ds ->
      Alcotest.(check bool) "decryption share" false
        (Threshold_enc.verify_dec_share epub ct
           { ds with Threshold_enc.proof = bump ds.Threshold_enc.proof }));

  Alcotest.test_case "keyed verify accepts exactly what the reference accepts" `Quick
    (fun () ->
      let g = Lazy.force group in
      let d = Hashes.Drbg.fork drbg "dleq-keyed" in
      let non_member =
        let rec find k =
          let e = Bignum.Nat.of_int k in
          if Group.is_member g e then find (k + 1) else e
        in
        find 2
      in
      for i = 1 to 6 do
        let x = Group.random_exponent g ~drbg:d in
        let g2 = Group.hash_to_group g (Printf.sprintf "keyed-%d" i) in
        let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
        let key = Group.precompute g h1 in
        let ctx = Printf.sprintf "k%d" i in
        let pf = Dleq.prove g ~drbg:d ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
        let forged = { pf with Dleq.a2 = Group.mul g pf.Dleq.a2 g.Group.g } in
        let h2s =
          [ "honest", h2; "zero", Bignum.Nat.zero; "p", g.Group.p;
            "p + 1", Bignum.Nat.add g.Group.p Bignum.Nat.one;
            "non-member", non_member; "other member", Group.mul g h2 g.Group.g ]
        in
        List.iter
          (fun (hname, h2) ->
            List.iter
              (fun (pname, proof) ->
                let reference =
                  Dleq.verify_reference g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 proof
                in
                let name = Printf.sprintf "%d: %s proof, h2 %s" i pname hname in
                Alcotest.(check bool) (name ^ ", keyed") reference
                  (Dleq.verify_keyed g ~ctx ~g1:g.Group.g ~key ~g2 ~h2 proof);
                Alcotest.(check bool) (name ^ ", single") reference
                  (Dleq.verify g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 proof))
              [ "honest", pf; "forged", forged ])
          h2s;
        Alcotest.(check bool) "the honest statement is accepted" true
          (Dleq.verify_keyed g ~ctx ~g1:g.Group.g ~key ~g2 ~h2 pf)
      done);
]

let coin_tests =
  let release i name =
    let keys = Lazy.force coin_keys in
    Threshold_coin.release ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "c%d%s" i name))
      keys.Threshold_coin.public keys.Threshold_coin.shares.(i) ~name
  in
  [
    Alcotest.test_case "shares verify" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      for i = 0 to 3 do
        Alcotest.(check bool) (string_of_int i) true
          (Threshold_coin.verify_share keys.Threshold_coin.public ~name:"n1" (release i "n1"))
      done);

    Alcotest.test_case "share for another coin rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      Alcotest.(check bool) "cross-name" false
        (Threshold_coin.verify_share keys.Threshold_coin.public ~name:"n2" (release 0 "n1")));

    Alcotest.test_case "all k-subsets agree" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let shares = List.init 4 (fun i -> release i "flip") in
      let value pair = Threshold_coin.assemble pub ~name:"flip" pair ~len:16 in
      let pairs =
        [ [List.nth shares 0; List.nth shares 1];
          [List.nth shares 0; List.nth shares 2];
          [List.nth shares 1; List.nth shares 3];
          [List.nth shares 2; List.nth shares 3] ]
      in
      let values = List.map value pairs in
      Util.check_all_equal "coin value" values);

    Alcotest.test_case "different names give independent coins" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let v name = Threshold_coin.assemble pub ~name [ release 0 name; release 1 name ] ~len:16 in
      Alcotest.(check bool) "differ" true (v "name-a" <> v "name-b"));

    Alcotest.test_case "insufficient shares rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      Alcotest.check_raises "1 < k"
        (Invalid_argument "Threshold_coin.assemble: not enough distinct shares")
        (fun () -> ignore (Threshold_coin.assemble pub ~name:"x" [ release 0 "x" ] ~len:1)));

    Alcotest.test_case "duplicate origins do not count twice" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let s = release 0 "dup" in
      Alcotest.check_raises "dup"
        (Invalid_argument "Threshold_coin.assemble: not enough distinct shares")
        (fun () -> ignore (Threshold_coin.assemble pub ~name:"dup" [ s; s ] ~len:1)));

    Alcotest.test_case "tampered share rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let s = release 0 "tamper" in
      let bad = { s with Threshold_coin.value = Group.pow pub.Threshold_coin.group s.Threshold_coin.value (Bignum.Nat.of_int 2) } in
      Alcotest.(check bool) "rejected" false
        (Threshold_coin.verify_share pub ~name:"tamper" bad));

    Alcotest.test_case "coin bits are roughly balanced" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let ones = ref 0 in
      for i = 0 to 99 do
        let name = Printf.sprintf "bal-%d" i in
        if Threshold_coin.assemble_bit pub ~name [ release 0 name; release 1 name ]
        then incr ones
      done;
      if !ones < 25 || !ones > 75 then
        Alcotest.failf "coin badly biased: %d/100 ones" !ones);
  ]

let rsa_tests = [
  Alcotest.test_case "sign/verify roundtrip" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let s = Rsa.sign sk ~ctx:"ctx" "message" in
    Alcotest.(check bool) "ok" true (Rsa.verify sk.Rsa.pub ~ctx:"ctx" ~signature:s "message");
    Alcotest.(check bool) "wrong msg" false
      (Rsa.verify sk.Rsa.pub ~ctx:"ctx" ~signature:s "other");
    Alcotest.(check bool) "wrong ctx" false
      (Rsa.verify sk.Rsa.pub ~ctx:"ctx2" ~signature:s "message"));

  Alcotest.test_case "signature length and garbage rejection" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let s = Rsa.sign sk ~ctx:"c" "m" in
    Alcotest.(check int) "length" (Rsa.signature_bytes sk.Rsa.pub) (String.length s);
    Alcotest.(check bool) "short" false
      (Rsa.verify sk.Rsa.pub ~ctx:"c" ~signature:"short" "m");
    Alcotest.(check bool) "zeros" false
      (Rsa.verify sk.Rsa.pub ~ctx:"c" ~signature:(String.make (String.length s) '\000') "m"));

  Alcotest.test_case "crt power equals plain power" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let x = Bignum.Nat.of_int 123456789 in
    Alcotest.check nat "equal"
      (Bignum.Nat.powmod x sk.Rsa.d sk.Rsa.pub.Rsa.n)
      (Rsa.crt_power sk x));

  Alcotest.test_case "fdh stays below modulus" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    for i = 0 to 20 do
      let h = Rsa.fdh_stmt sk.Rsa.pub (Rsa.stmt_for sk.Rsa.pub ~ctx:"c" (string_of_int i)) in
      if Bignum.Nat.compare h sk.Rsa.pub.Rsa.n >= 0 then Alcotest.fail "fdh out of range"
    done);
]

(* The full-domain hash and RSA written out from their definition, over
   the Barrett reference exponentiation: the prepared-statement path must
   agree with it on every key, context and message. *)
let ref_fdh (n : Bignum.Nat.t) ~(ctx : string) (msg : string) : Bignum.Nat.t =
  let nbytes = (Bignum.Nat.numbits n + 7) / 8 in
  let blocks =
    List.init ((nbytes + 8 + 31) / 32) (fun i ->
      Hashes.Sha256.digest_list [ "rsa-fdh|"; ctx; "|"; string_of_int i; "|"; msg ])
  in
  Bignum.Nat.rem (Bignum.Nat.of_bytes_be (String.concat "" blocks)) n

let ref_sign (sk : Rsa.secret) ~(ctx : string) (msg : string) : string =
  let n = sk.Rsa.pub.Rsa.n in
  Bignum.Nat.to_bytes_be ~len:((Bignum.Nat.numbits n + 7) / 8)
    (Bignum.Nat.powmod_barrett (ref_fdh n ~ctx msg) sk.Rsa.d n)

let ref_verify (pub : Rsa.public) ~(ctx : string) ~(signature : string)
    (msg : string) : bool =
  let n = pub.Rsa.n in
  let s = Bignum.Nat.of_bytes_be signature in
  String.length signature = (Bignum.Nat.numbits n + 7) / 8
  && Bignum.Nat.compare s n < 0
  && Bignum.Nat.equal (Bignum.Nat.powmod_barrett s pub.Rsa.e n) (ref_fdh n ~ctx msg)

let hex (s : string) : string =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let golden_msgs = [ ""; "m"; String.init 1000 (fun i -> Char.chr (i land 255)) ]

let prepared_tests = [
  Alcotest.test_case "golden signature bytes for fixed keys and messages" `Quick
    (fun () ->
      (* Pinned from the one-shot hashing path: preparing statements once
         and keeping Montgomery contexts in the keys must not move a
         signature byte. *)
      let d seed = Hashes.Drbg.create ~seed in
      let sk = Rsa.keygen ~drbg:(d "golden-rsa") ~bits:256 () in
      let sigs = List.map (fun m -> Rsa.sign sk ~ctx:"golden" m) golden_msgs in
      Alcotest.(check string) "rsa, empty message"
        "61d8171c62300eb7502e6ff98d3f06591d7a11d42c1838a14a6d38d2df3f3a6e"
        (hex (List.hd sigs));
      Alcotest.(check string) "rsa"
        "48a385e02bb63d7fee499a99a2b0033fa5dc2098f5cc4742751098e35bd4247d"
        (hex (Hashes.Sha256.digest (String.concat "" sigs)));
      let mk =
        Multi_sig.deal ~drbg:(d "golden-msig") ~modulus_bits:256 ~nparties:4 ~k:3
          ~t:1 ()
      in
      let mpub = mk.Multi_sig.public in
      let msigs =
        List.map
          (fun m ->
            let st = Multi_sig.statement mpub ~ctx:"golden" m in
            Multi_sig.assemble mpub
              (List.map (fun i -> Multi_sig.release mpub mk.Multi_sig.shares.(i) st)
                 [ 3; 0; 2 ]))
          golden_msgs
      in
      Alcotest.(check string) "multi-signature"
        "5809e8a185a62a3eb8e4e2ea90f846899357294139d419d929703261f7ee2dd5"
        (hex (Hashes.Sha256.digest (String.concat "" msigs)));
      let tk =
        Threshold_sig.deal ~drbg:(d "golden-tsig") ~modulus_bits:256 ~nparties:4
          ~k:3 ~t:1 ()
      in
      let tpub = tk.Threshold_sig.public in
      let rd = d "golden-tsig-release" in
      let enc s =
        String.concat "|"
          (List.map (fun x -> Bignum.Nat.to_bytes_be x)
             [ s.Threshold_sig.x_i; s.Threshold_sig.proof_v; s.Threshold_sig.proof_x;
               s.Threshold_sig.proof_z ])
      in
      let tsigs =
        List.map
          (fun m ->
            let st = Rsa.stmt_for tpub.Threshold_sig.rsa ~ctx:"golden" m in
            let shares =
              List.map
                (fun i -> Threshold_sig.release ~drbg:rd tpub tk.Threshold_sig.shares.(i) st)
                [ 1; 3; 0 ]
            in
            String.concat "" (List.map enc shares) ^ Threshold_sig.assemble tpub st shares)
          golden_msgs
      in
      Alcotest.(check string) "threshold shares and signature"
        "5476913b84070b6064d410e5ce010b046e22bd38c154330c542d140c92076ca6"
        (hex (Hashes.Sha256.digest (String.concat "" tsigs))));

  Alcotest.test_case "prepared statements = reference FDH-RSA on random keys, ctx and messages"
    `Quick (fun () ->
      (* Keys of 31, 32, 32 and 33 modulus bytes: a statement prepared for
         one length is re-hashed for another, so every pairing must still
         agree with the reference. *)
      let keys =
        List.mapi
          (fun i bits ->
            Rsa.keygen ~drbg:(Util.drbg ~seed:(Printf.sprintf "prep-key-%d" i) ()) ~bits ())
          [ 248; 256; 256; 264 ]
      in
      let rb = Util.random_bytes ~seed:"prep-msgs" () in
      let byte () = Char.code (rb 1).[0] in
      for case = 1 to 25 do
        let ctx = rb (byte () mod 12) in
        let msg = rb (if case = 1 then 0 else byte () * 3) in
        let tampered =
          if msg = "" then "x"
          else begin
            let b = Bytes.of_string msg in
            let i = byte () mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
            Bytes.to_string b
          end
        in
        List.iter
          (fun sk ->
            let pub = sk.Rsa.pub in
            let own = Rsa.stmt_for pub ~ctx msg in
            Alcotest.check nat "fdh_stmt = reference" (ref_fdh pub.Rsa.n ~ctx msg)
              (Rsa.fdh_stmt pub own);
            let expect = ref_sign sk ~ctx msg in
            Alcotest.(check string) "sign_stmt = reference" expect (Rsa.sign_stmt sk own);
            Alcotest.(check string) "sign wrapper = reference" expect (Rsa.sign sk ~ctx msg);
            List.iter
              (fun other ->
                (* [other]'s statement, and [other]'s signature, under [pub]. *)
                let st = Rsa.stmt_for other.Rsa.pub ~ctx msg in
                Alcotest.(check string) "mismatched-length statement signs the same"
                  expect (Rsa.sign_stmt sk st);
                Alcotest.(check bool) "mismatched-length statement verifies" true
                  (Rsa.verify_stmt pub ~signature:expect st);
                let osig = Rsa.sign other ~ctx msg in
                Alcotest.(check bool) "cross-key signature: same verdict as reference"
                  (ref_verify pub ~ctx ~signature:osig msg)
                  (Rsa.verify_stmt pub ~signature:osig own))
              keys;
            Alcotest.(check bool) "verify_stmt accepts" true
              (Rsa.verify_stmt pub ~signature:expect own);
            let bad = Rsa.stmt_for pub ~ctx tampered in
            Alcotest.(check bool) "tampered message: reference rejects" false
              (ref_verify pub ~ctx ~signature:expect tampered);
            Alcotest.(check bool) "tampered message: prepared path rejects" false
              (Rsa.verify_stmt pub ~signature:expect bad);
            Alcotest.(check bool) "tampered message: wrapper rejects" false
              (Rsa.verify pub ~ctx ~signature:expect tampered);
            Alcotest.(check bool) "other context rejects" false
              (Rsa.verify_stmt pub ~signature:expect (Rsa.stmt_for pub ~ctx:(ctx ^ "'") msg)))
          keys
      done);

  Alcotest.test_case "statement table returns exactly the fresh preparation" `Quick
    (fun () ->
      let sk = Lazy.force rsa_key in
      let pub = sk.Rsa.pub in
      let nbytes = Rsa.signature_bytes pub in
      let t = Stmt_table.create ~cap:3 in
      let a = Stmt_table.find t ~nbytes ~ctx:"pid" "msg" in
      Alcotest.(check bool) "a hit returns the stored statement" true
        (a == Stmt_table.find t ~nbytes ~ctx:"pid" (String.concat "" [ "m"; "sg" ]));
      Alcotest.check nat "same fdh as a fresh preparation"
        (Rsa.fdh_stmt pub (Rsa.stmt_for pub ~ctx:"pid" "msg")) (Rsa.fdh_stmt pub a);
      let b = Stmt_table.find t ~nbytes ~ctx:"pid" "msg'" in
      let c = Stmt_table.find t ~nbytes ~ctx:"pid'" "msg" in
      Alcotest.(check bool) "another message misses" false (a == b);
      Alcotest.(check bool) "another pid misses" false (a == c);
      Alcotest.check nat "the miss is that statement's hash"
        (Rsa.fdh_stmt pub (Rsa.stmt_for pub ~ctx:"pid'" "msg")) (Rsa.fdh_stmt pub c);
      Alcotest.(check (pair int int)) "hashed, reused" (3, 1)
        (Stmt_table.hashed t, Stmt_table.reused t);
      Alcotest.(check int) "size" 3 (Stmt_table.size t);
      (* At the cap the table empties itself before storing: bounded,
         and the dropped statements are simply prepared again. *)
      ignore (Stmt_table.find t ~nbytes ~ctx:"pid" "fourth");
      Alcotest.(check int) "emptied at the cap, then stored" 1 (Stmt_table.size t);
      Alcotest.(check int) "peak" 3 (Stmt_table.peak t);
      Alcotest.(check bool) "dropped entry is prepared again" false
        (a == Stmt_table.find t ~nbytes ~ctx:"pid" "msg");
      Stmt_table.evict_group t "pid";
      Alcotest.(check int) "group evicted" 0 (Stmt_table.size t);
      Stmt_table.clear t;
      Alcotest.(check (pair int int)) "counters survive clear" (5, 1)
        (Stmt_table.hashed t, Stmt_table.reused t));

  Alcotest.test_case "statement table keeps the cache-key prefix with the entry" `Quick
    (fun () ->
      let nbytes = Rsa.signature_bytes (Lazy.force rsa_key).Rsa.pub in
      let t = Stmt_table.create ~cap:3 in
      let m = Stmt_table.key_prefix t ~ctx:"pid" "msg" in
      Alcotest.(check string) "midstate over ctx ‖ msg"
        (Hashes.Sha256.digest_list [ "pid"; "msg"; "share" ])
        (Hashes.Sha256.digest_from m [ "share" ]);
      Alcotest.(check (pair int int)) "a prefix lookup prepares nothing" (0, 0)
        (Stmt_table.hashed t, Stmt_table.reused t);
      Alcotest.(check int) "but opens the entry" 1 (Stmt_table.size t);
      ignore (Stmt_table.find t ~nbytes ~ctx:"pid" "msg");
      ignore (Stmt_table.find t ~nbytes ~ctx:"pid" "msg");
      Alcotest.(check (pair int int)) "the first find prepares, the next reuses" (1, 1)
        (Stmt_table.hashed t, Stmt_table.reused t);
      Alcotest.(check bool) "the prefix is hashed once per entry" true
        (m == Stmt_table.key_prefix t ~ctx:"pid" "msg");
      Stmt_table.evict_group t "pid";
      Alcotest.(check int) "and leaves with it" 0 (Stmt_table.size t);
      Alcotest.(check bool) "a new entry hashes it again" false
        (m == Stmt_table.key_prefix t ~ctx:"pid" "msg"));

  Alcotest.test_case "share-cache key bytes are pinned" `Quick (fun () ->
    let d32 = Hashes.Sha256.digest "k" and d20 = Hashes.Sha1.digest "k" in
    Alcotest.(check string) "enc-share" ("enc-share|3|3|" ^ d32)
      (Share_cache.key ~scheme:"enc-share" ~digest:d32 ~sender:3 ~index:3);
    Alcotest.(check string) "tsig-sig" ("tsig-sig|0|0|" ^ d20)
      (Share_cache.key ~scheme:"tsig-sig" ~digest:d20 ~sender:0 ~index:0);
    (* the format the key was first built with, integers in decimal *)
    List.iter
      (fun (sender, index) ->
        Alcotest.(check string) (Printf.sprintf "%d/%d" sender index)
          (Printf.sprintf "%s|%d|%d|%s" "coin" sender index d32)
          (Share_cache.key ~scheme:"coin" ~digest:d32 ~sender ~index))
      [ (0, 0); (1, 7); (12, 3); (-1, 4); (1000000, 99) ];
    Alcotest.check_raises "not a digest"
      (Invalid_argument "Share_cache: key digest must be a SHA-1 or SHA-256 digest")
      (fun () -> ignore (Share_cache.key ~scheme:"s" ~digest:"short" ~sender:1 ~index:1)));
]

let tsig_tests =
  let stmt ?(ctx = "pid") msg =
    Rsa.stmt_for (Lazy.force tsig_keys).Threshold_sig.public.Threshold_sig.rsa ~ctx msg
  in
  let release i msg =
    let keys = Lazy.force tsig_keys in
    Threshold_sig.release ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "t%d%s" i msg))
      keys.Threshold_sig.public keys.Threshold_sig.shares.(i) (stmt msg)
  in
  [
    Alcotest.test_case "shares verify, cross-message rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      let s = release 0 "m" in
      Alcotest.(check bool) "good" true (Threshold_sig.verify_share pub (stmt "m") s);
      Alcotest.(check bool) "wrong msg" false (Threshold_sig.verify_share pub (stmt "m2") s);
      Alcotest.(check bool) "wrong ctx" false
        (Threshold_sig.verify_share pub (stmt ~ctx:"pid2" "m") s));

    Alcotest.test_case "assembled signature is standard RSA and subset-independent" `Quick
      (fun () ->
        let keys = Lazy.force tsig_keys in
        let pub = keys.Threshold_sig.public in
        let shares = List.init 4 (fun i -> release i "payload") in
        let pick idx = List.map (List.nth shares) idx in
        let st = stmt "payload" in
        let s1 = Threshold_sig.assemble pub st (pick [0;1;2]) in
        let s2 = Threshold_sig.assemble pub st (pick [1;2;3]) in
        let s3 = Threshold_sig.assemble pub st (pick [0;2;3]) in
        (* x^d mod n is unique, so different share subsets must produce the
           identical standard RSA signature. *)
        Alcotest.(check string) "subset independence 1" s1 s2;
        Alcotest.(check string) "subset independence 2" s1 s3;
        Alcotest.(check bool) "verifies" true
          (Threshold_sig.verify pub ~signature:s1 st);
        (* and it verifies as a plain RSA signature under (n, e) *)
        Alcotest.(check bool) "plain RSA" true
          (Rsa.verify pub.Threshold_sig.rsa ~ctx:"pid" ~signature:s1 "payload"));

    Alcotest.test_case "too few shares rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      Alcotest.check_raises "2 < 3"
        (Invalid_argument "Threshold_sig.assemble: not enough distinct shares")
        (fun () ->
          ignore (Threshold_sig.assemble pub (stmt "m") [ release 0 "m"; release 1 "m" ])));

    Alcotest.test_case "forged share rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      let s = release 1 "m" in
      let bad = { s with Threshold_sig.x_i = Bignum.Nat.add s.Threshold_sig.x_i Bignum.Nat.one } in
      Alcotest.(check bool) "rejected" false
        (Threshold_sig.verify_share pub (stmt "m") bad);
      (* claiming another origin also fails: the verification key differs *)
      let stolen = { s with Threshold_sig.origin = 3 } in
      Alcotest.(check bool) "stolen origin" false
        (Threshold_sig.verify_share pub (stmt "m") stolen));
  ]

let msig_tests =
  let stmt msg = Multi_sig.statement (Lazy.force msig_keys).Multi_sig.public ~ctx:"pid" msg in
  let release i msg =
    let keys = Lazy.force msig_keys in
    Multi_sig.release keys.Multi_sig.public keys.Multi_sig.shares.(i) (stmt msg)
  in
  [
    Alcotest.test_case "multi-signature roundtrip" `Quick (fun () ->
      let keys = Lazy.force msig_keys in
      let pub = keys.Multi_sig.public in
      let shares = [ release 0 "m"; release 2 "m"; release 3 "m" ] in
      List.iter
        (fun s ->
          Alcotest.(check bool) "share ok" true (Multi_sig.verify_share pub (stmt "m") s))
        shares;
      let sig_ = Multi_sig.assemble pub shares in
      Alcotest.(check bool) "verifies" true (Multi_sig.verify pub ~signature:sig_ (stmt "m"));
      Alcotest.(check bool) "wrong msg" false
        (Multi_sig.verify pub ~signature:sig_ (stmt "m'")));

    Alcotest.test_case "garbage and duplicates rejected" `Quick (fun () ->
      let keys = Lazy.force msig_keys in
      let pub = keys.Multi_sig.public in
      Alcotest.(check bool) "garbage" false
        (Multi_sig.verify pub ~signature:"zzzz" (stmt "m"));
      (* duplicated origins must not reach the threshold *)
      let s0 = release 0 "m" and s1 = release 1 "m" in
      let forged =
        Multi_sig.assemble { pub with Multi_sig.k = 2 } [ s0; s1 ]
      in
      Alcotest.(check bool) "only 2 distinct" false
        (Multi_sig.verify pub ~signature:forged (stmt "m")));
  ]

(* [ct] with some fields replaced: an unchecked ciphertext. *)
let remake ?c ?label ?u ?ubar ?e ?f (ct : _ Threshold_enc.ciphertext) :
    Threshold_enc.unchecked Threshold_enc.ciphertext =
  let pick o d = Option.value o ~default:d in
  Threshold_enc.make ~c:(pick c ct.Threshold_enc.c)
    ~label:(pick label ct.Threshold_enc.label) ~u:(pick u ct.Threshold_enc.u)
    ~ubar:(pick ubar ct.Threshold_enc.ubar) ~e:(pick e ct.Threshold_enc.e)
    ~f:(pick f ct.Threshold_enc.f)

let enc_tests =
  let dec_share i ct =
    let keys = Lazy.force enc_keys in
    Threshold_enc.dec_share ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "d%d" i))
      keys.Threshold_enc.public keys.Threshold_enc.shares.(i) ct
  in
  [
    Alcotest.test_case "encrypt/decrypt roundtrip" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e1") pub ~label:"L" "the plaintext" in
      Alcotest.(check bool) "valid" true (Threshold_enc.ciphertext_valid pub ct);
      match dec_share 0 ct, dec_share 2 ct with
      | Some d0, Some d2 ->
        Alcotest.(check bool) "share0" true (Threshold_enc.verify_dec_share pub ct d0);
        Alcotest.(check bool) "share2" true (Threshold_enc.verify_dec_share pub ct d2);
        (match Threshold_enc.combine pub ct [ d0; d2 ] with
         | Some m -> Alcotest.(check string) "plaintext" "the plaintext" m
         | None -> Alcotest.fail "combine failed")
      | _ -> Alcotest.fail "dec_share failed");

    Alcotest.test_case "subset independence" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e2") pub ~label:"L" "msg!" in
      let ds = List.filter_map (fun i -> dec_share i ct) [ 0; 1; 2; 3 ] in
      let m pair = Threshold_enc.combine pub ct pair in
      let pairs =
        [ [List.nth ds 0; List.nth ds 1]; [List.nth ds 1; List.nth ds 2];
          [List.nth ds 0; List.nth ds 3] ]
      in
      List.iter
        (fun p -> Alcotest.(check (option string)) "same" (Some "msg!") (m p))
        pairs);

    Alcotest.test_case "tampered ciphertext rejected (CCA)" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e3") pub ~label:"L" "secret" in
      let flip (s : string) =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      Alcotest.(check bool) "payload tamper" false
        (Threshold_enc.ciphertext_valid pub (remake ~c:(flip ct.Threshold_enc.c) ct));
      Alcotest.(check bool) "label tamper" false
        (Threshold_enc.ciphertext_valid pub (remake ~label:"L2" ct));
      Alcotest.(check bool) "u tamper" false
        (Threshold_enc.ciphertext_valid pub
           (remake ~u:(Group.pow pub.Threshold_enc.group ct.Threshold_enc.u (Bignum.Nat.of_int 2)) ct));
      (* no checked ciphertext, hence no decryption share, for an invalid
         one *)
      Alcotest.(check bool) "no share" true
        (Option.is_none (Threshold_enc.check pub (remake ~label:"L2" ct))));

    Alcotest.test_case "forged decryption share rejected" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e4") pub ~label:"L" "x" in
      match dec_share 0 ct with
      | None -> Alcotest.fail "no share"
      | Some d ->
        let bad = { d with Threshold_enc.u_i = Group.pow pub.Threshold_enc.group d.Threshold_enc.u_i (Bignum.Nat.of_int 3) } in
        Alcotest.(check bool) "rejected" false (Threshold_enc.verify_dec_share pub ct bad));

    Alcotest.test_case "ciphertext serialization roundtrip" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e5") pub ~label:"lbl" "round trip" in
      match Threshold_enc.ciphertext_of_bytes (Threshold_enc.ciphertext_to_bytes pub ct) with
      | None -> Alcotest.fail "decode failed"
      | Some ct' ->
        Alcotest.(check string) "equal" (Threshold_enc.ciphertext_to_bytes pub ct)
          (Threshold_enc.ciphertext_to_bytes pub ct');
        Alcotest.(check bool) "still valid" true (Threshold_enc.ciphertext_valid pub ct'));

    Alcotest.test_case "check-then-combine = the pairwise-power combine on every k-subset"
      `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let grp = pub.Threshold_enc.group in
      let sent = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e7") pub ~label:"L" "subsets" in
      let ct =
        match
          Option.bind
            (Threshold_enc.ciphertext_of_bytes (Threshold_enc.ciphertext_to_bytes pub sent))
            (Threshold_enc.check pub)
        with
        | Some ct -> ct
        | None -> Alcotest.fail "an honest ciphertext failed its check"
      in
      let ds = Array.of_list (List.filter_map (fun i -> dec_share i ct) [ 0; 1; 2; 3 ]) in
      (* One exponentiation per share, multiplied up: the Lagrange step as
         it was before the multi-exponentiation. *)
      let pairwise shares =
        let points = List.map (fun s -> s.Threshold_enc.origin) shares in
        let hr =
          List.fold_left
            (fun acc s ->
              let lam =
                Shamir.lagrange_coeff ~modulus:grp.Group.q ~points
                  ~j:s.Threshold_enc.origin ~at:0
              in
              Group.mul grp acc (Group.pow grp s.Threshold_enc.u_i lam))
            (Group.one grp) shares
        in
        Threshold_enc.stream_xor
          ~key:(Hashes.Sha256.digest_list [ "tdh2-key|"; Group.elt_to_bytes grp hr ])
          ct.Threshold_enc.c
      in
      for a = 0 to 3 do
        for b = 0 to 3 do
          if a <> b then begin
            let subset = [ ds.(a); ds.(b) ] in
            let name = Printf.sprintf "shares {%d,%d}" (a + 1) (b + 1) in
            Alcotest.(check (option string)) name (Some (pairwise subset))
              (Threshold_enc.combine pub ct subset);
            Alcotest.(check (option string)) (name ^ " plaintext") (Some "subsets")
              (Threshold_enc.combine pub ct subset)
          end
        done
      done;
      Alcotest.(check (option string)) "one share is not enough" None
        (Threshold_enc.combine pub ct [ ds.(0); ds.(0) ]));

    Alcotest.test_case "every one-byte field mutation: check = reference validity" `Quick
      (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let grp = pub.Threshold_enc.group in
      let open Bignum in
      (* The validity rule with plain exponentiations and inversions, and
         no range check on f. *)
      let reference (ct : _ Threshold_enc.ciphertext) =
        let p = grp.Group.p in
        Nat.compare ct.Threshold_enc.e grp.Group.q < 0
        && Group.is_member grp ct.Threshold_enc.u && Group.is_member grp ct.Threshold_enc.ubar
        && begin
          let pair base b =
            Group.div grp (Nat.powmod base ct.Threshold_enc.f p)
              (Nat.powmod b ct.Threshold_enc.e p)
          in
          let w = pair grp.Group.g ct.Threshold_enc.u in
          let wbar = pair pub.Threshold_enc.gbar ct.Threshold_enc.ubar in
          let e =
            Group.hash_to_exponent grp
              [ "tdh2-e"; ct.Threshold_enc.c; ct.Threshold_enc.label;
                Group.elt_to_bytes grp ct.Threshold_enc.u; Group.elt_to_bytes grp w;
                Group.elt_to_bytes grp ct.Threshold_enc.ubar; Group.elt_to_bytes grp wbar ]
          in
          Nat.equal e ct.Threshold_enc.e
        end
      in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e8") pub ~label:"lbl" "mutate me" in
      Alcotest.(check bool) "the honest ciphertext" true (reference ct);
      let bytes = Threshold_enc.ciphertext_to_bytes pub ct in
      (* Walk the six length-prefixed fields and flip each byte of each. *)
      let mutations = ref 0 in
      let pos = ref 0 in
      for field = 0 to 5 do
        let len = int_of_string (String.sub bytes !pos 8) in
        for i = !pos + 8 to !pos + 7 + len do
          List.iter
            (fun mask ->
              let b = Bytes.of_string bytes in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
              match Threshold_enc.ciphertext_of_bytes (Bytes.to_string b) with
              | None -> Alcotest.failf "field %d byte %d: mutation did not parse" field i
              | Some m ->
                incr mutations;
                let checked = Option.is_some (Threshold_enc.check pub m) in
                if checked <> reference m then
                  Alcotest.failf "field %d byte %d mask %x: check %b, reference %b" field i
                    mask checked (reference m);
                if checked then Alcotest.failf "field %d byte %d: mauled ciphertext accepted" field i;
                Alcotest.(check bool) "ciphertext_valid = check" checked
                  (Threshold_enc.ciphertext_valid pub m))
            [ 0x01; 0x80 ]
        done;
        pos := !pos + 8 + len
      done;
      Alcotest.(check bool) "every field walked" true (!pos = String.length bytes && !mutations > 100));

    Alcotest.test_case "the (e, f + q) twin of an honest ciphertext is rejected" `Quick
      (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let grp = pub.Threshold_enc.group in
      let q = grp.Group.q in
      for i = 0 to 7 do
        let ct =
          Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "fq%d" i)) pub
            ~label:"L" "front-run me"
        in
        let f' = Bignum.Nat.add ct.Threshold_enc.f q in
        let twin = remake ~f:f' ct in
        Alcotest.(check bool) "twin rejected" false (Threshold_enc.ciphertext_valid pub twin);
        Alcotest.(check bool) "no checked twin" true (Option.is_none (Threshold_enc.check pub twin));
        (* On the wire: the same length-prefixed fields with f + q in
           place of f (one byte longer when it outgrows the fixed width),
           which decodes intact — and is still rejected. *)
        let field x = Printf.sprintf "%08d%s" (String.length x) x in
        let bytes =
          String.concat ""
            (List.map field
               [ ct.Threshold_enc.c; ct.Threshold_enc.label;
                 Group.elt_to_bytes grp ct.Threshold_enc.u;
                 Group.elt_to_bytes grp ct.Threshold_enc.ubar;
                 Group.exponent_to_bytes grp ct.Threshold_enc.e;
                 Bignum.Nat.to_bytes_be f' ])
        in
        Alcotest.(check bool) "distinct bytes" false
          (bytes = Threshold_enc.ciphertext_to_bytes pub ct);
        match Threshold_enc.ciphertext_of_bytes bytes with
        | None -> Alcotest.fail "the twin did not decode"
        | Some w ->
          Alcotest.check nat "decoded f + q" f' w.Threshold_enc.f;
          Alcotest.(check bool) "decoded twin rejected" true
            (Option.is_none (Threshold_enc.check pub w))
      done);

    Alcotest.test_case "empty and large messages" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      List.iter
        (fun msg ->
          let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e6") pub ~label:"L" msg in
          let ds = List.filter_map (fun i -> dec_share i ct) [ 1; 3 ] in
          Alcotest.(check (option string)) (Printf.sprintf "len %d" (String.length msg))
            (Some msg) (Threshold_enc.combine pub ct ds))
        [ ""; String.make 5000 'q' ]);
  ]

(* --- results a party already knows, or computes late ---

   A multi-signature verify that accepts known parts without an RSA check
   must agree with the plain verify whenever the known parts are valid
   shares on the statement; a coin share finished from a drawn nonce must
   be the one the eager release makes from the same DRBG state, and leave
   the DRBG where the release leaves it. *)

let msig_part (origin : int) (signature : string) : Multi_sig.share =
  { Multi_sig.origin; signature }

let encode_msig (parts : Multi_sig.share list) : string =
  String.concat ""
    (Printf.sprintf "%04d" (List.length parts)
     :: List.map
          (fun (p : Multi_sig.share) ->
            Printf.sprintf "%04d%08d%s" p.Multi_sig.origin
              (String.length p.Multi_sig.signature) p.Multi_sig.signature)
          parts)

let ondemand_tests =
  [
    Alcotest.test_case
      "multi-signature: verify with known parts = verify with none, 400 \
       random and forged signatures, random known lists"
      `Quick (fun () ->
        let keys = Lazy.force msig_keys in
        let pub = keys.Multi_sig.public in
        let msgs = [| "ka"; "kb"; "kc" |] in
        let stmt m = Multi_sig.statement pub ~ctx:"known" m in
        (* honest.(m).(i): party i+1's share on msgs.(m) *)
        let honest =
          Array.map
            (fun m ->
              Array.init 4 (fun i -> Multi_sig.release pub keys.Multi_sig.shares.(i) (stmt m)))
            msgs
        in
        let d = Util.drbg ~seed:"known-parts" () in
        let pick n = Hashes.Drbg.int d n in
        let flip (sg : string) =
          let b = Bytes.of_string sg in
          let i = pick (Bytes.length b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + pick 255)));
          Bytes.to_string b
        in
        let accepted = ref 0 and skipped = ref 0 in
        for case = 1 to 400 do
          let m = pick 3 in
          let valid = honest.(m) in
          let part () =
            let i = pick 4 in
            match pick 8 with
            | 0 -> msig_part (1 + i) (flip valid.(i).Multi_sig.signature)
            | 1 -> msig_part (1 + i) honest.((m + 1) mod 3).(i).Multi_sig.signature
            | 2 -> msig_part (1 + ((i + 1) mod 4)) valid.(i).Multi_sig.signature
            | 3 -> msig_part (if pick 2 = 0 then 0 else 5) valid.(i).Multi_sig.signature
            | _ -> valid.(i)
          in
          let parts = List.init (pick 6) (fun _ -> part ()) in
          let known_list =
            List.filter (fun _ -> pick 2 = 0) (Array.to_list valid)
          in
          let known (s : Multi_sig.share) =
            List.exists
              (fun (k : Multi_sig.share) ->
                k.Multi_sig.origin = s.Multi_sig.origin
                && String.equal k.Multi_sig.signature s.Multi_sig.signature)
              known_list
          in
          let checked (s : Multi_sig.share) _ =
            if known s then
              Alcotest.failf "case %d: a known part was RSA-checked" case
          in
          let signature = encode_msig parts in
          let plain = Multi_sig.verify pub ~signature (stmt msgs.(m)) in
          let fast = Multi_sig.verify ~known ~checked pub ~signature (stmt msgs.(m)) in
          if plain <> fast then
            Alcotest.failf "case %d: %d parts, %d known: plain %b, with known %b" case
              (List.length parts) (List.length known_list) plain fast;
          List.iter
            (fun (s : Multi_sig.share) ->
              let plain = Multi_sig.verify_share pub (stmt msgs.(m)) s in
              let fast =
                Multi_sig.verify_share ~known ~checked pub (stmt msgs.(m)) s
              in
              if plain <> fast then
                Alcotest.failf "case %d: share from %d: plain %b, with known %b"
                  case s.Multi_sig.origin plain fast;
              if known s then incr skipped)
            parts;
          if plain then incr accepted
        done;
        (* Both verdicts and the skip path must have been exercised. *)
        if !accepted = 0 || !accepted = 400 || !skipped = 0 then
          Alcotest.failf "degenerate sweep: %d accepted, %d known parts" !accepted
            !skipped);

    Alcotest.test_case
      "coin: finish on a drawn nonce = the eager release from the same DRBG \
       state, and the DRBG ends where the release leaves it"
      `Quick (fun () ->
        let keys = Lazy.force coin_keys in
        let pub = keys.Threshold_coin.public in
        let same (a : Threshold_coin.share) (b : Threshold_coin.share) =
          a.Threshold_coin.origin = b.Threshold_coin.origin
          && Bignum.Nat.equal a.Threshold_coin.value b.Threshold_coin.value
          && Bignum.Nat.equal a.Threshold_coin.proof.Dleq.a1 b.Threshold_coin.proof.Dleq.a1
          && Bignum.Nat.equal a.Threshold_coin.proof.Dleq.a2 b.Threshold_coin.proof.Dleq.a2
          && Bignum.Nat.equal a.Threshold_coin.proof.Dleq.response
               b.Threshold_coin.proof.Dleq.response
        in
        for i = 0 to 3 do
          for round = 1 to 5 do
            let name = Printf.sprintf "aba-coin|eq|%d" round in
            let seed = Printf.sprintf "finish-%d-%d" i round in
            let eager = Hashes.Drbg.create ~seed and lazy_ = Hashes.Drbg.create ~seed in
            let sk = keys.Threshold_coin.shares.(i) in
            let released = Threshold_coin.release ~drbg:eager pub sk ~name in
            let nonce = Threshold_coin.draw_nonce ~drbg:lazy_ pub in
            (* Draws in between must not matter to the finished share. *)
            let after = Hashes.Drbg.bytes lazy_ 16 in
            let finished = Threshold_coin.finish pub sk ~name nonce in
            if not (same released finished) then
              Alcotest.failf "party %d round %d: finish differs from release" i round;
            Alcotest.(check string) "DRBG position" (Hashes.Drbg.bytes eager 16) after;
            Alcotest.(check bool) "finished share verifies" true
              (Threshold_coin.verify_share pub ~name finished)
          done
        done;
        (* The same split one layer down: prove = prove_with a drawn nonce. *)
        let g = Lazy.force group in
        let x = Group.random_exponent g ~drbg:(Util.drbg ~seed:"dleq-x" ()) in
        let h1 = Group.pow_g g x and g2 = Group.hash_to_group g "g2" in
        let h2 = Group.pow g g2 x in
        let a = Dleq.prove g ~drbg:(Util.drbg ~seed:"dleq-n" ()) ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
        let b =
          Dleq.prove_with g ~nonce:(Dleq.draw_nonce g ~drbg:(Util.drbg ~seed:"dleq-n" ()))
            ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x
        in
        Alcotest.(check string) "same proof bytes" (Dleq.to_bytes g a) (Dleq.to_bytes g b));
  ]

let suite =
  group_tests @ fastpath_tests @ shamir_tests @ dleq_tests @ coin_tests
  @ rsa_tests @ tsig_tests @ msig_tests @ enc_tests @ prepared_tests
  @ ondemand_tests
