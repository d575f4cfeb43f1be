(* Hash, HMAC and DRBG tests against published vectors. *)

let hex = Hashes.Sha256.hex_of_digest

let check_hex name expected actual = Alcotest.(check string) name expected (hex actual)

let sha256_vectors = [
  (* FIPS 180-4 / NIST CAVS *)
  "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  String.make 1_000_000 'a',
  "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
]

let sha1_vectors = [
  "", "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  "abc", "a9993e364706816aba3e25717850c26c9cd0d89d";
  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
  "84983e441c3bd26ebaae4aa1f95129e5e54670f1";
  String.make 1_000_000 'a', "34aa973cd4c4daa4f61eeb2bdbad27316534016f";
]

let suite = [
  Alcotest.test_case "sha256 vectors" `Quick (fun () ->
    List.iter
      (fun (msg, want) ->
        check_hex (Printf.sprintf "len %d" (String.length msg)) want
          (Hashes.Sha256.digest msg))
      sha256_vectors);

  Alcotest.test_case "sha1 vectors" `Quick (fun () ->
    List.iter
      (fun (msg, want) ->
        check_hex (Printf.sprintf "len %d" (String.length msg)) want
          (Hashes.Sha1.digest msg))
      sha1_vectors);

  Alcotest.test_case "streaming with random split points = one-shot" `Quick (fun () ->
    let rb = Hashes.Drbg.random_bytes (Hashes.Drbg.create ~seed:"hash-splits") in
    let draw bound = Char.code (rb 1).[0] mod bound in
    let streamed ~init ~feed ~finish msg =
      let ctx = init () in
      let pos = ref 0 in
      while !pos < String.length msg do
        let take = min (String.length msg - !pos) (draw 150) in
        feed ctx (String.sub msg !pos take);
        pos := !pos + take
      done;
      finish ctx
    in
    for len = 0 to 700 do
      let msg = rb len in
      Alcotest.(check string) (Printf.sprintf "sha256, %d bytes" len)
        (hex (Hashes.Sha256.digest msg))
        (hex (streamed ~init:Hashes.Sha256.init ~feed:Hashes.Sha256.feed_string
                ~finish:Hashes.Sha256.finish msg));
      Alcotest.(check string) (Printf.sprintf "sha1, %d bytes" len)
        (hex (Hashes.Sha1.digest msg))
        (hex (streamed ~init:Hashes.Sha1.init ~feed:Hashes.Sha1.feed_string
                ~finish:Hashes.Sha1.finish msg))
    done);

  Alcotest.test_case "digests of lengths 0-700 are pinned" `Quick (fun () ->
    (* The SHA-256 of the concatenated digests of 701 messages, one per
       length, recorded from the original word-at-a-time compress
       functions: any change to a digest changes it. *)
    let msg len = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xff)) in
    let all f = String.concat "" (List.init 701 (fun len -> f (msg len))) in
    check_hex "sha256" "1e2f861abf006cb527aada7fec4f3a960457430f482332c4205b0fa8670494bc"
      (Hashes.Sha256.digest (all Hashes.Sha256.digest));
    check_hex "sha1" "ea7aedc2d44cfc67a6bec2b26dc3250ad3af38898b188b8969e7f01ea770f04f"
      (Hashes.Sha256.digest (all Hashes.Sha1.digest)));

  Alcotest.test_case "sha256 incremental = one-shot" `Quick (fun () ->
    let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
    (* feed in awkward chunk sizes crossing block boundaries *)
    List.iter
      (fun chunk ->
        let ctx = Hashes.Sha256.init () in
        let pos = ref 0 in
        while !pos < String.length msg do
          let take = min chunk (String.length msg - !pos) in
          Hashes.Sha256.feed_string ctx (String.sub msg !pos take);
          pos := !pos + take
        done;
        Alcotest.(check string) (Printf.sprintf "chunk %d" chunk)
          (hex (Hashes.Sha256.digest msg)) (hex (Hashes.Sha256.finish ctx)))
      [ 1; 3; 63; 64; 65; 127; 999 ]);

  Alcotest.test_case "sha256 padding boundary lengths" `Quick (fun () ->
    (* lengths around the 55/56-byte padding edge must not collide *)
    let digests =
      List.init 130 (fun i -> hex (Hashes.Sha256.digest (String.make i 'x')))
    in
    let distinct = List.sort_uniq compare digests in
    Alcotest.(check int) "all distinct" 130 (List.length distinct));

  Alcotest.test_case "digest_list equals concatenation" `Quick (fun () ->
    Alcotest.(check string) "equal"
      (hex (Hashes.Sha256.digest "foobarbaz"))
      (hex (Hashes.Sha256.digest_list [ "foo"; "bar"; "baz" ])));

  Alcotest.test_case "hmac-sha256 rfc4231" `Quick (fun () ->
    (* RFC 4231 test case 1 *)
    let key = String.make 20 '\x0b' in
    check_hex "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key "Hi There");
    (* RFC 4231 test case 2 *)
    check_hex "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:"Jefe"
         "what do ya want for nothing?");
    (* long key (> block size) forces the key-hash path *)
    let longkey = String.make 131 '\xaa' in
    check_hex "tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:longkey
         "Test Using Larger Than Block-Size Key - Hash Key First"));

  Alcotest.test_case "hmac-sha1 rfc2202" `Quick (fun () ->
    let key = String.make 20 '\x0b' in
    check_hex "tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA1 ~key "Hi There"));

  Alcotest.test_case "hmac verify accepts/rejects" `Quick (fun () ->
    let tag = Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:"k" "msg" in
    Alcotest.(check bool) "good" true
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k" ~tag "msg");
    Alcotest.(check bool) "bad msg" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k" ~tag "msg2");
    Alcotest.(check bool) "bad key" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k2" ~tag "msg");
    Alcotest.(check bool) "truncated tag" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k"
         ~tag:(String.sub tag 0 10) "msg"));

  Alcotest.test_case "drbg determinism" `Quick (fun () ->
    let a = Hashes.Drbg.create ~seed:"s" in
    let b = Hashes.Drbg.create ~seed:"s" in
    Alcotest.(check string) "same stream" (Hashes.Drbg.bytes a 100) (Hashes.Drbg.bytes b 100);
    let c = Hashes.Drbg.create ~seed:"s'" in
    Alcotest.(check bool) "different seed differs" true
      (Hashes.Drbg.bytes c 100 <> Hashes.Drbg.bytes (Hashes.Drbg.create ~seed:"s") 100));

  Alcotest.test_case "drbg chunking irrelevant" `Quick (fun () ->
    let a = Hashes.Drbg.create ~seed:"s" in
    let b = Hashes.Drbg.create ~seed:"s" in
    let one = Hashes.Drbg.bytes a 64 in
    let parts = String.concat "" (List.init 64 (fun _ -> Hashes.Drbg.bytes b 1)) in
    Alcotest.(check string) "equal" one parts);

  Alcotest.test_case "drbg int bounds" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"ints" in
    for _ = 1 to 1000 do
      let v = Hashes.Drbg.int d 7 in
      if v < 0 || v >= 7 then Alcotest.fail "out of range"
    done;
    Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.int: non-positive bound")
      (fun () -> ignore (Hashes.Drbg.int d 0)));

  Alcotest.test_case "drbg int covers range" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"cover" in
    let seen = Array.make 10 false in
    for _ = 1 to 500 do seen.(Hashes.Drbg.int d 10) <- true done;
    Alcotest.(check bool) "all hit" true (Array.for_all (fun x -> x) seen));

  Alcotest.test_case "drbg fork independence" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"s" in
    let f1 = Hashes.Drbg.fork d "a" in
    let f2 = Hashes.Drbg.fork d "b" in
    Alcotest.(check bool) "forks differ" true
      (Hashes.Drbg.bytes f1 32 <> Hashes.Drbg.bytes f2 32));

  Alcotest.test_case "drbg reseed changes stream" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"s" in
    let before = Hashes.Drbg.bytes d 32 in
    Hashes.Drbg.reseed d "extra";
    Alcotest.(check bool) "differs" true (before <> Hashes.Drbg.bytes d 32));

  Alcotest.test_case "drbg float in bounds" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"floats" in
    for _ = 1 to 100 do
      let v = Hashes.Drbg.float d 2.5 in
      if v < 0.0 || v >= 2.5 then Alcotest.fail "out of range"
    done);
]
