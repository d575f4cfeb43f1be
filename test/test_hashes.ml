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

(* RFC 2104 written out directly — pads built per call, the message
   concatenated onto the inner pad — as the reference the prepared-key
   implementation must match bit for bit. *)
let reference_hmac ~(algo : Hashes.Hmac.algo) ~(key : string) (msg : string) : string =
  let hash =
    match algo with
    | Hashes.Hmac.SHA1 -> Hashes.Sha1.digest
    | Hashes.Hmac.SHA256 -> Hashes.Sha256.digest
  in
  let key = if String.length key > 64 then hash key else key in
  let pad c =
    String.init 64 (fun i ->
      let k = if i < String.length key then Char.code key.[i] else 0 in
      Char.chr (k lxor c))
  in
  hash (pad 0x5c ^ hash (pad 0x36 ^ msg))

let both_algos = [ ("sha1", Hashes.Hmac.SHA1); ("sha256", Hashes.Hmac.SHA256) ]

(* Reference hashes: the word-at-a-time loop compress functions the
   library first shipped, over a message padded up front.  The production
   kernels must match them byte for byte. *)
module Reference = struct
  let mask = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let padded msg =
    let len = String.length msg in
    let pad = (55 - len) land 63 in
    let b = Bytes.make (len + 1 + pad + 8) '\000' in
    Bytes.blit_string msg 0 b 0 len;
    Bytes.set b len '\x80';
    Bytes.set_int64_be b (len + 1 + pad) (Int64.of_int (len * 8));
    b

  let word b off = Int32.to_int (Bytes.get_int32_be b off) land mask

  let output h =
    let out = Bytes.create (4 * Array.length h) in
    Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
    Bytes.to_string out

  let sha1 msg =
    let h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |] in
    let b = padded msg in
    let w = Array.make 80 0 in
    for blk = 0 to (Bytes.length b / 64) - 1 do
      for i = 0 to 15 do w.(i) <- word b ((64 * blk) + (4 * i)) done;
      for i = 16 to 79 do
        w.(i) <- rotl (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
      done;
      let a = ref h.(0) and bb = ref h.(1) and c = ref h.(2) and d = ref h.(3)
      and e = ref h.(4) in
      for i = 0 to 79 do
        let f, k =
          if i < 20 then (!bb land !c) lor (lnot !bb land !d), 0x5A827999
          else if i < 40 then !bb lxor !c lxor !d, 0x6ED9EBA1
          else if i < 60 then
            (!bb land !c) lor (!bb land !d) lor (!c land !d), 0x8F1BBCDC
          else !bb lxor !c lxor !d, 0xCA62C1D6
        in
        let tmp = (rotl !a 5 + f + !e + k + w.(i)) land mask in
        e := !d; d := !c; c := rotl !bb 30; bb := !a; a := tmp
      done;
      List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask) [ !a; !bb; !c; !d; !e ]
    done;
    output h

  let k256 = [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  let sha256 msg =
    let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
               0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |] in
    let b = padded msg in
    let w = Array.make 64 0 in
    for blk = 0 to (Bytes.length b / 64) - 1 do
      for i = 0 to 15 do w.(i) <- word b ((64 * blk) + (4 * i)) done;
      for i = 16 to 63 do
        let x = w.(i - 15) and y = w.(i - 2) in
        let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
        let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
        w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
      done;
      let v = Array.copy h in
      for i = 0 to 63 do
        let a = v.(0) and e = v.(4) in
        let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
        let ch = (e land v.(5)) lxor (lnot e land v.(6)) in
        let t1 = v.(7) + s1 + ch + k256.(i) + w.(i) in
        let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
        let maj = (a land v.(1)) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
        Array.blit v 0 v 1 7;
        v.(4) <- (v.(4) + t1) land mask;
        v.(0) <- (t1 + s0 + maj) land mask
      done;
      Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) v
    done;
    output h
end

(* (key, message, tag): RFC 2202 test cases 1-7 for HMAC-SHA1 and RFC 4231
   test cases 1-4, 6 and 7 for HMAC-SHA256.  The last two of each list use
   a key longer than the block, which is hashed first. *)
let hmac_sha1_vectors = [
  (String.make 20 '\x0b', "Hi There", "b617318655057264e28bc0b6fb378c8ef146be00");
  ("Jefe", "what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  (String.make 20 '\xaa', String.make 50 '\xdd', "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  ( String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
    "4c9007f4026250c6bc8414f9bf50c86c2d7235da" );
  (String.make 20 '\x0c', "Test With Truncation", "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
  ( String.make 80 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
    "aa4ae5e15272d00e95705637ce8a3b55ed402112" );
  ( String.make 80 '\xaa',
    "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
    "e8e99d0f45237d786d6bbaa7965c7808bbff1a91" );
]

let hmac_sha256_vectors = [
  ( String.make 20 '\x0b', "Hi There",
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
  ( "Jefe", "what do ya want for nothing?",
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
  ( String.make 20 '\xaa', String.make 50 '\xdd',
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
  ( String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
  ( String.make 131 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
  ( String.make 131 '\xaa',
    "This is a test using a larger than block-size key and a larger than \
     block-size data. The key needs to be hashed before being used by the \
     HMAC algorithm.",
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
]

(* Each vector through the reference, the prepared key and [mac]. *)
let check_hmac_vectors algo vectors =
  List.iteri
    (fun i (key, msg, want) ->
      let label = Printf.sprintf "tc%d" (i + 1) in
      check_hex (label ^ " reference") want (reference_hmac ~algo ~key msg);
      check_hex (label ^ " prepared key") want
        (Hashes.Hmac.tag (Hashes.Hmac.key ~algo key) [ msg ]);
      check_hex (label ^ " mac") want (Hashes.Hmac.mac ~algo ~key msg))
    vectors

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
    check_hmac_vectors Hashes.Hmac.SHA256 hmac_sha256_vectors);

  Alcotest.test_case "hmac-sha1 rfc2202" `Quick (fun () ->
    check_hmac_vectors Hashes.Hmac.SHA1 hmac_sha1_vectors);

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
         ~tag:(String.sub tag 0 10) "msg");
    (* The prepared key checks a message given in parts. *)
    let k = Hashes.Hmac.key ~algo:Hashes.Hmac.SHA256 "k" in
    Alcotest.(check bool) "parts good" true (Hashes.Hmac.check k ~tag [ "m"; "sg" ]);
    let flipped = Bytes.of_string tag in
    Bytes.set flipped 5 (Char.chr (Char.code tag.[5] lxor 0x40));
    Alcotest.(check bool) "flipped tag byte" false
      (Hashes.Hmac.check k ~tag:(Bytes.to_string flipped) [ "m"; "sg" ]);
    Alcotest.(check bool) "parts bad msg" false (Hashes.Hmac.check k ~tag [ "m"; "sh" ]));

  Alcotest.test_case "hmac prepared key = RFC 2104 on random keys of every size class"
    `Quick (fun () ->
      let d = Hashes.Drbg.create ~seed:"hmac-keys" in
      List.iter
        (fun (name, algo) ->
          List.iter
            (fun key_len ->
              for _ = 1 to 8 do
                let key = Hashes.Drbg.bytes d key_len in
                let msg = Hashes.Drbg.bytes d (Hashes.Drbg.int d 300) in
                let want = reference_hmac ~algo ~key msg in
                let label = Printf.sprintf "%s key %d msg %d" name key_len (String.length msg) in
                Alcotest.(check string) label (hex want)
                  (hex (Hashes.Hmac.tag (Hashes.Hmac.key ~algo key) [ msg ]));
                Alcotest.(check bool) (label ^ " check") true
                  (Hashes.Hmac.check (Hashes.Hmac.key ~algo key) ~tag:want [ msg ])
              done)
            [ 0; 1; 16; 20; 63; 64; 65; 100; 200 ])
        both_algos);

  Alcotest.test_case "sha1 padding boundary lengths" `Quick (fun () ->
    (* one and two padding blocks on either side of the 55/56 and 63/64
       edges, against the reference *)
    List.iter
      (fun len ->
        let msg = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
        Alcotest.(check string) (Printf.sprintf "len %d" len)
          (hex (Reference.sha1 msg)) (hex (Hashes.Sha1.digest msg)))
      [ 55; 56; 63; 64; 119; 120; 127; 128 ];
    let digests = List.init 130 (fun i -> hex (Hashes.Sha1.digest (String.make i 'x'))) in
    Alcotest.(check int) "all distinct" 130 (List.length (List.sort_uniq compare digests)));

  Alcotest.test_case "digests = the loop-compress reference, 2000 random messages"
    `Quick (fun () ->
      let d = Hashes.Drbg.create ~seed:"hash-reference" in
      for i = 1 to 2000 do
        let msg = Hashes.Drbg.bytes d (Hashes.Drbg.int d 1001) in
        let label = Printf.sprintf "#%d, %d bytes" i (String.length msg) in
        Alcotest.(check string) ("sha1 " ^ label) (hex (Reference.sha1 msg))
          (hex (Hashes.Sha1.digest msg));
        Alcotest.(check string) ("sha256 " ^ label) (hex (Reference.sha256 msg))
          (hex (Hashes.Sha256.digest msg))
      done);

  Alcotest.test_case "copies and midstates taken mid-stream stay independent" `Quick
    (fun () ->
      let d = Hashes.Drbg.create ~seed:"hash-copies" in
      (* [msg] cut at [cuts] sorted random points into consecutive pieces *)
      let pieces msg cuts =
        let pts = List.sort compare (List.init cuts (fun _ ->
          Hashes.Drbg.int d (String.length msg + 1))) in
        let rec go from = function
          | [] -> [ String.sub msg from (String.length msg - from) ]
          | p :: rest -> String.sub msg from (p - from) :: go p rest
        in
        go 0 pts
      in
      for i = 1 to 300 do
        let prefix = Hashes.Drbg.bytes d (Hashes.Drbg.int d 300) in
        let s1 = Hashes.Drbg.bytes d (Hashes.Drbg.int d 200) in
        let s2 = Hashes.Drbg.bytes d (Hashes.Drbg.int d 200) in
        let label = Printf.sprintf "#%d prefix %d" i (String.length prefix) in
        let feed_all feed ctx parts = List.iter (feed ctx) parts in
        (* SHA-1: the original and its copy each take their own suffix,
           fed interleaved *)
        let a = Hashes.Sha1.init () in
        feed_all Hashes.Sha1.feed_string a (pieces prefix 3);
        let b = Hashes.Sha1.copy a in
        List.iter2
          (fun pa pb -> Hashes.Sha1.feed_string a pa; Hashes.Sha1.feed_string b pb)
          (pieces s1 2) (pieces s2 2);
        Alcotest.(check string) ("sha1 copy " ^ label) (hex (Reference.sha1 (prefix ^ s2)))
          (hex (Hashes.Sha1.finish b));
        Alcotest.(check string) ("sha1 original " ^ label)
          (hex (Reference.sha1 (prefix ^ s1))) (hex (Hashes.Sha1.finish a));
        (* SHA-256, the same through copy *)
        let a = Hashes.Sha256.init () in
        feed_all Hashes.Sha256.feed_string a (pieces prefix 3);
        let b = Hashes.Sha256.copy a in
        List.iter2
          (fun pa pb -> Hashes.Sha256.feed_string a pa; Hashes.Sha256.feed_string b pb)
          (pieces s1 2) (pieces s2 2);
        Alcotest.(check string) ("sha256 copy " ^ label)
          (hex (Reference.sha256 (prefix ^ s2))) (hex (Hashes.Sha256.finish b));
        Alcotest.(check string) ("sha256 original " ^ label)
          (hex (Reference.sha256 (prefix ^ s1))) (hex (Hashes.Sha256.finish a));
        (* and through a midstate, resumed twice in either order *)
        let m = Hashes.Sha256.midstate (pieces prefix 3) in
        let want1 = hex (Reference.sha256 (prefix ^ s1)) in
        let want2 = hex (Reference.sha256 (prefix ^ s2)) in
        Alcotest.(check string) ("midstate s1 " ^ label) want1
          (hex (Hashes.Sha256.digest_from m (pieces s1 2)));
        Alcotest.(check string) ("midstate s2 " ^ label) want2
          (hex (Hashes.Sha256.digest_from m (pieces s2 2)));
        Alcotest.(check string) ("midstate s1 again " ^ label) want1
          (hex (Hashes.Sha256.digest_from m [ s1 ]));
        Alcotest.(check int) ("midstate length " ^ label) (String.length prefix)
          (Hashes.Sha256.midstate_length m)
      done);

  Alcotest.test_case "hmac tag of [header; payload] = mac of the concatenation" `Quick
    (fun () ->
      let d = Hashes.Drbg.create ~seed:"hmac-frames" in
      List.iter
        (fun (name, algo) ->
          let raw = Hashes.Drbg.bytes d 16 in
          let k = Hashes.Hmac.key ~algo raw in
          for len = 0 to 300 do
            let hdr = Printf.sprintf "%d>%d|" (len mod 4) ((len + 1) mod 4) in
            let payload = Hashes.Drbg.bytes d len in
            let want = Hashes.Hmac.mac ~algo ~key:raw (hdr ^ payload) in
            let label = Printf.sprintf "%s payload %d" name len in
            Alcotest.(check string) label (hex want)
              (hex (Hashes.Hmac.tag k [ hdr; payload ]));
            Alcotest.(check string) (label ^ " reference")
              (hex (reference_hmac ~algo ~key:raw (hdr ^ payload))) (hex want)
          done)
        both_algos);

  Alcotest.test_case "hmac tag is independent of how the message is split" `Quick
    (fun () ->
      let msg = String.init 150 (fun i -> Char.chr ((i * 37) land 0xff)) in
      List.iter
        (fun (name, algo) ->
          let k = Hashes.Hmac.key ~algo "split-key" in
          let whole = Hashes.Hmac.tag k [ msg ] in
          Alcotest.(check string) (name ^ " no parts = empty message")
            (hex (Hashes.Hmac.mac ~algo ~key:"split-key" ""))
            (hex (Hashes.Hmac.tag k []));
          for i = 0 to String.length msg do
            let a = String.sub msg 0 i and b = String.sub msg i (String.length msg - i) in
            Alcotest.(check string) (Printf.sprintf "%s split at %d" name i) (hex whole)
              (hex (Hashes.Hmac.tag k [ a; b ]));
            (* Three parts, one empty, and the key reused across calls. *)
            Alcotest.(check string) (Printf.sprintf "%s split at %d with empty" name i)
              (hex whole) (hex (Hashes.Hmac.tag k [ a; ""; b ]))
          done)
        both_algos);

  Alcotest.test_case "sha copy is an independent context" `Quick (fun () ->
    let prefix = String.make 70 'p' in
    (* SHA-1 *)
    let a = Hashes.Sha1.init () in
    Hashes.Sha1.feed_string a prefix;
    let b = Hashes.Sha1.copy a in
    Hashes.Sha1.feed_string b "copy-only suffix";
    Alcotest.(check string) "sha1 copy" (hex (Hashes.Sha1.digest (prefix ^ "copy-only suffix")))
      (hex (Hashes.Sha1.finish b));
    Hashes.Sha1.feed_string a "x";
    Alcotest.(check string) "sha1 original" (hex (Hashes.Sha1.digest (prefix ^ "x")))
      (hex (Hashes.Sha1.finish a));
    (* SHA-256 *)
    let a = Hashes.Sha256.init () in
    Hashes.Sha256.feed_string a prefix;
    let b = Hashes.Sha256.copy a in
    Hashes.Sha256.feed_string b "copy-only suffix";
    Alcotest.(check string) "sha256 copy" (hex (Hashes.Sha256.digest (prefix ^ "copy-only suffix")))
      (hex (Hashes.Sha256.finish b));
    Hashes.Sha256.feed_string a "x";
    Alcotest.(check string) "sha256 original" (hex (Hashes.Sha256.digest (prefix ^ "x")))
      (hex (Hashes.Sha256.finish a)));

  Alcotest.test_case "sha256 midstate digests = digest_list, prefixes 0-200" `Quick
    (fun () ->
      let src = String.init 400 (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
      for len = 0 to 200 do
        let prefix = String.sub src 0 len in
        (* the prefix absorbed whole and split across parts *)
        let whole = Hashes.Sha256.midstate [ prefix ] in
        let split =
          Hashes.Sha256.midstate [ String.sub prefix 0 (len / 3); ""; String.sub prefix (len / 3) (len - (len / 3)) ]
        in
        Alcotest.(check int) "absorbed length" len (Hashes.Sha256.midstate_length whole);
        List.iter
          (fun parts ->
            let want = hex (Hashes.Sha256.digest_list (prefix :: parts)) in
            let name = Printf.sprintf "prefix %d, %d parts" len (List.length parts) in
            Alcotest.(check string) name want (hex (Hashes.Sha256.digest_from whole parts));
            Alcotest.(check string) (name ^ ", split") want
              (hex (Hashes.Sha256.digest_from split parts)))
          [ []; [ "" ]; [ "x" ]; [ String.sub src 200 55; String.sub src 300 9 ];
            [ String.sub src 100 64 ]; [ String.sub src 0 130 ] ]
      done);

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
