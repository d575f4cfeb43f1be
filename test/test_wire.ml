(* Wire codec tests: roundtrips and decoder robustness against adversarial
   bytes (a corrupted party controls everything it sends). *)

let roundtrip enc dec v =
  Wire.decode (Wire.encode (fun b -> enc b v)) dec

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let suite = [
  Alcotest.test_case "int roundtrip corner values" `Quick (fun () ->
    List.iter
      (fun v ->
        Alcotest.(check (option int)) (string_of_int v) (Some v)
          (roundtrip Wire.Enc.int Wire.Dec.int v))
      [ 0; 1; 127; 128; 255; 16384; 1 lsl 30; max_int ]);

  Alcotest.test_case "int_length = encoded varint length" `Quick (fun () ->
    List.iter
      (fun v ->
        Alcotest.(check int) (string_of_int v)
          (String.length (Wire.encode (fun b -> Wire.Enc.int b v)))
          (Wire.Enc.int_length v))
      [ 0; 1; 127; 128; 255; 16383; 16384; 1 lsl 20; (1 lsl 21) - 1; 1 lsl 21;
        1 lsl 35; 1 lsl 49; 1 lsl 56; 1 lsl 61; max_int ]);

  Alcotest.test_case "negative int rejected at encode" `Quick (fun () ->
    Alcotest.check_raises "negative" (Invalid_argument "Wire.Enc.int: negative")
      (fun () -> ignore (Wire.encode (fun b -> Wire.Enc.int b (-1)))));

  Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
    List.iter
      (fun s ->
        Alcotest.(check (option string)) "same" (Some s)
          (roundtrip Wire.Enc.bytes Wire.Dec.bytes s))
      [ ""; "a"; String.make 1000 '\xff'; "\x00\x01\x02" ]);

  Alcotest.test_case "bool tags strict" `Quick (fun () ->
    Alcotest.(check (option bool)) "true" (Some true) (Wire.decode "\x01" Wire.Dec.bool);
    Alcotest.(check (option bool)) "false" (Some false) (Wire.decode "\x00" Wire.Dec.bool);
    Alcotest.(check (option bool)) "2 invalid" None (Wire.decode "\x02" Wire.Dec.bool));

  Alcotest.test_case "list and option roundtrip" `Quick (fun () ->
    let enc b v = Wire.Enc.list b Wire.Enc.int v in
    let dec d = Wire.Dec.list d Wire.Dec.int in
    Alcotest.(check (option (list int))) "list" (Some [1;2;3;500]) (roundtrip enc dec [1;2;3;500]);
    Alcotest.(check (option (list int))) "empty" (Some []) (roundtrip enc dec []);
    let enc b v = Wire.Enc.option b Wire.Enc.bytes v in
    let dec d = Wire.Dec.option d Wire.Dec.bytes in
    Alcotest.(check (option (option string))) "some" (Some (Some "x")) (roundtrip enc dec (Some "x"));
    Alcotest.(check (option (option string))) "none" (Some None) (roundtrip enc dec None));

  Alcotest.test_case "trailing bytes rejected" `Quick (fun () ->
    let encoded = Wire.encode (fun b -> Wire.Enc.int b 5) ^ "junk" in
    Alcotest.(check (option int)) "strict" None (Wire.decode encoded Wire.Dec.int);
    (* decode_prefix tolerates them *)
    Alcotest.(check (option int)) "prefix" (Some 5) (Wire.decode_prefix encoded Wire.Dec.int));

  Alcotest.test_case "truncation rejected" `Quick (fun () ->
    let encoded = Wire.encode (fun b -> Wire.Enc.bytes b "hello") in
    Alcotest.(check (option string)) "cut" None
      (Wire.decode (String.sub encoded 0 (String.length encoded - 1)) Wire.Dec.bytes));

  Alcotest.test_case "u8 bounds" `Quick (fun () ->
    Alcotest.check_raises "256" (Invalid_argument "Wire.Enc.u8")
      (fun () -> ignore (Wire.encode (fun b -> Wire.Enc.u8 b 256))));

  Alcotest.test_case "overlong varint rejected" `Quick (fun () ->
    (* 10 continuation bytes exceed the 63-bit budget *)
    let s = String.make 10 '\xff' in
    Alcotest.(check (option int)) "rejected" None (Wire.decode s Wire.Dec.int));

  qtest "random bytes never crash the decoder"
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s ->
      (* Exercise all decoders; they must return None or a value, never
         raise anything but the internal Decode (caught by Wire.decode). *)
      let try_dec f = ignore (Wire.decode s f) in
      try_dec Wire.Dec.int;
      try_dec Wire.Dec.bytes;
      try_dec Wire.Dec.bool;
      try_dec (fun d -> Wire.Dec.list d Wire.Dec.bytes);
      try_dec (fun d -> Wire.Dec.option d Wire.Dec.int);
      true);

  qtest "mixed structure roundtrip"
    QCheck.(triple small_nat (list small_nat) (option string))
    (fun (a, xs, so) ->
      let enc b () =
        Wire.Enc.int b a;
        Wire.Enc.list b Wire.Enc.int xs;
        Wire.Enc.option b Wire.Enc.bytes so
      in
      let dec d =
        let a' = Wire.Dec.int d in
        let xs' = Wire.Dec.list d Wire.Dec.int in
        let so' = Wire.Dec.option d Wire.Dec.bytes in
        (a', xs', so')
      in
      Wire.decode (Wire.encode (fun b -> enc b ())) dec = Some (a, xs, so));
]
