(* Unit and property tests for the bignum substrate. *)

open Bignum

let nat = Alcotest.testable Nat.pp Nat.equal
let bigint = Alcotest.testable Bigint.pp Bigint.equal

(* Generator for naturals up to ~512 bits, with small values well covered. *)
let gen_nat : Nat.t QCheck.arbitrary =
  let gen =
    QCheck.Gen.(
      oneof [
        map Nat.of_int (int_bound 1000);
        map
          (fun (bits, seed) ->
            let drbg = Hashes.Drbg.create ~seed:(string_of_int seed) in
            Nat.random_bits ~random_bytes:(Hashes.Drbg.random_bytes drbg) (1 + bits))
          (pair (int_bound 511) int);
      ])
  in
  QCheck.make ~print:Nat.to_string gen

let gen_pos_nat : Nat.t QCheck.arbitrary =
  QCheck.map ~rev:(fun n -> n) (fun n -> Nat.add n Nat.one) gen_nat

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* The quadratic byte codecs the linear ones replaced (a shift and add
   per 3 bytes in, a division per byte out), kept as the reference the
   codec property test compares against. *)
let ref_of_bytes_be (s : string) : Nat.t =
  let n = String.length s in
  let r = ref Nat.zero and i = ref 0 in
  while !i < n do
    let take = min 3 (n - !i) in
    let v = ref 0 in
    for j = 0 to take - 1 do v := (!v lsl 8) lor Char.code s.[!i + j] done;
    r := Nat.add (Nat.shift_left !r (8 * take)) (Nat.of_int !v);
    i := !i + take
  done;
  !r

let ref_to_bytes_be ?len (a : Nat.t) : string =
  let nbytes = max 1 ((Nat.numbits a + 7) / 8) in
  let out_len = match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  let rec go a pos =
    if not (Nat.is_zero a) then begin
      let low = Option.get (Nat.to_int_opt (Nat.rem a (Nat.of_int 256))) in
      Bytes.set b pos (Char.chr low);
      go (Nat.shift_right a 8) (pos - 1)
    end
  in
  go a (out_len - 1);
  Bytes.to_string b

(* A random odd modulus of exactly [bits] bits (bits >= 2). *)
let odd_modulus ~rb bits =
  let m = Nat.add (Nat.shift_left Nat.one (bits - 1)) (Nat.random_bits ~random_bytes:rb (bits - 1)) in
  if Nat.testbit m 0 then m else Nat.add m Nat.one

let unit_tests = [
  Alcotest.test_case "zero and one" `Quick (fun () ->
    Alcotest.check nat "0" Nat.zero (Nat.of_int 0);
    Alcotest.check nat "1" Nat.one (Nat.of_int 1);
    Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
    Alcotest.(check bool) "one not zero" false (Nat.is_zero Nat.one));

  Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
    List.iter
      (fun x ->
        Alcotest.(check (option int)) (string_of_int x) (Some x)
          (Nat.to_int_opt (Nat.of_int x)))
      [ 0; 1; 2; 12345; max_int / 4; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 62) - 1; max_int ]);

  Alcotest.test_case "of_int rejects negatives" `Quick (fun () ->
    Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
      (fun () -> ignore (Nat.of_int (-1))));

  Alcotest.test_case "known product" `Quick (fun () ->
    let a = Nat.of_string "123456789012345678901234567890123456789" in
    let b = Nat.of_string "987654321098765432109876543210" in
    Alcotest.check nat "product"
      (Nat.of_string "121932631137021795226185032733744855963362292333223746380111126352690")
      (Nat.mul a b));

  Alcotest.test_case "known powmod" `Quick (fun () ->
    (* cross-checked against an independent implementation *)
    let m = Nat.of_string "1000000000000000000000000000057" in
    let e = Nat.of_string "100000000000000000007" in
    Alcotest.check nat "3^e mod m"
      (Nat.of_string "833722544651502183370455795997")
      (Nat.powmod (Nat.of_int 3) e m));

  Alcotest.test_case "sub underflow raises" `Quick (fun () ->
    Alcotest.check_raises "underflow" (Invalid_argument "Nat.sub: underflow")
      (fun () -> ignore (Nat.sub Nat.one Nat.two)));

  Alcotest.test_case "division by zero raises" `Quick (fun () ->
    Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero)));

  Alcotest.test_case "decimal corner cases" `Quick (fun () ->
    Alcotest.(check string) "zero" "0" (Nat.to_string Nat.zero);
    Alcotest.(check string) "chunk boundary" "1000000000"
      (Nat.to_string (Nat.of_string "1000000000"));
    Alcotest.(check string) "interior zeros" "1000000000000000001"
      (Nat.to_string (Nat.of_string "1000000000000000001")));

  Alcotest.test_case "hex corner cases" `Quick (fun () ->
    Alcotest.(check string) "zero" "0" (Nat.to_hex Nat.zero);
    Alcotest.check nat "upper/lower" (Nat.of_hex "DEADBEEF") (Nat.of_hex "deadbeef");
    Alcotest.check nat "value" (Nat.of_int 0xdeadbeef) (Nat.of_hex "deadbeef"));

  Alcotest.test_case "to_bytes_be padding" `Quick (fun () ->
    Alcotest.(check string) "padded" "\x00\x00\x01\x02"
      (Nat.to_bytes_be ~len:4 (Nat.of_int 0x0102));
    Alcotest.check_raises "too small"
      (Invalid_argument "Nat.to_bytes_be: value too large for len") (fun () ->
        ignore (Nat.to_bytes_be ~len:1 (Nat.of_int 0x0102))));

  Alcotest.test_case "numbits / testbit" `Quick (fun () ->
    Alcotest.(check int) "0 bits" 0 (Nat.numbits Nat.zero);
    Alcotest.(check int) "1" 1 (Nat.numbits Nat.one);
    Alcotest.(check int) "255" 8 (Nat.numbits (Nat.of_int 255));
    Alcotest.(check int) "256" 9 (Nat.numbits (Nat.of_int 256));
    let v = Nat.shift_left Nat.one 100 in
    Alcotest.(check int) "2^100" 101 (Nat.numbits v);
    Alcotest.(check bool) "bit 100" true (Nat.testbit v 100);
    Alcotest.(check bool) "bit 99" false (Nat.testbit v 99));

  Alcotest.test_case "bigint signs" `Quick (fun () ->
    let a = Bigint.of_int (-7) and b = Bigint.of_int 3 in
    Alcotest.check bigint "add" (Bigint.of_int (-4)) (Bigint.add a b);
    Alcotest.check bigint "mul" (Bigint.of_int (-21)) (Bigint.mul a b);
    Alcotest.check bigint "erem" (Bigint.of_int 2) (Bigint.erem a b);
    Alcotest.(check string) "to_string" "-7" (Bigint.to_string a);
    Alcotest.check bigint "of_string" a (Bigint.of_string "-7"));

  Alcotest.test_case "invmod" `Quick (fun () ->
    let m = Bigint.of_int 97 in
    let inv = Bigint.invmod (Bigint.of_int 35) m in
    Alcotest.check bigint "35 * inv = 1" Bigint.one
      (Bigint.erem (Bigint.mul (Bigint.of_int 35) inv) m);
    Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (Bigint.invmod (Bigint.of_int 6) (Bigint.of_int 9))));

  Alcotest.test_case "jacobi known values" `Quick (fun () ->
    (* (1001/9907) = -1 is the worked example in HAC *)
    Alcotest.(check int) "HAC example" (-1)
      (Bigint.jacobi (Bigint.of_int 1001) (Bigint.of_int 9907));
    Alcotest.(check int) "square" 1
      (Bigint.jacobi (Bigint.of_int 4) (Bigint.of_int 7));
    Alcotest.(check int) "divides" 0
      (Bigint.jacobi (Bigint.of_int 21) (Bigint.of_int 7)));

  Alcotest.test_case "primality of known values" `Quick (fun () ->
    let rb = Util.random_bytes () in
    let prime s = Prime.is_probable_prime ~random_bytes:rb (Nat.of_string s) in
    Alcotest.(check bool) "2" true (prime "2");
    Alcotest.(check bool) "3" true (prime "3");
    Alcotest.(check bool) "4" false (prime "4");
    Alcotest.(check bool) "1" false (prime "1");
    Alcotest.(check bool) "2^31-1" true (prime "2147483647");
    Alcotest.(check bool) "carmichael 561" false (prime "561");
    Alcotest.(check bool) "carmichael 41041" false (prime "41041");
    Alcotest.(check bool) "10^18+9" true (prime "1000000000000000009");
    Alcotest.(check bool) "10^18+11" false (prime "1000000000000000011"));

  Alcotest.test_case "prime generation" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"gen-prime" () in
    let p = Prime.gen_prime ~random_bytes:rb 128 in
    Alcotest.(check int) "exact size" 128 (Nat.numbits p);
    Alcotest.(check bool) "prime" true (Prime.is_probable_prime ~random_bytes:rb p));

  Alcotest.test_case "safe prime generation" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"gen-safe" () in
    let p = Prime.gen_safe_prime ~random_bytes:rb 96 in
    let q = Nat.shift_right (Nat.sub p Nat.one) 1 in
    Alcotest.(check bool) "p prime" true (Prime.is_probable_prime ~random_bytes:rb p);
    Alcotest.(check bool) "(p-1)/2 prime" true (Prime.is_probable_prime ~random_bytes:rb q));

  Alcotest.test_case "schnorr group generation" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"gen-schnorr" () in
    let p, q, g = Prime.gen_schnorr_group ~random_bytes:rb ~pbits:256 ~qbits:80 () in
    Alcotest.(check int) "p size" 256 (Nat.numbits p);
    Alcotest.(check int) "q size" 80 (Nat.numbits q);
    Alcotest.check nat "q | p-1" Nat.zero (Nat.rem (Nat.sub p Nat.one) q);
    Alcotest.check nat "g^q = 1" Nat.one (Nat.powmod g q p);
    Alcotest.(check bool) "g <> 1" false (Nat.equal g Nat.one));
]

let property_tests = [
  qtest "add commutes" (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a));

  qtest "add associates" (QCheck.triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) ->
      Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c));

  qtest "mul commutes" (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a));

  qtest "mul distributes over add" (QCheck.triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));

  qtest "sub inverts add" (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.sub (Nat.add a b) b) a);

  qtest "divmod invariant" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, b) ->
      let q, r = Nat.divmod a b in
      Nat.compare r b < 0 && Nat.equal (Nat.add (Nat.mul q b) r) a);

  qtest "shift roundtrip" (QCheck.pair gen_nat (QCheck.int_bound 200))
    (fun (a, k) -> Nat.equal (Nat.shift_right (Nat.shift_left a k) k) a);

  qtest "shift_left is mul by 2^k" (QCheck.pair gen_nat (QCheck.int_bound 100))
    (fun (a, k) ->
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.shift_left Nat.one k)));

  qtest "square consistent with mul" gen_nat
    (fun a -> Nat.equal (Nat.sqr a) (Nat.mul a a));

  qtest "karatsuba agrees with wide operands" (QCheck.pair (QCheck.int_bound 10000) (QCheck.int_bound 10000))
    (fun (x, y) ->
      (* Build ~1200-bit operands so the Karatsuba path runs. *)
      let big v = Nat.add (Nat.shift_left (Nat.of_int (v + 1)) 1200) (Nat.of_int v) in
      let a = big x and b = big y in
      let q, r = Nat.divmod (Nat.mul a b) b in
      Nat.equal q a && Nat.is_zero r);

  qtest "bytes roundtrip" gen_nat
    (fun a -> Nat.equal (Nat.of_bytes_be (Nat.to_bytes_be a)) a);

  Alcotest.test_case "byte codecs agree with the quadratic reference" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"byte-codecs" () in
    for len = 0 to 300 do
      (* Lengths 0-300, each with 0-3 leading zero bytes. *)
      let zeros = len mod 4 in
      let s = String.make (min zeros len) '\000' ^ rb (len - min zeros len) in
      let v = Nat.of_bytes_be s in
      Alcotest.check nat (Printf.sprintf "of_bytes_be, %d bytes" len) (ref_of_bytes_be s) v;
      Alcotest.(check string) (Printf.sprintf "to_bytes_be, %d bytes" len)
        (ref_to_bytes_be v) (Nat.to_bytes_be v);
      let nbytes = String.length (Nat.to_bytes_be v) in
      List.iter
        (fun pad ->
          Alcotest.(check string) (Printf.sprintf "~len:%d" (nbytes + pad))
            (ref_to_bytes_be ~len:(nbytes + pad) v) (Nat.to_bytes_be ~len:(nbytes + pad) v))
        [ 0; 1; 7 ];
      if len > 0 then
        Alcotest.(check string) "padded back to the input" s (Nat.to_bytes_be ~len v);
      Alcotest.check_raises (Printf.sprintf "~len:%d too small" (nbytes - 1))
        (Invalid_argument "Nat.to_bytes_be: value too large for len") (fun () ->
          ignore (Nat.to_bytes_be ~len:(nbytes - 1) v))
    done);

  qtest "hex roundtrip" gen_nat
    (fun a -> Nat.equal (Nat.of_hex (Nat.to_hex a)) a);

  qtest "decimal roundtrip" gen_nat
    (fun a -> Nat.equal (Nat.of_string (Nat.to_string a)) a);

  qtest ~count:200 "barrett reduce agrees with rem" (QCheck.pair gen_nat gen_pos_nat)
    (fun (x, m) ->
      let ctx = Nat.Barrett.create m in
      Nat.equal (Nat.Barrett.reduce ctx x) (Nat.rem x m));

  qtest ~count:100 "barrett at product range" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, m) ->
      (* the hot case: reducing a product of two residues *)
      let a = Nat.rem a m in
      let x = Nat.sqr a in
      let ctx = Nat.Barrett.create m in
      Nat.equal (Nat.Barrett.reduce ctx x) (Nat.rem x m));

  qtest ~count:50 "powmod multiplicativity" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, m) ->
      let m = Nat.add m Nat.one in  (* >= 2 *)
      let e1 = Nat.of_int 13 and e2 = Nat.of_int 29 in
      (* a^13 * a^29 = a^42 mod m *)
      Nat.equal
        (Nat.rem (Nat.mul (Nat.powmod a e1 m) (Nat.powmod a e2 m)) m)
        (Nat.powmod a (Nat.add e1 e2) m));

  qtest ~count:100 "egcd bezout identity" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, b) ->
      let a = Bigint.of_nat a and b = Bigint.of_nat b in
      let g, x, y = Bigint.egcd a b in
      Bigint.equal (Bigint.add (Bigint.mul a x) (Bigint.mul b y)) g);

  qtest ~count:100 "invmod correct when gcd 1" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, m) ->
      let m = Bigint.add (Bigint.of_nat m) Bigint.two in
      let a = Bigint.of_nat a in
      match Bigint.invmod a m with
      | inv -> Bigint.equal (Bigint.erem (Bigint.mul a inv) m) Bigint.one
      | exception Not_found ->
        not (Bigint.equal (Bigint.gcd a m) Bigint.one));

  qtest ~count:100 "erem in range and consistent" (QCheck.pair gen_nat gen_pos_nat)
    (fun (a, m) ->
      let m = Bigint.of_nat m in
      let a = Bigint.neg (Bigint.of_nat a) in   (* exercise negatives *)
      let r = Bigint.erem a m in
      (not (Bigint.is_neg r))
      && Bigint.compare r m < 0
      && Bigint.equal (Bigint.add (Bigint.mul m (Bigint.ediv a m)) r) a);

  qtest ~count:50 "random_below stays below" gen_pos_nat
    (fun bound ->
      let rb = Util.random_bytes ~seed:(Nat.to_string bound) () in
      let v = Nat.random_below ~random_bytes:rb bound in
      Nat.compare v bound < 0);

  qtest ~count:40 "jacobi multiplicative in numerator"
    (QCheck.triple (QCheck.int_bound 2000) (QCheck.int_bound 2000) (QCheck.int_bound 500))
    (fun (a, b, m) ->
      let n = Bigint.of_int ((2 * m) + 3) in  (* odd >= 3 *)
      let ja = Bigint.jacobi (Bigint.of_int a) n in
      let jb = Bigint.jacobi (Bigint.of_int b) n in
      let jab = Bigint.jacobi (Bigint.of_int (a * b)) n in
      jab = ja * jb);
]

(* Fast-path equivalence: the Montgomery, multi-exponentiation and
   fixed-base paths must agree with the plain Barrett [powmod] on every
   input shape, including the edge cases each path special-cases. *)
let fastpath_tests = [
  Alcotest.test_case "powmod edge cases (both parities)" `Quick (fun () ->
    let n = Nat.of_int in
    List.iter
      (fun m ->
        let m = n m in
        (* zero exponent *)
        Alcotest.check nat "b^0 = 1" Nat.one (Nat.powmod (n 5) Nat.zero m);
        (* one exponent *)
        Alcotest.check nat "b^1 = b mod m" (Nat.rem (n 123456789) m)
          (Nat.powmod (n 123456789) Nat.one m);
        (* base >= modulus *)
        Alcotest.check nat "base >= m"
          (Nat.powmod_barrett (n 1_000_003) (n 77) m)
          (Nat.powmod (n 1_000_003) (n 77) m);
        (* zero base *)
        Alcotest.check nat "0^e = 0" Nat.zero (Nat.powmod Nat.zero (n 9) m))
      [ 97; 98; 65537; 65536 ];
    (* modulus one collapses everything *)
    Alcotest.check nat "mod 1" Nat.zero (Nat.powmod (n 5) (n 3) Nat.one);
    Alcotest.check nat "b^0 mod 1" Nat.zero (Nat.powmod (n 5) Nat.zero Nat.one);
    Alcotest.check_raises "mod 0" Division_by_zero (fun () ->
      ignore (Nat.powmod (n 5) (n 3) Nat.zero)));

  Alcotest.test_case "even modulus takes the Barrett fallback" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"even-mod" () in
    for _ = 1 to 50 do
      let m = Nat.shift_left (Nat.add (Nat.random_bits ~random_bytes:rb 120) Nat.one) 1 in
      let b = Nat.random_bits ~random_bytes:rb 140 in
      let e = Nat.random_bits ~random_bytes:rb 90 in
      Alcotest.check nat "even m" (Nat.powmod_barrett b e m) (Nat.powmod b e m)
    done);

  Alcotest.test_case "Montgomery rejects even modulus" `Quick (fun () ->
    Alcotest.check_raises "even" (Invalid_argument "Nat.Montgomery.create: even modulus")
      (fun () -> ignore (Nat.Montgomery.create (Nat.of_int 100))));

  Alcotest.test_case "Montgomery roundtrip and products" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"mont-mul" () in
    for _ = 1 to 100 do
      let m = Nat.add (Nat.shift_left (Nat.random_bits ~random_bytes:rb 200) 1) Nat.one in
      let ctx = Nat.Montgomery.create m in
      let a = Nat.rem (Nat.random_bits ~random_bytes:rb 220) m in
      let b = Nat.rem (Nat.random_bits ~random_bytes:rb 220) m in
      let am = Nat.Montgomery.to_mont ctx a in
      Alcotest.check nat "roundtrip" a (Nat.Montgomery.of_mont ctx am);
      let bm = Nat.Montgomery.to_mont ctx b in
      Alcotest.check nat "product"
        (Nat.rem (Nat.mul a b) m)
        (Nat.Montgomery.of_mont ctx (Nat.Montgomery.mul ctx am bm));
      Alcotest.check nat "square"
        (Nat.rem (Nat.sqr a) m)
        (Nat.Montgomery.of_mont ctx (Nat.Montgomery.sqr ctx am))
    done);

  Alcotest.test_case "powmod2 edge cases" `Quick (fun () ->
    let n = Nat.of_int in
    let m = n 1009 in
    Alcotest.check nat "both exps zero" Nat.one
      (Nat.powmod2 (n 3) Nat.zero (n 4) Nat.zero m);
    Alcotest.check nat "left exp zero" (Nat.powmod (n 4) (n 9) m)
      (Nat.powmod2 (n 3) Nat.zero (n 4) (n 9) m);
    Alcotest.check nat "right exp zero" (Nat.powmod (n 3) (n 9) m)
      (Nat.powmod2 (n 3) (n 9) (n 4) Nat.zero m);
    Alcotest.check nat "mod 1" Nat.zero (Nat.powmod2 (n 3) (n 5) (n 4) (n 7) Nat.one);
    Alcotest.check_raises "mod 0" Division_by_zero (fun () ->
      ignore (Nat.powmod2 (n 3) (n 5) (n 4) (n 7) Nat.zero));
    (* bases >= modulus *)
    Alcotest.check nat "bases above m"
      (Nat.rem (Nat.mul (Nat.powmod (n 5000) (n 11) m) (Nat.powmod (n 7000) (n 13) m)) m)
      (Nat.powmod2 (n 5000) (n 11) (n 7000) (n 13) m));

  Alcotest.test_case "powmod2 with differing exponent widths" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"powmod2-widths" () in
    List.iter
      (fun (bits1, bits2) ->
        let m = Nat.add (Nat.shift_left (Nat.random_bits ~random_bytes:rb 180) 1) Nat.one in
        let b1 = Nat.random_bits ~random_bytes:rb 200 in
        let b2 = Nat.random_bits ~random_bytes:rb 200 in
        let e1 = Nat.random_bits ~random_bytes:rb bits1 in
        let e2 = Nat.random_bits ~random_bytes:rb bits2 in
        let expect =
          Nat.rem (Nat.mul (Nat.powmod_barrett b1 e1 m) (Nat.powmod_barrett b2 e2 m)) m
        in
        Alcotest.check nat
          (Printf.sprintf "%d-bit vs %d-bit exponents" bits1 bits2)
          expect (Nat.powmod2 b1 e1 b2 e2 m))
      [ (1, 300); (300, 1); (7, 160); (160, 7); (64, 65); (256, 256); (2, 2) ]);

  Alcotest.test_case "fixed-base table edge cases" `Quick (fun () ->
    let n = Nat.of_int in
    let tbl = Nat.Fixed_base.create ~base:(n 5) ~modulus:(n 1009) ~max_bits:64 in
    Alcotest.(check int) "max_bits" 64 (Nat.Fixed_base.max_bits tbl);
    Alcotest.check nat "e = 0" Nat.one (Nat.Fixed_base.pow tbl Nat.zero);
    Alcotest.check nat "e = 1" (n 5) (Nat.Fixed_base.pow tbl Nat.one);
    (* oversized exponent falls back to powmod *)
    let big_e = Nat.shift_left Nat.one 100 in
    Alcotest.check nat "oversized exponent"
      (Nat.powmod (n 5) big_e (n 1009)) (Nat.Fixed_base.pow tbl big_e);
    Alcotest.check_raises "max_bits 0"
      (Invalid_argument "Nat.Fixed_base.create: max_bits must be positive")
      (fun () -> ignore (Nat.Fixed_base.create ~base:(n 5) ~modulus:(n 7) ~max_bits:0));
    (* base >= modulus and even modulus *)
    let tbl2 = Nat.Fixed_base.create ~base:(n 5000) ~modulus:(n 1024) ~max_bits:32 in
    Alcotest.check nat "even modulus, big base"
      (Nat.powmod_barrett (n 5000) (n 123456) (n 1024))
      (Nat.Fixed_base.pow tbl2 (n 123456)));

  Alcotest.test_case "randomized cross-check: all fast paths vs plain powmod" `Quick
    (fun () ->
      (* A few hundred DRBG-seeded cases over mixed sizes and parities:
         Montgomery powmod, powmod2 and fixed-base tables must all agree
         with the Barrett reference. *)
      let rb = Util.random_bytes ~seed:"fastpath-crosscheck" () in
      let rand_int n =
        1 + (Char.code (rb 1).[0] * 256 + Char.code (rb 1).[0]) mod n
      in
      for _ = 1 to 300 do
        let m = Nat.add (Nat.random_bits ~random_bytes:rb (2 + rand_int 380)) Nat.one in
        let b1 = Nat.random_bits ~random_bytes:rb (1 + rand_int 400) in
        let b2 = Nat.random_bits ~random_bytes:rb (1 + rand_int 400) in
        let e1 = Nat.random_bits ~random_bytes:rb (rand_int 300) in
        let e2 = Nat.random_bits ~random_bytes:rb (rand_int 300) in
        Alcotest.check nat "powmod vs barrett"
          (Nat.powmod_barrett b1 e1 m) (Nat.powmod b1 e1 m);
        Alcotest.check nat "powmod2 vs product"
          (Nat.rem (Nat.mul (Nat.powmod_barrett b1 e1 m) (Nat.powmod_barrett b2 e2 m)) m)
          (Nat.powmod2 b1 e1 b2 e2 m);
        let maxb = 1 + rand_int 320 in
        let tbl = Nat.Fixed_base.create ~base:b1 ~modulus:m ~max_bits:maxb in
        let e3 = Nat.random_bits ~random_bytes:rb (rand_int (maxb + 40)) in
        Alcotest.check nat "fixed-base vs powmod"
          (Nat.powmod_barrett b1 e3 m) (Nat.Fixed_base.pow tbl e3)
      done);

  Alcotest.test_case "cross-check at 1024 and 2048 bits" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"fastpath-wide" () in
    List.iter
      (fun (bits, ebits) ->
        let m = odd_modulus ~rb bits in
        let b1 = Nat.rem (Nat.random_bits ~random_bytes:rb bits) m in
        let b2 = Nat.rem (Nat.random_bits ~random_bytes:rb bits) m in
        let e1 = Nat.random_bits ~random_bytes:rb ebits in
        let e2 = Nat.random_bits ~random_bytes:rb ebits in
        let label = Printf.sprintf "%d-bit modulus, %d-bit exponent" bits ebits in
        let p1 = Nat.powmod_barrett b1 e1 m in
        Alcotest.check nat ("powmod, " ^ label) p1 (Nat.powmod b1 e1 m);
        Alcotest.check nat ("powmod2, " ^ label)
          (Nat.rem (Nat.mul p1 (Nat.powmod_barrett b2 e2 m)) m)
          (Nat.powmod2 b1 e1 b2 e2 m))
      [ (1024, 160); (1024, 1024); (2048, 160); (2048, 300) ]);

  Alcotest.test_case "limb-boundary and extreme moduli, extreme operands" `Quick
    (fun () ->
      (* Moduli whose widths straddle the 26-bit residue limbs and the
         31-bit [Nat.t] limbs, plus 2^b - 1 and 2^(b-1) + 1, each with
         bases 0, 1, m-1, m, m+1 and exponents 0 and 1. *)
      let rb = Util.random_bytes ~seed:"fastpath-boundaries" () in
      let widths =
        List.concat_map
          (fun j -> [ (26 * j) - 1; 26 * j; (26 * j) + 1; (31 * j) - 1; (31 * j) + 1 ])
          [ 1; 2; 3; 4; 5; 6; 10; 20; 40 ]
      in
      List.iter
        (fun bits ->
          let moduli =
            [ odd_modulus ~rb bits;
              Nat.sub (Nat.shift_left Nat.one bits) Nat.one;
              Nat.add (Nat.shift_left Nat.one (bits - 1)) Nat.one ]
          in
          List.iter
            (fun m ->
              let bases =
                [ Nat.zero; Nat.one; Nat.sub m Nat.one; m; Nat.add m Nat.one;
                  Nat.random_bits ~random_bytes:rb (bits + 5) ]
              in
              let exps =
                [ Nat.zero; Nat.one; Nat.random_bits ~random_bytes:rb (1 + (bits mod 97)) ]
              in
              let label = Printf.sprintf "m = %s" (Nat.to_hex m) in
              List.iter
                (fun b ->
                  List.iter
                    (fun e ->
                      let expect = Nat.powmod_barrett b e m in
                      Alcotest.check nat ("powmod, " ^ label) expect (Nat.powmod b e m);
                      Alcotest.check nat ("powmod2, " ^ label)
                        (Nat.rem (Nat.mul expect (Nat.powmod_barrett m e m)) m)
                        (Nat.powmod2 b e m e m))
                    exps)
                bases)
            moduli)
        widths);

  Alcotest.test_case "powmod_multi with k = 1..7 vs the Barrett reference" `Quick
    (fun () ->
      let rb = Util.random_bytes ~seed:"fastpath-multi" () in
      List.iter
        (fun bits ->
          let m = odd_modulus ~rb bits in
          for k = 1 to 7 do
            let pairs =
              List.init k (fun i ->
                ( Nat.random_bits ~random_bytes:rb (bits + 3),
                  (* one zero exponent when k > 2 exercises the filter *)
                  if k > 2 && i = 1 then Nat.zero
                  else Nat.random_bits ~random_bytes:rb (64 + (17 * i)) ))
            in
            let expect =
              List.fold_left
                (fun acc (b, e) -> Nat.rem (Nat.mul acc (Nat.powmod_barrett b e m)) m)
                (Nat.rem Nat.one m) pairs
            in
            Alcotest.check nat (Printf.sprintf "%d bases, %d-bit modulus" k bits)
              expect (Nat.powmod_multi pairs m)
          done)
        [ 61; 256; 1024 ]);

  Alcotest.test_case "fixed-base tables at 1024 bits" `Quick (fun () ->
    let rb = Util.random_bytes ~seed:"fastpath-fixed-1024" () in
    let m = odd_modulus ~rb 1024 in
    let base = Nat.random_bits ~random_bytes:rb 1030 in
    let tbl = Nat.Fixed_base.create ~base ~modulus:m ~max_bits:160 in
    List.iter
      (fun e ->
        Alcotest.check nat "fixed-base vs barrett" (Nat.powmod_barrett base e m)
          (Nat.Fixed_base.pow tbl e))
      [ Nat.zero; Nat.one; Nat.random_bits ~random_bytes:rb 160;
        Nat.random_bits ~random_bytes:rb 100;
        Nat.sub (Nat.shift_left Nat.one 160) Nat.one;
        Nat.random_bits ~random_bytes:rb 200 ]);

  Alcotest.test_case "Montgomery column bound: 511 limbs, not 512" `Quick (fun () ->
    (* At the widest modulus the kernel accepts, all-ones limbs and maximal
       operands give the largest column sums there can be. *)
    let m = Nat.sub (Nat.shift_left Nat.one (26 * 511)) Nat.one in
    let ctx = Nat.Montgomery.create m in
    let a = Nat.sub m Nat.one in
    let am = Nat.Montgomery.to_mont ctx a in
    Alcotest.check nat "(m-1)^2 mod m" (Nat.rem (Nat.sqr a) m)
      (Nat.Montgomery.of_mont ctx (Nat.Montgomery.mul ctx am am));
    let wide = Nat.add (Nat.shift_left Nat.one (26 * 511)) Nat.one in
    Alcotest.check_raises "512 limbs" (Invalid_argument "Nat.Montgomery.create: modulus too wide")
      (fun () -> ignore (Nat.Montgomery.create wide));
    (* powmod still serves such a modulus, by Barrett reduction *)
    let b = Nat.of_int 3 in
    Alcotest.check nat "powmod beyond the bound" (Nat.rem (Nat.of_int 27) wide)
      (Nat.powmod b (Nat.of_int 3) wide));

  Alcotest.test_case "Bigint.powmod2" `Quick (fun () ->
    let bi = Bigint.of_int in
    let m = bi 1009 in
    Alcotest.check bigint "values"
      (Bigint.erem (Bigint.mul (Bigint.powmod (bi 17) (bi 100) m)
                      (Bigint.powmod (bi 23) (bi 77) m)) m)
      (Bigint.powmod2 (bi 17) (bi 100) (bi 23) (bi 77) m);
    (* negative bases enter via the euclidean remainder *)
    Alcotest.check bigint "negative base"
      (Bigint.powmod2 (Bigint.erem (bi (-17)) m) (bi 3) (bi 23) (bi 5) m)
      (Bigint.powmod2 (bi (-17)) (bi 3) (bi 23) (bi 5) m);
    Alcotest.check_raises "negative exponent"
      (Invalid_argument "Bigint.powmod2: negative exponent; invert the base instead")
      (fun () -> ignore (Bigint.powmod2 (bi 2) (bi (-1)) (bi 3) (bi 1) m)));
]

let held_context_tests = [
  Alcotest.test_case "held Montgomery context: powmod, powmod2, powmod_multi = plain and Barrett"
    `Quick (fun () ->
      (* A key keeps its modulus's context; exponentiating through it must
         give exactly the per-call paths' results, on random odd moduli of
         1 to ~12 limbs, bases above the modulus, zero and one exponents,
         and reused across many calls (the context holds no scratch). *)
      let rb = Util.random_bytes ~seed:"held-mont" () in
      let rand_int n = 1 + (Char.code (rb 1).[0] * 256 + Char.code (rb 1).[0]) mod n in
      for _ = 1 to 40 do
        let m =
          Nat.add (Nat.shift_left (Nat.random_bits ~random_bytes:rb (rand_int 300)) 1) Nat.one
        in
        let ctx = Nat.Montgomery.create m in
        for _ = 1 to 5 do
          let b1 = Nat.random_bits ~random_bytes:rb (rand_int 360) in
          let b2 = Nat.random_bits ~random_bytes:rb (rand_int 360) in
          let e1 = Nat.random_bits ~random_bytes:rb (rand_int 300 - 1) in
          let e2 = Nat.random_bits ~random_bytes:rb (rand_int 300 - 1) in
          let e3 = Nat.random_bits ~random_bytes:rb (rand_int 80 - 1) in
          Alcotest.check nat "powmod vs plain" (Nat.powmod b1 e1 m)
            (Nat.Montgomery.powmod ctx b1 e1);
          Alcotest.check nat "powmod vs barrett" (Nat.powmod_barrett b1 e1 m)
            (Nat.Montgomery.powmod ctx b1 e1);
          Alcotest.check nat "powmod2 vs plain" (Nat.powmod2 b1 e1 b2 e2 m)
            (Nat.Montgomery.powmod2 ctx b1 e1 b2 e2);
          Alcotest.check nat "powmod2 vs barrett product"
            (Nat.rem (Nat.mul (Nat.powmod_barrett b1 e1 m) (Nat.powmod_barrett b2 e2 m)) m)
            (Nat.Montgomery.powmod2 ctx b1 e1 b2 e2);
          let pairs = [ (b1, e1); (b2, e2); (b1, e3); (b2, Nat.zero) ] in
          Alcotest.check nat "powmod_multi vs plain" (Nat.powmod_multi pairs m)
            (Nat.Montgomery.powmod_multi ctx pairs)
        done
      done;
      let n = Nat.of_int in
      let ctx = Nat.Montgomery.create (n 1009) in
      Alcotest.check nat "b^0 = 1" Nat.one (Nat.Montgomery.powmod ctx (n 5) Nat.zero);
      Alcotest.check nat "0^e = 0" Nat.zero (Nat.Montgomery.powmod ctx Nat.zero (n 9));
      Alcotest.check nat "empty product" Nat.one (Nat.Montgomery.powmod_multi ctx []);
      Alcotest.check nat "mod 1" Nat.zero
        (Nat.Montgomery.powmod (Nat.Montgomery.create Nat.one) (n 5) (n 3)))
]

(* The prime search before single-limb remainders and held Montgomery
   contexts, kept as the reference the prime-path tests compare against:
   trial division by a full [Nat.rem] per small prime, and Miller-Rabin
   rounds through [Nat.powmod] and [Nat.rem (Nat.sqr x) n]. *)
let small_primes_below_2000 : int list =
  List.filter
    (fun p -> p >= 2 && List.for_all (fun d -> d * d > p || p mod d <> 0)
                          (List.init 45 (fun i -> i + 2)))
    (List.init 2000 Fun.id)

let ref_divisible_by_small_prime (n : Nat.t) : bool =
  List.exists
    (fun p ->
      let p_nat = Nat.of_int p in
      Nat.compare n p_nat > 0 && Nat.is_zero (Nat.rem n p_nat))
    small_primes_below_2000

let ref_miller_rabin_round n n_minus_1 d s a : bool =
  let x = ref (Nat.powmod a d n) in
  Nat.equal !x Nat.one || Nat.equal !x n_minus_1
  || begin
    let ok = ref false in
    for _ = 1 to s - 1 do
      if not !ok then begin
        x := Nat.rem (Nat.sqr !x) n;
        if Nat.equal !x n_minus_1 then ok := true
      end
    done;
    !ok
  end

let ref_is_probable_prime ~rounds ~random_bytes (n : Nat.t) : bool =
  match Nat.to_int_opt n with
  | Some v when v < 2 -> false
  | Some 2 | Some 3 -> true
  | _ ->
    Nat.testbit n 0
    && (not (ref_divisible_by_small_prime n))
    && begin
      let n_minus_1 = Nat.sub n Nat.one in
      let s = ref 0 and d = ref n_minus_1 in
      while not (Nat.testbit !d 0) do
        d := Nat.shift_right !d 1;
        incr s
      done;
      let span = Nat.sub n (Nat.of_int 4) in
      let rec go r =
        r > rounds
        || (let a = Nat.add Nat.two (Nat.random_below ~random_bytes span) in
            ref_miller_rabin_round n n_minus_1 !d !s a && go (r + 1))
      in
      go 1
    end

let prime_path_tests = [
  Alcotest.test_case "rem_int = rem for every small prime, 0 to 1100 bits" `Quick
    (fun () ->
      let rb = Util.random_bytes ~seed:"rem-int" () in
      let values =
        [ Nat.zero; Nat.one; Nat.of_int 1999; Nat.of_int 2000;
          Nat.sub (Nat.shift_left Nat.one 31) Nat.one;
          Nat.shift_left Nat.one 31; Nat.sub (Nat.shift_left Nat.one 1100) Nat.one ]
        @ List.init 120 (fun i -> Nat.random_bits ~random_bytes:rb (i * 1100 / 119))
      in
      List.iter
        (fun a ->
          List.iter
            (fun p ->
              let want = Option.get (Nat.to_int_opt (Nat.rem a (Nat.of_int p))) in
              if Nat.rem_int a p <> want then
                Alcotest.failf "rem_int %s %d = %d, rem says %d" (Nat.to_string a) p
                  (Nat.rem_int a p) want)
            small_primes_below_2000)
        values;
      (* The single-limb bound: 2^31 is the widest modulus. *)
      let a = Nat.random_bits ~random_bytes:rb 1100 in
      Alcotest.(check int) "m = 2^31"
        (Option.get (Nat.to_int_opt (Nat.rem a (Nat.shift_left Nat.one 31))))
        (Nat.rem_int a (1 lsl 31));
      Alcotest.check_raises "m = 0" (Invalid_argument "Nat.rem_int: modulus outside 1 .. 2^31")
        (fun () -> ignore (Nat.rem_int a 0));
      Alcotest.check_raises "m > 2^31"
        (Invalid_argument "Nat.rem_int: modulus outside 1 .. 2^31")
        (fun () -> ignore (Nat.rem_int a ((1 lsl 31) + 1))));

  Alcotest.test_case "is_probable_prime = the reference rounds under one witness stream"
    `Quick (fun () ->
      (* Same verdicts on 2000 random odd candidates per width, and the
         witness streams stay in step: both paths draw the same witnesses. *)
      List.iter
        (fun bits ->
          let seed = Printf.sprintf "mr-witness-%d" bits in
          let cand = Util.random_bytes ~seed:("mr-cand-" ^ string_of_int bits) () in
          let fast = Util.random_bytes ~seed () and slow = Util.random_bytes ~seed () in
          let primes = ref 0 in
          for _ = 1 to 2000 do
            let c = Nat.random_bits ~random_bytes:cand bits in
            let c = if Nat.testbit c 0 then c else Nat.add c Nat.one in
            let got = Prime.is_probable_prime ~random_bytes:fast c in
            let want = ref_is_probable_prime ~rounds:24 ~random_bytes:slow c in
            if got <> want then
              Alcotest.failf "%d-bit %s: %b, reference %b" bits (Nat.to_string c) got want;
            if got then incr primes
          done;
          Alcotest.(check string) "witness streams in step" (slow 16) (fast 16);
          if !primes = 0 then Alcotest.failf "no %d-bit prime among the candidates" bits)
        [ 128; 256 ]);
]

(* The Montgomery chain allocates only at its start: two running buffers
   and the window table, whatever the exponent's length.  A product that
   allocated (a closure, a boxed temporary) would grow the count with the
   number of products, ~8x from a 128-bit to a 1024-bit exponent. *)
let alloc_tests = [
  Alcotest.test_case "Montgomery.powmod allocates the same for 128- and 1024-bit exponents"
    `Quick (fun () ->
      let rb = Util.random_bytes ~seed:"mont-alloc" () in
      let m =
        let m = Nat.random_bits ~random_bytes:rb 256 in
        if Nat.testbit m 0 then m else Nat.add m Nat.one
      in
      let ctx = Nat.Montgomery.create m in
      let b = Nat.rem (Nat.random_bits ~random_bytes:rb 256) m in
      let words bits =
        let e = Nat.random_bits ~random_bytes:rb bits in
        ignore (Nat.Montgomery.powmod ctx b e);
        let before = Gc.minor_words () in
        ignore (Nat.Montgomery.powmod ctx b e);
        Gc.minor_words () -. before
      in
      let short = words 128 and long = words 1024 in
      if long -. short > 64.0 then
        Alcotest.failf "minor words: %.0f for a 128-bit exponent, %.0f for 1024 bits"
          short long);
]

let suite =
  unit_tests @ property_tests @ fastpath_tests @ held_context_tests @ prime_path_tests
  @ alloc_tests
