(* Bechamel micro-benchmarks of the real cryptography: one group of
   Test.make cases per table/figure, measuring the CPU-side ingredients of
   each experiment on the machine running this binary.

   These are honest wall-clock numbers for our pure-OCaml bignum — the
   analogue of the paper's `exp' column (there: Java BigInteger, 55-427 ms
   per 1024-bit exponentiation; here: whatever this host does). *)

open Bechamel
open Toolkit

let seed = "bench-micro"
let drbg = Hashes.Drbg.create ~seed

(* --- fixtures --- *)

let modexp_fixture bits =
  let rb = Hashes.Drbg.random_bytes (Hashes.Drbg.fork drbg (Printf.sprintf "me%d" bits)) in
  let base = Bignum.Nat.random_bits ~random_bytes:rb bits in
  let e = Bignum.Nat.random_bits ~random_bytes:rb bits in
  let m =
    Bignum.Nat.add (Bignum.Nat.random_bits ~random_bytes:rb bits)
      (Bignum.Nat.shift_left Bignum.Nat.one (bits - 1))
  in
  (base, e, m)

let rsa = lazy (Crypto.Rsa.keygen ~drbg:(Hashes.Drbg.fork drbg "rsa") ~bits:1024 ())

let group =
  lazy (Crypto.Group.generate ~drbg:(Hashes.Drbg.fork drbg "grp") ~pbits:1024 ~qbits:160)

let coin =
  lazy
    (Crypto.Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin")
       ~group:(Lazy.force group) ~n:4 ~k:2 ~t:1)

let tsig =
  lazy
    (Crypto.Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg "tsig") ~modulus_bits:512
       ~nparties:4 ~k:3 ~t:1 ())

let enc =
  lazy
    (Crypto.Threshold_enc.deal ~drbg:(Hashes.Drbg.fork drbg "enc")
       ~group:(Lazy.force group) ~n:4 ~k:2 ~t:1)

(* --- test groups --- *)

(* Host tables: the `exp' column = one full modular exponentiation. *)
let host_table_tests () =
  List.map
    (fun bits ->
      let base, e, m = modexp_fixture bits in
      Test.make ~name:(Printf.sprintf "modexp-%d" bits)
        (Staged.stage (fun () -> ignore (Bignum.Nat.powmod base e m))))
    [ 128; 256; 512; 1024 ]

(* Table 1 / Figures 4-5: the per-message public-key work of the atomic
   channel - ordinary RSA signatures (INITs) and multi-signature shares. *)
let table1_tests () =
  let sk = Lazy.force rsa in
  let signature = Crypto.Rsa.sign sk ~ctx:"bench" "message" in
  [
    Test.make ~name:"rsa1024-sign-crt"
      (Staged.stage (fun () -> ignore (Crypto.Rsa.sign sk ~ctx:"bench" "message")));
    Test.make ~name:"rsa1024-verify"
      (Staged.stage (fun () ->
         ignore (Crypto.Rsa.verify sk.Crypto.Rsa.pub ~ctx:"bench" ~signature "message")));
  ]

(* Figures 4-5 run randomized agreement: the threshold coin. *)
let coin_tests () =
  let keys = Lazy.force coin in
  let pub = keys.Crypto.Threshold_coin.public in
  let d = Hashes.Drbg.fork drbg "coin-run" in
  let share i =
    Crypto.Threshold_coin.release ~drbg:d pub keys.Crypto.Threshold_coin.shares.(i)
      ~name:"bench-coin"
  in
  let s0 = share 0 and s1 = share 1 in
  [
    Test.make ~name:"coin-release"
      (Staged.stage (fun () -> ignore (share 0)));
    Test.make ~name:"coin-verify-share"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_coin.verify_share pub ~name:"bench-coin" s0)));
    Test.make ~name:"coin-assemble-k2"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_coin.assemble pub ~name:"bench-coin" [ s0; s1 ] ~len:16)));
  ]

(* Figure 6: Shoup threshold signatures (at 512-bit moduli; safe-prime
   generation for 1024 is minutes of dealer time) vs multi-signatures. *)
let fig6_tests () =
  let keys = Lazy.force tsig in
  let pub = keys.Crypto.Threshold_sig.public in
  let d = Hashes.Drbg.fork drbg "tsig-run" in
  let share i =
    Crypto.Threshold_sig.release ~drbg:d pub keys.Crypto.Threshold_sig.shares.(i)
      ~ctx:"bench" "message"
  in
  let shares = [ share 0; share 1; share 2 ] in
  let assembled = Crypto.Threshold_sig.assemble pub ~ctx:"bench" "message" shares in
  [
    Test.make ~name:"shoup512-release-share"
      (Staged.stage (fun () -> ignore (share 0)));
    Test.make ~name:"shoup512-verify-share"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.verify_share pub ~ctx:"bench" "message" (List.hd shares))));
    Test.make ~name:"shoup512-assemble-k3"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.assemble pub ~ctx:"bench" "message" shares)));
    Test.make ~name:"shoup512-verify-final"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.verify pub ~ctx:"bench" ~signature:assembled "message")));
  ]

(* Table 1 secure channel: the TDH2 threshold cryptosystem. *)
let tdh2_tests () =
  let keys = Lazy.force enc in
  let pub = keys.Crypto.Threshold_enc.public in
  let d = Hashes.Drbg.fork drbg "enc-run" in
  let ct = Crypto.Threshold_enc.encrypt ~drbg:d pub ~label:"L" "thirty-two bytes of payload....." in
  let share i =
    Crypto.Threshold_enc.dec_share ~drbg:d pub keys.Crypto.Threshold_enc.shares.(i) ct
  in
  match share 0, share 1 with
  | Some d0, Some d1 ->
    [
      Test.make ~name:"tdh2-encrypt"
        (Staged.stage (fun () ->
           ignore (Crypto.Threshold_enc.encrypt ~drbg:d pub ~label:"L" "msg")));
      Test.make ~name:"tdh2-ct-valid"
        (Staged.stage (fun () -> ignore (Crypto.Threshold_enc.ciphertext_valid pub ct)));
      Test.make ~name:"tdh2-dec-share"
        (Staged.stage (fun () -> ignore (share 0)));
      Test.make ~name:"tdh2-verify-share"
        (Staged.stage (fun () -> ignore (Crypto.Threshold_enc.verify_dec_share pub ct d0)));
      Test.make ~name:"tdh2-combine-k2"
        (Staged.stage (fun () -> ignore (Crypto.Threshold_enc.combine pub ct [ d0; d1 ])));
    ]
  | _ -> []

let run_group ~(name : string) (tests : Test.t list) : unit =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (test_name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-28s %12.3f ms/op\n" test_name (est /. 1e6)
      | Some [] | None -> Printf.printf "  %-28s (no estimate)\n" test_name)
    (List.sort compare rows)

(* --- fast-path wall-clock comparison, emitted as BENCH_perf.json ---

   Honest end-to-end timings of the bignum fast path against the plain
   algorithms it replaces: Barrett vs Montgomery powmod, two powmods vs one
   simultaneous double exponentiation, plain powmod vs a fixed-base window
   table, DLEQ verification (reference: two inversions + four plain
   exponentiations) vs the production path (two table hits + one double
   exponentiation), and amortized batch verification (Crypto.Batch random
   linear combination over k shares) vs k single reference verifications
   (plain exponentiations, no tables — the *-reference rows), for both
   Shoup threshold-signature shares and threshold-coin (DLEQ) shares at
   n=4, k=3.  The production one-at-a-time rows are reported alongside for
   scale.

   Every result row carries its own mod_bits.  Quick mode runs
   the 512-bit ladder only so `dune runtest` can afford it (a 1024-bit
   Shoup deal alone is minutes of safe-prime search); --full runs 512 and
   1024 and the committed BENCH_perf.json reports its speedups at the
   paper's 1024 bits. *)

(* Median of three runs of [iters] calls, where [iters] targets [budget]
   wall seconds per run (calibrated by one warm-up call); ms/op. *)
let time_ms ~(budget : float) (f : unit -> unit) : float =
  let once () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let warm = once () in
  let iters = max 1 (min 2000 (int_of_float (budget /. (warm +. 1e-9)))) in
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int iters
  in
  let samples = List.sort compare [ sample (); sample (); sample () ] in
  List.nth samples 1

let perf ~(quick : bool) () : string =
  let open Bignum in
  let qbits = 160 in
  let budget = if quick then 0.1 else 0.5 in
  let sizes = if quick then [ 512 ] else [ 512; 1024 ] in
  Printf.printf
    "=== Fast-path wall-clock comparison (%s-bit moduli, %d-bit group order) ===\n\n"
    (String.concat "/" (List.map string_of_int sizes))
    qbits;
  let results : (string * int * float) list ref = ref [] in
  let speedups : (string * float) list ref = ref [] in
  let speedup_bits = ref 0 in
  let run_at pbits =
    let d = Hashes.Drbg.fork drbg (Printf.sprintf "perf%d" pbits) in
    let rb = Hashes.Drbg.random_bytes d in
    Printf.printf "--- %d-bit modulus ---\n" pbits;
    let bench name f =
      let ms = time_ms ~budget f in
      results := (name, pbits, ms) :: !results;
      Printf.printf "  %-32s %12.4f ms/op\n%!" name ms;
      ms
    in
    (* modular exponentiation: Barrett reference vs the Montgomery default *)
    let m = Nat.add (Nat.random_bits ~random_bytes:rb pbits) Nat.one in
    let m = if Nat.testbit m 0 then m else Nat.add m Nat.one in
    let base = Nat.rem (Nat.random_bits ~random_bytes:rb pbits) m in
    let e_full = Nat.random_bits ~random_bytes:rb pbits in
    let plain =
      bench "powmod-barrett" (fun () -> ignore (Nat.powmod_barrett base e_full m))
    in
    let mont = bench "powmod-montgomery" (fun () -> ignore (Nat.powmod base e_full m)) in
    (* simultaneous double exponentiation vs two separate exponentiations,
       at the group-order exponent width of every DLEQ verification *)
    let b2 = Nat.rem (Nat.random_bits ~random_bytes:rb pbits) m in
    let e1 = Nat.random_bits ~random_bytes:rb qbits in
    let e2 = Nat.random_bits ~random_bytes:rb qbits in
    let two =
      bench "two-powmods" (fun () ->
        ignore (Nat.rem (Nat.mul (Nat.powmod base e1 m) (Nat.powmod b2 e2 m)) m))
    in
    let multi = bench "powmod2" (fun () -> ignore (Nat.powmod2 base e1 b2 e2 m)) in
    (* fixed-base window table vs plain powmod, same base and width *)
    let tbl = Nat.Fixed_base.create ~base ~modulus:m ~max_bits:qbits in
    let single = bench "powmod-160bit" (fun () -> ignore (Nat.powmod base e1 m)) in
    let fixed = bench "fixed-base-160bit" (fun () -> ignore (Nat.Fixed_base.pow tbl e1)) in
    (* DLEQ verification: the hot path of coin and decryption shares *)
    let grp = Crypto.Group.generate ~drbg:d ~pbits ~qbits in
    let x = Crypto.Group.random_exponent grp ~drbg:d in
    let g2 = Crypto.Group.hash_to_group grp "perf-dleq-base" in
    let h1 = Crypto.Group.pow_g grp x in
    let h2 = Crypto.Group.pow grp g2 x in
    let h1_tbl = Crypto.Group.precompute grp h1 in
    let proof =
      Crypto.Dleq.prove grp ~drbg:d ~ctx:"perf" ~g1:grp.Crypto.Group.g ~h1 ~g2 ~h2 ~x
    in
    let dleq_ref =
      bench "dleq-verify-reference" (fun () ->
        ignore
          (Crypto.Dleq.verify_reference grp ~ctx:"perf" ~g1:grp.Crypto.Group.g ~h1 ~g2
             ~h2 proof))
    in
    let dleq_fast =
      bench "dleq-verify-fast" (fun () ->
        ignore
          (Crypto.Dleq.verify grp ~ctx:"perf" ~h1_tbl ~g1:grp.Crypto.Group.g ~h1 ~g2 ~h2
           proof))
    in
    (* amortized batch verification: k Shoup signature shares checked as one
       random linear combination vs k one-at-a-time verifications (the
       reference path), n=4 / k=3 as in the protocol smoke runs *)
    if pbits >= 1024 then
      Printf.printf "  (dealing a %d-bit Shoup key: safe-prime search, minutes...)\n%!"
        pbits;
    let tkeys =
      Crypto.Threshold_sig.deal ~drbg:(Hashes.Drbg.fork d "tsig")
        ~modulus_bits:pbits ~nparties:4 ~k:3 ~t:1 ()
    in
    let tpub = tkeys.Crypto.Threshold_sig.public in
    let tshares =
      List.map
        (fun i ->
          Crypto.Threshold_sig.release ~drbg:d tpub
            tkeys.Crypto.Threshold_sig.shares.(i) ~ctx:"perf" "message")
        [ 0; 1; 2 ]
    in
    let _ =
      bench "tsig-verify-share" (fun () ->
        ignore
          (Crypto.Threshold_sig.verify_share tpub ~ctx:"perf" "message"
             (List.hd tshares)))
    in
    let tsig_ref =
      bench "tsig-verify-share-reference" (fun () ->
        ignore
          (Crypto.Threshold_sig.verify_share_reference tpub ~ctx:"perf" "message"
             (List.hd tshares)))
    in
    let tsig_batch =
      bench "tsig-batch-verify-k3" (fun () ->
        match Crypto.Batch.tsig_shares tpub ~ctx:"perf" "message" tshares with
        | Crypto.Batch.All_valid -> ()
        | Crypto.Batch.Invalid _ -> failwith "perf: honest tsig batch rejected")
    in
    (* threshold-coin (DLEQ) shares, same shape *)
    let ckeys =
      Crypto.Threshold_coin.deal ~drbg:(Hashes.Drbg.fork d "coin") ~group:grp ~n:4
        ~k:2 ~t:1
    in
    let cpub = ckeys.Crypto.Threshold_coin.public in
    let cshares =
      List.map
        (fun i ->
          Crypto.Threshold_coin.release ~drbg:d cpub
            ckeys.Crypto.Threshold_coin.shares.(i) ~name:"perf-coin")
        [ 0; 1; 2 ]
    in
    let _ =
      bench "coin-verify-share" (fun () ->
        ignore (Crypto.Threshold_coin.verify_share cpub ~name:"perf-coin" (List.hd cshares)))
    in
    let coin_ref =
      bench "coin-verify-share-reference" (fun () ->
        ignore
          (Crypto.Threshold_coin.verify_share_reference cpub ~name:"perf-coin"
             (List.hd cshares)))
    in
    let coin_batch =
      bench "coin-batch-verify-k3" (fun () ->
        match Crypto.Batch.coin_shares cpub ~name:"perf-coin" cshares with
        | Crypto.Batch.All_valid -> ()
        | Crypto.Batch.Invalid _ -> failwith "perf: honest coin batch rejected")
    in
    (* Speedups from the largest modulus measured (the committed --full
       report therefore quotes them at the paper's 1024 bits). *)
    speedup_bits := pbits;
    speedups :=
      [ ("montgomery", plain /. mont);
        ("multi_exp", two /. multi);
        ("fixed_base", single /. fixed);
        ("dleq_verify", dleq_ref /. dleq_fast);
        ("tsig_batch_verify", 3.0 *. tsig_ref /. tsig_batch);
        ("coin_batch_verify", 3.0 *. coin_ref /. coin_batch) ];
    print_newline ()
  in
  List.iter run_at sizes;
  List.iter
    (fun (n, s) -> Printf.printf "  speedup %-20s %6.2fx  (at %d bits)\n" n s !speedup_bits)
    !speedups;
  Load.Artifact.render ~name:"perf" ~seed ~smoke:quick
    [ ("qbits", string_of_int qbits);
      ("speedup_mod_bits", string_of_int !speedup_bits);
      ( "results",
        Load.Artifact.rows
          (List.rev_map
             (fun (n, bits, ms) ->
               Printf.sprintf "{\"name\": %S, \"mod_bits\": %d, \"ms_per_op\": %.6f}"
                 n bits ms)
             !results) );
      ( "speedups",
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.map (fun (n, s) -> Printf.sprintf "    %S: %.4f" n s) !speedups)) ) ]

let all () =
  print_endline "=== Micro-benchmarks (real wall-clock on this host, pure-OCaml bignum) ===\n";
  print_endline "host `exp' column (paper: 55-427 ms in Java on 2002 hardware):";
  run_group ~name:"modexp" (host_table_tests ());
  print_endline "\natomic channel signatures (Table 1, Figures 4-5):";
  run_group ~name:"rsa" (table1_tests ());
  print_endline "\nthreshold coin (randomized agreement in Figures 4-5):";
  run_group ~name:"coin" (coin_tests ());
  print_endline "\nthreshold signatures (Figure 6):";
  run_group ~name:"tsig" (fig6_tests ());
  print_endline "\nTDH2 threshold encryption (secure channel, Table 1):";
  run_group ~name:"tdh2" (tdh2_tests ());
  print_newline ()
