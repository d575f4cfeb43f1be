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
  (* Each timed call prepares its statement, as a one-shot signer does. *)
  let stmt () = Crypto.Rsa.stmt_for pub.Crypto.Threshold_sig.rsa ~ctx:"bench" "message" in
  let share i =
    Crypto.Threshold_sig.release ~drbg:d pub keys.Crypto.Threshold_sig.shares.(i)
      (stmt ())
  in
  let shares = [ share 0; share 1; share 2 ] in
  let assembled = Crypto.Threshold_sig.assemble pub (stmt ()) shares in
  [
    Test.make ~name:"shoup512-release-share"
      (Staged.stage (fun () -> ignore (share 0)));
    Test.make ~name:"shoup512-verify-share"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.verify_share pub (stmt ()) (List.hd shares))));
    Test.make ~name:"shoup512-assemble-k3"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.assemble pub (stmt ()) shares)));
    Test.make ~name:"shoup512-verify-final"
      (Staged.stage (fun () ->
         ignore (Crypto.Threshold_sig.verify pub ~signature:assembled (stmt ()))));
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
        (Staged.stage (fun () -> ignore (Crypto.Threshold_enc.check pub ct)));
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

(* One timed sample of [f]: the mean of [iters] calls, where [iters]
   targets [budget] wall seconds (calibrated by one warm-up call); ms/op. *)
let sampler ~(budget : float) (f : unit -> unit) : unit -> float =
  let once () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let warm = once () in
  let iters = max 1 (min 2000 (int_of_float (budget /. (warm +. 1e-9)))) in
  fun () ->
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int iters

let median3 (a : float) (b : float) (c : float) : float =
  List.nth (List.sort compare [ a; b; c ]) 1

(* Median of three samples; ms/op. *)
let time_ms ~(budget : float) (f : unit -> unit) : float =
  let sample = sampler ~budget f in
  let a = sample () in
  let b = sample () in
  let c = sample () in
  median3 a b c

(* A reference and a fast path timed in three alternated sample pairs:
   each side's median ms/op, and the speedup as the median of the three
   pairs' ratios.  Host noise (a parallel build job, a frequency step)
   then lands on both sides of a ratio, where two separately taken
   medians can each catch a different burst. *)
let time_pair ~(budget : float) (reference : unit -> unit) (fast : unit -> unit) :
    float * float * float =
  let ref_sample = sampler ~budget reference in
  let fast_sample = sampler ~budget fast in
  let pair () =
    let r = ref_sample () in
    (r, fast_sample ())
  in
  let r1, f1 = pair () in
  let r2, f2 = pair () in
  let r3, f3 = pair () in
  (median3 r1 r2 r3, median3 f1 f2 f3, median3 (r1 /. f1) (r2 /. f2) (r3 /. f3))

(* The hash layer under every frame MAC, share-cache key and DRBG block:
   ns per 64-byte block of a 64 KiB message for each compression function,
   a frame tag the way [Sim.Net] computes it (prepared key, "src>dst|"
   header, 256-byte payload), and a share-cache key (a 40-byte share
   resumed from a 1 KiB statement's midstate).  Hash timings do not depend
   on a modulus, so they are measured once, outside the per-size ladder. *)
let hash_rows ~(budget : float) : (string * float) list =
  let d = Hashes.Drbg.fork drbg "perf-hashes" in
  let msg = Hashes.Drbg.bytes d 65536 in
  let blocks = float_of_int (String.length msg / 64) in
  let mac_key = Hashes.Hmac.key ~algo:Hashes.Hmac.SHA1 (Hashes.Drbg.bytes d 16) in
  let payload = Hashes.Drbg.bytes d 256 in
  let stmt = Hashes.Sha256.midstate [ Hashes.Drbg.bytes d 1024 ] in
  let share = Hashes.Drbg.bytes d 40 in
  let ns ~per f = time_ms ~budget f *. 1e6 /. per in
  let rows =
    [ ("sha1-block", ns ~per:blocks (fun () -> ignore (Hashes.Sha1.digest msg)));
      ("sha256-block", ns ~per:blocks (fun () -> ignore (Hashes.Sha256.digest msg)));
      ( "hmac-sha1-frame",
        ns ~per:1.0 (fun () -> ignore (Hashes.Hmac.tag mac_key [ "0>1|"; payload ])) );
      ( "sha256-digest-from",
        ns ~per:1.0 (fun () -> ignore (Hashes.Sha256.digest_from stmt [ share ])) ) ]
  in
  Printf.printf "--- hash kernels ---\n";
  List.iter (fun (name, v) -> Printf.printf "  %-32s %12.1f ns\n%!" name v) rows;
  print_newline ();
  rows

let perf ~(quick : bool) () : string =
  let open Bignum in
  let qbits = 160 in
  let budget = if quick then 0.1 else 0.5 in
  let sizes = if quick then [ 512 ] else [ 512; 1024 ] in
  Printf.printf
    "=== Fast-path wall-clock comparison (%s-bit moduli, %d-bit group order) ===\n\n"
    (String.concat "/" (List.map string_of_int sizes))
    qbits;
  let hashes = hash_rows ~budget in
  let results : (string * int * float) list ref = ref [] in
  let speedups : (string * float) list ref = ref [] in
  let speedup_bits = ref 0 in
  let run_at pbits =
    let d = Hashes.Drbg.fork drbg (Printf.sprintf "perf%d" pbits) in
    let rb = Hashes.Drbg.random_bytes d in
    Printf.printf "--- %d-bit modulus ---\n" pbits;
    let record name ms =
      results := (name, pbits, ms) :: !results;
      Printf.printf "  %-32s %12.4f ms/op\n%!" name ms
    in
    let bench name f = record name (time_ms ~budget f) in
    (* A speedup row: both sides recorded, the ratio from [time_pair]. *)
    let speedup ref_name reference fast_name fast =
      let ref_ms, fast_ms, ratio = time_pair ~budget reference fast in
      record ref_name ref_ms;
      record fast_name fast_ms;
      ratio
    in
    (* modular exponentiation: Barrett reference vs the Montgomery default *)
    let m = Nat.add (Nat.random_bits ~random_bytes:rb pbits) Nat.one in
    let m = if Nat.testbit m 0 then m else Nat.add m Nat.one in
    let base = Nat.rem (Nat.random_bits ~random_bytes:rb pbits) m in
    let e_full = Nat.random_bits ~random_bytes:rb pbits in
    let montgomery =
      speedup "powmod-barrett" (fun () -> ignore (Nat.powmod_barrett base e_full m))
        "powmod-montgomery" (fun () -> ignore (Nat.powmod base e_full m))
    in
    (* simultaneous double exponentiation vs two separate exponentiations,
       at the group-order exponent width of every DLEQ verification *)
    let b2 = Nat.rem (Nat.random_bits ~random_bytes:rb pbits) m in
    let e1 = Nat.random_bits ~random_bytes:rb qbits in
    let e2 = Nat.random_bits ~random_bytes:rb qbits in
    let multi_exp =
      speedup "two-powmods"
        (fun () ->
          ignore (Nat.rem (Nat.mul (Nat.powmod base e1 m) (Nat.powmod b2 e2 m)) m))
        "powmod2" (fun () -> ignore (Nat.powmod2 base e1 b2 e2 m))
    in
    (* fixed-base window table vs plain powmod, same base and width *)
    let tbl = Nat.Fixed_base.create ~base ~modulus:m ~max_bits:qbits in
    let fixed_base =
      speedup "powmod-160bit" (fun () -> ignore (Nat.powmod base e1 m))
        "fixed-base-160bit" (fun () -> ignore (Nat.Fixed_base.pow tbl e1))
    in
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
    let dleq_verify =
      speedup "dleq-verify-reference"
        (fun () ->
          ignore
            (Crypto.Dleq.verify_reference grp ~ctx:"perf" ~g1:grp.Crypto.Group.g ~h1
               ~g2 ~h2 proof))
        "dleq-verify-fast"
        (fun () ->
          ignore
            (Crypto.Dleq.verify_keyed grp ~ctx:"perf" ~g1:grp.Crypto.Group.g
               ~key:h1_tbl ~g2 ~h2 proof))
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
    (* Each timed check prepares its statement, as the reference twin does. *)
    let tstmt () = Crypto.Rsa.stmt_for tpub.Crypto.Threshold_sig.rsa ~ctx:"perf" "message" in
    let tshares =
      List.map
        (fun i ->
          Crypto.Threshold_sig.release ~drbg:d tpub
            tkeys.Crypto.Threshold_sig.shares.(i) (tstmt ()))
        [ 0; 1; 2 ]
    in
    bench "tsig-verify-share" (fun () ->
      ignore (Crypto.Threshold_sig.verify_share tpub (tstmt ()) (List.hd tshares)));
    let tsig_batch_verify =
      speedup "tsig-verify-share-reference"
        (fun () ->
          ignore
            (Crypto.Threshold_sig.verify_share_reference tpub ~ctx:"perf" "message"
               (List.hd tshares)))
        "tsig-batch-verify-k3"
        (fun () ->
          match Crypto.Batch.tsig_shares tpub (tstmt ()) tshares with
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
    bench "coin-verify-share" (fun () ->
      ignore (Crypto.Threshold_coin.verify_share cpub ~name:"perf-coin" (List.hd cshares)));
    let coin_batch_verify =
      speedup "coin-verify-share-reference"
        (fun () ->
          ignore
            (Crypto.Threshold_coin.verify_share_reference cpub ~name:"perf-coin"
               (List.hd cshares)))
        "coin-batch-verify-k3"
        (fun () ->
          match Crypto.Batch.coin_shares cpub ~name:"perf-coin" cshares with
          | Crypto.Batch.All_valid -> ()
          | Crypto.Batch.Invalid _ -> failwith "perf: honest coin batch rejected")
    in
    (* Speedups from the largest modulus measured (the committed --full
       report therefore quotes them at the paper's 1024 bits). *)
    speedup_bits := pbits;
    (* A k3 batch replaces three single reference verifications. *)
    speedups :=
      [ ("montgomery", montgomery);
        ("multi_exp", multi_exp);
        ("fixed_base", fixed_base);
        ("dleq_verify", dleq_verify);
        ("tsig_batch_verify", 3.0 *. tsig_batch_verify);
        ("coin_batch_verify", 3.0 *. coin_batch_verify) ];
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
      ( "hashes",
        Load.Artifact.rows
          (List.map
             (fun (n, v) -> Printf.sprintf "{\"name\": %S, \"ns_per_op\": %.1f}" n v)
             hashes) );
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
