(* sintra-lint: every rule fires on a bad fixture, stays silent on the
   corresponding clean code, and is suppressed by an allow directive — plus
   the meta-test: the shipped tree itself is violation-free. *)

let find_rule (rule : string) (findings : Lint.finding list) :
    Lint.finding list =
  List.filter (fun f -> f.Lint.rule = rule) findings

let check (path : string) (text : string) : Lint.finding list =
  Lint.check_sources [ (path, text) ]

let expect_fires ~(rule : string) (path : string) (text : string) : unit =
  match find_rule rule (check path text) with
  | [] -> Alcotest.failf "%s: expected a %s finding on %S" path rule text
  | _ :: _ -> ()

let expect_silent ~(rule : string) (path : string) (text : string) : unit =
  match find_rule rule (check path text) with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: unexpected %s finding at line %d: %s" path rule
      f.Lint.line f.Lint.message

(* --- L1: hashtbl-order --- *)

let test_hashtbl_order () =
  let rule = "hashtbl-order" in
  expect_fires ~rule "lib/proto/votes.ml"
    "let vs = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []\n";
  expect_fires ~rule "lib/proto/votes.ml"
    "let () = Hashtbl.iter (fun k v -> use k v) tbl\n";
  (* the sanctioned seam *)
  expect_silent ~rule "lib/proto/votes.ml"
    "let vs = Det.values tbl ~compare:Det.by_int\n";
  (* inside lib/det itself the rule is off *)
  expect_silent ~rule "lib/det/det.ml"
    "let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n";
  (* mention in a comment or a string must not fire *)
  expect_silent ~rule "lib/proto/votes.ml"
    "(* Hashtbl.iter would be wrong here *)\nlet s = \"Hashtbl.fold\"\n";
  (* allow directive suppresses *)
  expect_silent ~rule "lib/proto/votes.ml"
    "(* lint: allow hashtbl-order — order-insensitive count *)\n\
     let n = Hashtbl.fold (fun _ _ acc -> acc + 1) tbl 0\n"

(* --- L2: poly-compare --- *)

let test_poly_compare () =
  let rule = "poly-compare" in
  expect_fires ~rule "lib/proto/check.ml" "let same = x == y\n";
  expect_fires ~rule "lib/proto/check.ml"
    "let ok = x = Nat.zero\n";
  expect_fires ~rule "lib/proto/check.ml"
    "let c = compare a (Bignum.Nat.of_int 3)\n";
  (* a typed comparison through the module is fine *)
  expect_silent ~rule "lib/proto/check.ml"
    "let c = Nat.compare a b\n";
  (* plain let-bindings of abstract values are not comparisons *)
  expect_silent ~rule "lib/proto/check.ml"
    "let x = Nat.of_int 7\n";
  (* a ~compare: label is an argument, not a call *)
  expect_silent ~rule "lib/proto/check.ml"
    "let vs = Det.values tbl ~compare:Bignum.Nat.compare\n";
  expect_silent ~rule "lib/proto/check.ml"
    "(* lint: allow poly-compare — physical identity intended *)\n\
     let same = h' == h\n"

(* --- L3: partial-fn --- *)

let test_partial_fn () =
  let rule = "partial-fn" in
  expect_fires ~rule "lib/proto/handler.ml" "let v = List.hd msgs\n";
  expect_fires ~rule "lib/proto/handler.ml" "let v = Option.get slot\n";
  expect_fires ~rule "lib/proto/handler.ml" "let v = Hashtbl.find tbl k\n";
  expect_fires ~rule "lib/proto/handler.ml"
    "let () = if bad then failwith \"boom\"\n";
  (* total variants are fine *)
  expect_silent ~rule "lib/proto/handler.ml"
    "let v = Hashtbl.find_opt tbl k\n\
     let w = match msgs with m :: _ -> Some m | [] -> None\n";
  expect_silent ~rule "lib/proto/handler.ml"
    "(* lint: allow partial-fn — guarded by the length check above *)\n\
     let v = List.hd msgs\n"

(* --- L4: debug-print --- *)

let test_debug_print () =
  let rule = "debug-print" in
  expect_fires ~rule "lib/proto/trace.ml" "let () = print_endline \"dbg\"\n";
  expect_fires ~rule "lib/proto/trace.ml"
    "let () = Printf.printf \"%d\\n\" x\n";
  (* Printf.sprintf builds a string; it does not print *)
  expect_silent ~rule "lib/proto/trace.ml"
    "let s = Printf.sprintf \"%d\" x\n";
  (* executables may print *)
  expect_silent ~rule "bin/tool.ml" "let () = print_endline \"usage\"\n";
  expect_silent ~rule "lib/proto/trace.ml"
    "(* lint: allow debug-print — the CLI reporting path *)\n\
     let () = print_endline msg\n"

(* lib/trace's console sink prints by design, via per-line allow directives;
   protocol code reaching for Printf directly still fails the same rule. *)
let test_trace_direct_print () =
  let rule = "debug-print" in
  (* the shape of Sink.console: each printing line carries its directive *)
  expect_silent ~rule "lib/trace/sink.ml"
    "let console () =\n\
     \  Fn (fun ev ->\n\
     \    (* lint: allow debug-print — the console sink's entire job is stdout *)\n\
     \    print_string (jsonl_line ev);\n\
     \    (* lint: allow debug-print — the console sink's entire job is stdout *)\n\
     \    print_newline ())\n";
  (* no blanket exemption for the trace library: an undirected print fires *)
  expect_fires ~rule "lib/trace/sink.ml"
    "let debug ev = print_endline (jsonl_line ev)\n";
  (* protocol code must go through a Trace.Ctx, never stdout *)
  expect_fires ~rule "lib/sintra/binary_agreement.ml"
    "let () = Printf.printf \"round %d done\\n\" r\n";
  expect_fires ~rule "lib/sintra/atomic_channel.ml"
    "let () = Printf.eprintf \"deliver %s\\n\" m\n"

(* --- L5: missing-mli --- *)

let test_missing_mli () =
  let rule = "missing-mli" in
  let bare = [ ("lib/proto/naked.ml", "let x = 1\n") ] in
  (match find_rule rule (Lint.check_sources bare) with
   | [] -> Alcotest.fail "expected missing-mli for a bare lib module"
   | f :: _ ->
     Alcotest.(check string) "flagged file" "lib/proto/naked.ml" f.Lint.file);
  (* with its interface present the rule is silent *)
  let paired =
    [ ("lib/proto/naked.ml", "let x = 1\n");
      ("lib/proto/naked.mli", "val x : int\n") ]
  in
  (match find_rule rule (Lint.check_sources paired) with
   | [] -> ()
   | _ -> Alcotest.fail "missing-mli fired despite the .mli being present");
  (* a file-level allow anywhere in the module suppresses it *)
  let allowed =
    [ ("lib/proto/naked.ml",
       "(* lint: allow missing-mli — generated module *)\nlet x = 1\n") ]
  in
  match find_rule rule (Lint.check_sources allowed) with
  | [] -> ()
  | _ -> Alcotest.fail "missing-mli fired despite a file-level allow"

(* --- directives --- *)

let test_allow_directive_scope () =
  (* one directive can name several rules *)
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "(* lint: allow partial-fn, hashtbl-order — both intentional *)\n\
     let v = List.hd (Hashtbl.fold (fun _ x a -> x :: a) tbl [])\n";
  expect_silent ~rule:"hashtbl-order" "lib/proto/multi.ml"
    "(* lint: allow partial-fn, hashtbl-order — both intentional *)\n\
     let v = List.hd (Hashtbl.fold (fun _ x a -> x :: a) tbl [])\n";
  (* the directive covers only the next code line, not the whole file *)
  expect_fires ~rule:"partial-fn" "lib/proto/multi.ml"
    "(* lint: allow partial-fn — first use only *)\n\
     let a = List.hd xs\n\
     let b = List.hd ys\n";
  (* a directive comment spanning several lines covers each of its lines
     and the first code line after it *)
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "(* lint: allow partial-fn —\n\
    \   the reason runs on\n\
    \   over three lines *)\n\
     let a = List.hd xs\n";
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "let a = (* lint: allow partial-fn — the comment\n\
    \   ends on the next line *) List.hd\n\
    \  xs\n";
  (* blank lines, comment-only lines and literal-only lines are skipped
     on the way to the covered code line *)
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "(* lint: allow partial-fn — skips trivia *)\n\
     \n\
     (* an unrelated comment *)\n\
     \n\
     let a = List.hd xs\n";
  expect_fires ~rule:"partial-fn" "lib/proto/multi.ml"
    "(* lint: allow partial-fn — skips trivia *)\n\
     \n\
     let a = 1\n\
     let b = List.hd ys\n";
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "let a =\n\
    \  f\n\
    \    (* lint: allow partial-fn — skips a literal-only line *)\n\
    \    \"literal\"\n\
    \    (List.hd xs)\n";
  (* trailing on the same line as the code *)
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "let a = List.hd xs (* lint: allow partial-fn — non-empty *)\n";
  (* a trailing directive also covers the next code line, but no further *)
  expect_silent ~rule:"partial-fn" "lib/proto/multi.ml"
    "let a = 1 (* lint: allow partial-fn — non-empty *)\n\
     let b = List.hd ys\n";
  expect_fires ~rule:"partial-fn" "lib/proto/multi.ml"
    "let a = 1 (* lint: allow partial-fn — non-empty *)\n\
     let b = 2\n\
     let c = List.hd ys\n";
  (* a missing-mli suppression counts wherever it sits in the file *)
  List.iter
    (fun text ->
      match find_rule "missing-mli" (check "lib/proto/naked.ml" text) with
      | [] -> ()
      | _ -> Alcotest.failf "missing-mli fired despite the allow in %S" text)
    [ "let x = 1\nlet y = 2\n(* lint: allow missing-mli — generated *)\n";
      "let x = 1 (* lint: allow missing-mli — generated *)\n";
      "let x =\n  (* lint: allow missing-mli —\n     generated *)\n  1\n" ]

(* --- S1: determinism --- *)

let test_determinism () =
  let rule = "determinism" in
  expect_fires ~rule "lib/sintra/proto.ml" "let now () = Unix.gettimeofday ()\n";
  expect_fires ~rule "lib/sim/engine2.ml" "let jitter () = Random.float 0.1\n";
  (* satellite: the rule extends to test/ and bench/ trees *)
  expect_fires ~rule "test/test_foo.ml" "let t0 = Sys.time ()\n";
  expect_fires ~rule "bench/b.ml" "let h = Hashtbl.hash key\n";
  (* outside the deterministic trees the rule is off *)
  expect_silent ~rule "lib/load/gen.ml" "let now () = Unix.gettimeofday ()\n";
  expect_silent ~rule "bin/tool.ml" "let t0 = Sys.time ()\n";
  (* comments and strings never fire *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "(* Unix.gettimeofday would be wrong *)\nlet s = \"Random.int\"\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "(* lint: allow determinism — host-time diagnostics only *)\n\
     let now () = Unix.gettimeofday ()\n"

(* --- S2: charge-coverage --- *)

let test_charge_coverage () =
  let rule = "charge-coverage" in
  expect_fires ~rule "lib/sintra/proto.ml"
    "let check t sh =\n  Tsig.verify_share t.pub ~ctx:t.pid sh\n";
  (* the paired Charge call in the same top-level function clears it *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let check t sh =\n\
     \  Charge.tsig_verify_share t.charge;\n\
     \  Tsig.verify_share t.pub ~ctx:t.pid sh\n";
  (* a mismatched Charge entry does not: pairing is per-operation *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let check t sh =\n\
     \  Charge.tsig_verify t.charge ~k:2;\n\
     \  Tsig.verify_share t.pub ~ctx:t.pid sh\n";
  (* the crypto layer's statement forms are priced under their plain names *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let sign t st =\n  Crypto.Threshold_sig.release ~drbg:t.drbg t.pub t.sk st\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let sign t st =\n\
     \  Charge.tsig_release t.charge;\n\
     \  Crypto.Threshold_sig.release ~drbg:t.drbg t.pub t.sk st\n";
  (* a ciphertext check is priced inside the decryption-share charge *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let open_slot t ct =\n  Crypto.Threshold_enc.check t.pub ct\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let open_slot t ct =\n\
     \  Charge.enc_dec_share t.charge;\n\
     \  Crypto.Threshold_enc.check t.pub ct\n";
  (* a digest resumed from a midstate is hashing like any other *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let key prefix s = Hashes.Sha256.digest_from prefix [ s ]\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let key c prefix s =\n\
     \  Charge.hash c ~bytes:(String.length s);\n\
     \  Hashes.Sha256.digest_from prefix [ s ]\n";
  (* a priced name in type position is not a call (dec_share the type) *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let parse (body : string) : (int * Crypto.Threshold_enc.dec_share) option =\n\
     \  decode body\n";
  (* the charging seam itself is exempt *)
  expect_silent ~rule "lib/sintra/tsig.ml"
    "let verify t s = Crypto.Threshold_sig.verify t.pub s\n";
  (* crypto layer is out of scope: the rule guards protocol modules *)
  expect_silent ~rule "lib/crypto/rsa_test_helper.ml"
    "let v pk s m = Crypto.Rsa.verify pk ~ctx:\"x\" ~signature:s m\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let check t sh =\n\
     \  (* lint: allow charge-coverage — adversary-side call *)\n\
     \  Tsig.verify_share t.pub ~ctx:t.pid sh\n"

(* The two halves of a coin release, and a share released through the
   runtime, are priced like the one-step releases they split or wrap. *)
let test_charge_coverage_split_release () =
  let rule = "charge-coverage" in
  expect_fires ~rule "lib/sintra/proto.ml"
    "let start t st =\n\
     \  st.nonce <- Some (Crypto.Threshold_coin.draw_nonce ~drbg:t.drbg t.pub)\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let start t st =\n\
     \  Charge.coin_release t.charge;\n\
     \  st.nonce <- Some (Crypto.Threshold_coin.draw_nonce ~drbg:t.drbg t.pub)\n";
  expect_fires ~rule "lib/sintra/proto.ml"
    "let reveal t nonce =\n\
     \  Crypto.Threshold_coin.finish t.pub t.sk ~name:t.name nonce\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let reveal t st =\n\
     \  let nonce =\n\
     \    match st.nonce with\n\
     \    | Some n -> n\n\
     \    | None ->\n\
     \      Charge.coin_release t.charge;\n\
     \      Crypto.Threshold_coin.draw_nonce ~drbg:t.drbg t.pub\n\
     \  in\n\
     \  Crypto.Threshold_coin.finish t.pub t.sk ~name:t.name nonce\n";
  expect_fires ~rule "lib/sintra/proto.ml"
    "let echo t m =\n  Runtime.release_share t.rt t.sec ~ctx:t.pid m\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "let echo t m =\n\
     \  Charge.tsig_release t.charge;\n\
     \  Runtime.release_share t.rt t.sec ~ctx:t.pid m\n";
  (* the nonce type in a record field is not a call *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "type st = { mutable nonce : Crypto.Threshold_coin.nonce option }\n"

(* Regression (fixed in this PR): optimistic_channel's report_stmt hashed
   the closing vector without charging the meter.  The exact pre-fix shape
   must keep firing; the fixed shape must stay silent. *)
let test_report_stmt_regression () =
  let rule = "charge-coverage" in
  expect_fires ~rule "lib/sintra/optimistic_channel.ml"
    "let report_stmt (t : t) ~(epoch : int) (closings : string list) : string =\n\
     \  let h =\n\
     \    Hashes.Sha256.digest_list\n\
     \      (List.concat_map (fun c -> [ string_of_int (String.length c); \"|\"; c ]) closings)\n\
     \  in\n\
     \  Printf.sprintf \"opt-report|%s|%d|%s\" t.pid epoch h\n";
  expect_silent ~rule "lib/sintra/optimistic_channel.ml"
    "let report_stmt (t : t) ~(epoch : int) (closings : string list) : string =\n\
     \  let parts =\n\
     \    List.concat_map (fun c -> [ string_of_int (String.length c); \"|\"; c ]) closings\n\
     \  in\n\
     \  Charge.hash t.rt.Runtime.charge\n\
     \    ~bytes:(List.fold_left (fun acc s -> acc + String.length s) 0 parts);\n\
     \  let h = Hashes.Sha256.digest_list parts in\n\
     \  Printf.sprintf \"opt-report|%s|%d|%s\" t.pid epoch h\n"

(* --- S3: handler-flow --- *)

let decl = "type msg = Ping of int | Pong of int\n"

let test_handler_flow () =
  let rule = "handler-flow" in
  (* constructed and matched: clean *)
  expect_silent ~rule "lib/sintra/proto.ml"
    (decl
     ^ "let send t = emit t (Ping 1); emit t (Pong 2)\n"
     ^ "let handle t m = match m with Ping k -> reply t (Pong k) | Pong _ -> ()\n");
  (* sent but unhandled *)
  expect_fires ~rule "lib/sintra/proto.ml"
    (decl
     ^ "let send t = emit t (Ping 1); emit t (Pong 2)\n"
     ^ "let handle t m = match m with Ping k -> ignore k | _ -> ()\n");
  (* matched but never constructed *)
  expect_fires ~rule "lib/sintra/proto.ml"
    (decl
     ^ "let send t = emit t (Ping 1)\n"
     ^ "let handle t m = match m with Ping k -> ignore k | Pong _ -> ()\n");
  (* declared and never used at all *)
  expect_fires ~rule "lib/sintra/proto.ml" decl;
  (* exported through the .mli: public API, out of the rule's reach *)
  (match
     find_rule rule
       (Lint.check_sources
          [ ("lib/sintra/proto.ml", decl);
            ("lib/sintra/proto.mli", decl) ])
   with
   | [] -> ()
   | f :: _ -> Alcotest.failf "public constructor flagged: %s" f.Lint.message);
  (* exceptions are not message constructors *)
  expect_silent ~rule "lib/sintra/proto.ml" "exception Violation of string\n";
  (* out of protocol scope *)
  expect_silent ~rule "lib/vopr/mutate.ml" decl;
  expect_silent ~rule "lib/sintra/proto.ml"
    ("(* lint: allow handler-flow — wire-compat placeholder *)\n" ^ decl)

(* --- S4: quorum-literal --- *)

let test_quorum_literal () =
  let rule = "quorum-literal" in
  expect_fires ~rule "lib/sintra/proto.ml"
    "let q t = t.rt.Runtime.cfg.Config.t + 1\n";
  expect_fires ~rule "lib/sintra/proto.ml"
    "let q cfg = (2 * cfg.Config.t) + 1\n";
  expect_fires ~rule "lib/sintra/proto.ml"
    "let q cfg = cfg.Config.n - cfg.Config.t\n";
  expect_fires ~rule "lib/sintra/proto.ml"
    "let third cfg = cfg.Config.n / 3\n";
  (* party iteration is not quorum arithmetic *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let all cfg = for i = 0 to cfg.Config.n - 1 do ping i done\n";
  (* the sanctioned helpers *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let q cfg = Config.ready_quorum cfg\n";
  (* the helpers' own definitions live in config.ml/invariant.ml *)
  expect_silent ~rule "lib/sintra/config.ml"
    "let ready_quorum (c : t) : int = (2 * c.t) + 1\n";
  expect_silent ~rule "lib/load/gen.ml" "let q cfg = cfg.Config.t + 1\n";
  expect_silent ~rule "lib/sintra/proto.ml"
    "(* lint: allow quorum-literal — documented special case *)\n\
     let q cfg = cfg.Config.t + 1\n"

(* --- S5: cache-key-digest --- *)

let test_cache_key_digest () =
  let rule = "cache-key-digest" in
  (* explicit digest expression: clean *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\"\n\
     \    ~digest:(Hashes.Sha256.digest msg) ~sender:1 ~index:1\n";
  (* a helper named *_digest carries the obligation by convention *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\"\n\
     \    ~digest:(stmt_digest t msg) ~sender:1 ~index:1\n";
  (* raw statement bytes as the key: fires *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\"\n\
     \    ~digest:msg ~sender:1 ~index:1\n";
  (* punned ~digest let-bound from a digest: clean *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  let digest = Hashes.Sha256.digest_list [ t.pid; msg ] in\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\" ~digest\n\
     \    ~sender:1 ~index:1\n";
  (* punned ~digest let-bound from raw bytes: fires *)
  expect_fires ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  let digest = msg in\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\" ~digest\n\
     \    ~sender:1 ~index:1\n";
  (* a forwarding wrapper receives ~digest as a parameter: trusted (the
     rule inspects its callers' key computations instead) *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let record (t : t) ~(digest : string) ~(sender : int) : unit =\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\" ~digest\n\
     \    ~sender ~index:sender\n";
  (* probes are not insertions *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let seen t msg =\n\
     \  Crypto.Share_cache.mem t.cache ~scheme:\"s\" ~digest:msg ~sender:1\n\
     \    ~index:1\n";
  (* the definition site is out of scope *)
  expect_silent ~rule "lib/crypto/share_cache.ml"
    "let add (t : t) ~group ~scheme ~digest ~sender ~index = insert t ...\n";
  (* inline allow *)
  expect_silent ~rule "lib/sintra/proto.ml"
    "let remember t msg =\n\
     \  (* lint: allow cache-key-digest — key is a fixed tag, documented *)\n\
     \  Crypto.Share_cache.add t.cache ~group:t.pid ~scheme:\"s\" ~digest:msg\n\
     \    ~sender:1 ~index:1\n"

(* --- S6: durable-io --- *)

let test_durable_io () =
  let rule = "durable-io" in
  (* raw openers fire anywhere under lib/store and lib/sintra *)
  expect_fires ~rule "lib/store/log.ml"
    "let load path =\n  let ic = open_in_bin path in\n  really_input_string ic 4\n";
  expect_fires ~rule "lib/store/snapshot.ml"
    "let save path s =\n  let oc = Stdlib.open_out path in\n  output_string oc s\n";
  expect_fires ~rule "lib/sintra/durable.ml"
    "let dump t = Out_channel.with_open_bin t.path (fun oc -> ())\n";
  expect_fires ~rule "lib/store/gc.ml"
    "let drop path = Sys.remove path\n";
  (* going through the Device seam is the sanctioned path *)
  expect_silent ~rule "lib/store/log.ml"
    "let append t rec_ = Device.append t.dev (frame rec_)\n";
  expect_silent ~rule "lib/sintra/durable.ml"
    "let persist t b = Store.Device.append t.dev b\n";
  (* out of scope: the CLI and the linter itself read files directly *)
  expect_silent ~rule "bin/sintra_sim.ml"
    "let read path = let ic = open_in_bin path in really_input_string ic 4\n";
  expect_silent ~rule "lib/lint/source.ml"
    "let load path = let ic = open_in_bin path in really_input_string ic 4\n";
  (* mention in a comment or a string must not fire *)
  expect_silent ~rule "lib/store/log.ml"
    "(* open_out would bypass the Device *)\nlet s = \"open_in_bin\"\n";
  (* inline allow suppresses (the seam file carries a policy allow too) *)
  expect_silent ~rule "lib/store/device.ml"
    "(* lint: allow durable-io — the seam itself *)\n\
     let real path = open_out_gen [ Open_append ] 0o644 path\n"

(* --- S7: global-state --- *)

let test_global_state () =
  let rule = "global-state" in
  (* module-level scratch, counters, tables and buffers *)
  List.iter
    (expect_fires ~rule "lib/hashes/sha256.ml")
    [ "let w = Array.make 64 0\n";
      "let counter = ref 0\n";
      "let cache : (string, int) Hashtbl.t = Hashtbl.create 8\n";
      "let buf = Buffer.create 16\n";
      "let block = Bytes.create 64\n";
      "let tbl = lazy (Array.init 16 (fun i -> i))\n";
      (* a closure capturing a local ref is a global counter *)
      "let next =\n  let c = ref 0 in\n  fun () -> incr c; !c\n";
      (* structure items of a nested module, and an [and] binding *)
      "module M = struct\n  let w = Array.make 4 0\nend\n";
      "let a = 1\nand b = Stdlib.ref 2\n" ];
  (* per-call allocation is the sanctioned shape *)
  List.iter
    (expect_silent ~rule "lib/hashes/sha256.ml")
    [ "let compress ctx block =\n  let w = Array.make 64 0 in\n  use w ctx block\n";
      "let fresh = fun () -> ref 0\n";
      "let cells = List.map (fun x -> ref x) [ 1; 2 ]\n";
      "module M = struct\n  let f () =\n    let w = Array.make 4 0 in\n    w\nend\n";
      (* temporaries that build a constant value *)
      "let primes =\n  let sieve = Array.make 10 true in\n  sieve.(0) <- false;\n\
       \  Array.to_list sieve\n";
      "type t = { r : int ref }\nand u = int\n";
      "(* let w = Array.make 64 0 *)\nlet s = \"ref\"\n" ];
  (* the benchmark drivers are in scope: their dealers and metrics live in
     a harness value, not a module-level table *)
  expect_fires ~rule "bench/experiments.ml"
    "let dealer_cache : (string, int) Hashtbl.t = Hashtbl.create 8\n";
  (* out of scope: tests and binaries *)
  expect_silent ~rule "test/util.ml" "let cache = Hashtbl.create 8\n";
  expect_silent ~rule "bin/sintra_sim.ml" "let verbose = ref false\n";
  (* inline allow *)
  expect_silent ~rule "lib/store/crc.ml"
    "(* lint: allow global-state — a lookup table: built once, never written *)\n\
     let table = lazy (Array.init 256 entry)\n"

(* --- the documentation checker --- *)

(* Doccheck over in-memory strict interfaces of a library [Proto]. *)
let doc_findings (files : (string * string) list) : Lint.Doccheck.finding list =
  Lint.Doccheck.check
    (List.map
       (fun (path, contents) ->
         { Lint.Doccheck.library = "Proto"; path; contents; strict = true })
       files)

let expect_doc ~(rules : string list) (files : (string * string) list) : unit =
  let got = List.map (fun f -> f.Lint.Doccheck.rule) (doc_findings files) in
  Alcotest.(check (list string))
    (Printf.sprintf "doc findings on %S"
       (String.concat " | " (List.map snd files)))
    rules got

let test_doc_coverage () =
  let one text = [ ("lib/proto/m.mli", text) ] in
  expect_doc ~rules:[ "doc-coverage" ] (one "val f : int -> int\n");
  (* a doc comment ending on the line above, or following the val *)
  expect_doc ~rules:[] (one "(** Doubles. *)\nval f : int -> int\n");
  expect_doc ~rules:[] (one "val f : int -> int\n(** Doubles. *)\n");
  expect_doc ~rules:[] (one "val f :\n  int -> int\n(** Doubles. *)\n");
  (* a following comment documents only its own val *)
  expect_doc ~rules:[ "doc-coverage" ]
    (one "val f : int\nval g : int\n(** Only g. *)\n");
  (* (**) and banners are plain comments, not doc comments *)
  expect_doc ~rules:[ "doc-coverage" ] (one "(**)\nval f : int\n");
  expect_doc ~rules:[ "doc-coverage" ] (one "(*** banner ***)\nval f : int\n");
  expect_doc ~rules:[ "doc-coverage" ] (one "(* plain *)\nval f : int\n");
  (* a string holding "*)" does not close the doc comment early *)
  expect_doc ~rules:[]
    (one "(** Renders \"*)\" and\n    more. *)\nval f : int\n");
  (* a non-strict interface needs no coverage *)
  (match
     Lint.Doccheck.check
       [ { Lint.Doccheck.library = "Proto"; path = "lib/proto/m.mli";
           contents = "val f : int\n"; strict = false } ]
   with
   | [] -> ()
   | f :: _ -> Alcotest.failf "non-strict file: %s" (Lint.Doccheck.render f))

let test_doc_refs () =
  let m = ("lib/proto/m.mli", "(** The x. *)\nval x : int\n") in
  let user text = ("lib/proto/u.mli", text) in
  expect_doc ~rules:[] [ m; user "(** See {!M.x}. *)\nval y : int\n" ];
  expect_doc ~rules:[] [ m; user "(** See {!Proto.M.x} and {!M}. *)\nval y : int\n" ];
  expect_doc ~rules:[ "doc-ref" ]
    [ m; user "(** See {!missing}. *)\nval y : int\n" ];
  expect_doc ~rules:[ "doc-ref" ] [ m; user "(** See {!M.z}. *)\nval y : int\n" ];
  (* escaped braces and section references are not resolved *)
  expect_doc ~rules:[]
    [ m; user "(** Literal \\{!x} and {!section:s}. *)\nval y : int\n" ]

(* --- the tokenizer --- *)

let count_kind (k : Lint.Lex.kind) (toks : Lint.Lex.token list) : int =
  List.length (List.filter (fun t -> t.Lint.Lex.kind = k) toks)

let expect_roundtrip (text : string) : Lint.Lex.token list =
  let toks = Lint.Lex.tokenize text in
  Alcotest.(check string) "round-trip" text (Lint.Lex.concat toks);
  toks

let test_lex_comments () =
  let toks =
    expect_roundtrip "let a = 1 (* outer (* inner *) still outer *) let b = 2\n"
  in
  Alcotest.(check int) "one nested comment" 1 (count_kind Lint.Lex.Comment toks);
  (* a string inside a comment hides a would-be terminator *)
  let toks = expect_roundtrip "x (* tricky \" *) \" end *) y\n" in
  Alcotest.(check int) "string-guarded comment" 1
    (count_kind Lint.Lex.Comment toks);
  (match List.filter (fun t -> t.Lint.Lex.kind = Lint.Lex.Word) toks with
   | [ x; y ] ->
     Alcotest.(check string) "before" "x" x.Lint.Lex.text;
     Alcotest.(check string) "after" "y" y.Lint.Lex.text
   | ws -> Alcotest.failf "expected 2 words around comment, got %d" (List.length ws))

let test_lex_literals () =
  let toks = expect_roundtrip "let s = \"a\\\"b\\\\\" ^ g '\\n' '\\'' 'z'\n" in
  Alcotest.(check int) "one string" 1 (count_kind Lint.Lex.Str toks);
  Alcotest.(check int) "three chars" 3 (count_kind Lint.Lex.Chr toks);
  (* a type variable's quote is not a char literal *)
  let toks = expect_roundtrip "let f (x : 'a) (y : 'b) = (x, y)\n" in
  Alcotest.(check int) "no char literals" 0 (count_kind Lint.Lex.Chr toks);
  (* primes inside identifiers stay in the identifier *)
  let toks = expect_roundtrip "let x' = f x'' in x'\n" in
  Alcotest.(check int) "no chars in primed idents" 0 (count_kind Lint.Lex.Chr toks);
  (* a literal cut off by the end of input after its backslash *)
  ignore (expect_roundtrip "let c = '\\");
  ignore (expect_roundtrip "let s = \"abc\\")

let test_lex_quoted_strings () =
  let toks = expect_roundtrip "let s = {|raw \" (* |} tail\n" in
  Alcotest.(check int) "one quoted" 1 (count_kind Lint.Lex.Quoted toks);
  let toks = expect_roundtrip "let s = {id|has |} and \" inside|id} ^ t\n" in
  Alcotest.(check int) "one id-quoted" 1 (count_kind Lint.Lex.Quoted toks);
  (match List.find_opt (fun t -> t.Lint.Lex.kind = Lint.Lex.Quoted) toks with
   | Some q ->
     Alcotest.(check string) "delimited body"
       "{id|has |} and \" inside|id}" q.Lint.Lex.text
   | None -> Alcotest.fail "missing quoted token")

let test_lex_qualified_idents () =
  let toks =
    Lint.Lex.significant
      (expect_roundtrip "let v = t.rt.Runtime.cfg.Config.t + 1\n")
  in
  let words = List.filter (fun t -> t.Lint.Lex.kind = Lint.Lex.Word) toks in
  Alcotest.(check bool) "joined path" true
    (List.exists
       (fun t -> t.Lint.Lex.text = "t.rt.Runtime.cfg.Config.t")
       words)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* The tokenizer meta-test: every .ml/.mli the lint alias scans (lib/,
   bin/, test/, bench/) round-trips. *)
let test_lex_roundtrip_tree () =
  let files = Lint.discover [ "../lib"; "../bin"; "../test"; "../bench" ] in
  if List.length files < 100 then
    Alcotest.failf "round-trip meta-test: only %d files" (List.length files);
  List.iter
    (fun path ->
      let text = read_file path in
      if Lint.Lex.concat (Lint.Lex.tokenize text) <> text then
        Alcotest.failf "tokenizer does not round-trip %s" path)
    files

(* --- machine-readable output --- *)

let test_json_output () =
  let findings =
    Lint.check_sources
      [ ("lib/sintra/proto.ml",
         "let now () = Unix.gettimeofday ()\n\
          let q cfg = cfg.Config.t + 1\n");
        ("lib/sintra/proto.mli", "val now : unit -> float\n") ]
  in
  Alcotest.(check int) "two findings" 2 (List.length findings);
  let js = Lint.render_json ~files:3 ~suppressed:1 findings in
  match Trace.Json.parse js with
  | Error e -> Alcotest.failf "--format json output does not parse: %s" e
  | Ok v ->
    let str name =
      match Option.bind (Trace.Json.member name v) Trace.Json.str_opt with
      | Some s -> s
      | None -> Alcotest.failf "missing string field %s" name
    in
    let num name =
      match Option.bind (Trace.Json.member name v) Trace.Json.num_opt with
      | Some n -> int_of_float n
      | None -> Alcotest.failf "missing numeric field %s" name
    in
    Alcotest.(check string) "tool" "sintra-lint" (str "tool");
    Alcotest.(check int) "files" 3 (num "files");
    Alcotest.(check int) "suppressed" 1 (num "suppressed");
    Alcotest.(check int) "new" 2 (num "new");
    (match Option.bind (Trace.Json.member "findings" v) Trace.Json.list_opt with
     | Some items ->
       Alcotest.(check int) "findings array" 2 (List.length items);
       List.iter
         (fun item ->
           List.iter
             (fun field ->
               if Trace.Json.member field item = None then
                 Alcotest.failf "finding lacks %s" field)
             [ "file"; "line"; "rule"; "message" ])
         items
     | None -> Alcotest.fail "findings is not a list");
    (match Option.bind (Trace.Json.member "by_rule" v)
             (Trace.Json.member "determinism")
     with
     | Some n ->
       Alcotest.(check (option (float 0.0))) "per-rule count" (Some 1.0)
         (Trace.Json.num_opt n)
     | None -> Alcotest.fail "by_rule lacks determinism")

(* --- the .sintra-lint policy file --- *)

let test_baseline_parse_errors () =
  let expect_error text =
    match Lint.Baseline.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "policy text should not parse: %S" text
  in
  expect_error "allow no-such-rule lib\n";
  expect_error "baseline determinism lib nope\n";
  expect_error "frobnicate determinism lib\n";
  match Lint.Baseline.parse "# only a comment\n\nallow determinism bench\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid policy rejected: %s" e

let test_baseline_apply () =
  let policy_text =
    "allow determinism bench   # host-time by design\n\
     baseline charge-coverage lib/sintra 2\n"
  in
  let policy =
    match Lint.Baseline.parse policy_text with
    | Ok p -> p
    | Error e -> Alcotest.failf "policy parse: %s" e
  in
  let f file rule = { Lint.file; line = 1; rule; message = "m" } in
  (* allow suppresses without limit; baseline absorbs exactly its count *)
  let findings =
    [ f "bench/micro.ml" "determinism";
      f "bench/vopr_bench.ml" "determinism";
      f "lib/sintra/a.ml" "charge-coverage";
      f "lib/sintra/b.ml" "charge-coverage";
      f "lib/sintra/c.ml" "charge-coverage";
      f "lib/sintra/a.ml" "determinism" ]
  in
  let kept, suppressed = Lint.Baseline.apply policy findings in
  Alcotest.(check int) "suppressed" 4 suppressed;
  (match kept with
   | [ third_charge; other_rule ] ->
     Alcotest.(check string) "beyond the baseline count" "lib/sintra/c.ml"
       third_charge.Lint.file;
     Alcotest.(check string) "rule mismatch passes through" "determinism"
       other_rule.Lint.rule
   | ks -> Alcotest.failf "expected 2 kept findings, got %d" (List.length ks));
  (* staged-tree paths (../lib/...) match repo-root prefixes *)
  let kept, suppressed =
    Lint.Baseline.apply policy [ f "../bench/micro.ml" "determinism" ]
  in
  Alcotest.(check int) "normalized path suppressed" 1 suppressed;
  Alcotest.(check int) "nothing kept" 0 (List.length kept)

(* --- the meta-test: the shipped tree is clean --- *)

let test_tree_clean () =
  (* dune runs tests from _build/default/test; the (source_tree ...) deps in
     test/dune stage lib/, bin/, bench/ and the policy file one level up
     (and ../test is this directory itself). *)
  let roots = [ "../lib"; "../bin"; "../test"; "../bench" ] in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then
        Alcotest.failf "lint meta-test: missing staged tree %s" r)
    roots;
  let files = Lint.discover roots in
  if List.length files < 100 then
    Alcotest.failf "lint meta-test: discovered only %d files" (List.length files);
  let policy =
    match Lint.Baseline.load "../.sintra-lint" with
    | Ok p -> p
    | Error e -> Alcotest.failf "lint meta-test: policy: %s" e
  in
  match Lint.Baseline.apply policy (Lint.check_paths files) with
  | [], _ -> ()
  | findings, _ ->
    Alcotest.failf "tree has %d new lint violations, e.g. %s"
      (List.length findings)
      (Lint.render (List.hd findings))
(* lint note: the List.hd above is in test code; only S1 scans test/ *)

(* --- S8: unused-export --- *)

let lib_m_mli = "val used : int -> int\n(** Named elsewhere. *)\n\nval spare : int\n"
let lib_m_ml = "let used x = x + spare\nlet spare = 1\n"

let s8_findings (files : (string * string) list) : Lint.finding list =
  find_rule "unused-export"
    (Lint.check_sources
       (("lib/sintra/m.mli", lib_m_mli) :: ("lib/sintra/m.ml", lib_m_ml) :: files))

let test_unused_export_fires () =
  (match s8_findings [ ("bin/tool.ml", "let () = ignore (Sintra.M.used 1)\n") ] with
   | [ f ] ->
     Alcotest.(check string) "file" "lib/sintra/m.mli" f.Lint.file;
     Alcotest.(check int) "line of the val" 4 f.Lint.line
   | fs -> Alcotest.failf "expected one unused-export finding, got %d"
             (List.length fs));
  (* a record field path is not the value M.used; the own module's use
     does not count either *)
  (match s8_findings [ ("bin/tool.ml", "let f r = r.M.used\n") ] with
   | [ _; _ ] -> ()
   | fs -> Alcotest.failf "field path: expected two findings, got %d"
             (List.length fs));
  (* a scan of lib/ alone holds no callers, so S8 stays silent *)
  Alcotest.(check int) "lib-only scan" 0 (List.length (s8_findings []))

(* Each caller names both exports in one way; none of them may leave a
   finding. *)
let test_unused_export_uses () =
  List.iter
    (fun (path, text) ->
      match s8_findings [ (path, text) ] with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: %S should use both exports, but: %s" path text
          f.Lint.message)
    [ ("bin/tool.ml", "let x = Sintra.M.used Sintra.M.spare\n");
      ("test/test_m.ml", "let x = M.used M.spare\n");
      ("bench/b.ml", "open M\nlet x = used spare\n");
      ("bench/c.ml", "open! Sintra.M\nlet x = used spare\n");
      ("examples/e.ml", "let x =\n  let open M in\n  used spare\n");
      ("benchmark/w.ml", "let x = M.(used spare)\n");
      ("lib/other/x.ml", "include M\nlet x = used spare\n");
      ("lib/other/y.ml", "module X = Sintra.M\nlet x = X.used X.spare\n");
      ("lib/other/z.ml", "module F (A : S) = struct end\nmodule G = F (M)\n");
      ("lib/other/h.ml", "let x = key_with (module M) 1\n") ]

let test_unused_export_policy () =
  let mli =
    "val used : int -> int\n\
     (* lint: allow unused-export — kept for a pending caller *)\n\
     val spare : int\n"
  in
  let caller = ("bin/tool.ml", "let () = ignore (M.used 1)\n") in
  let inline =
    Lint.check_sources
      [ ("lib/sintra/m.mli", mli); ("lib/sintra/m.ml", lib_m_ml); caller ]
  in
  Alcotest.(check int) "inline allow" 0
    (List.length (find_rule "unused-export" inline));
  let findings =
    find_rule "unused-export"
      (Lint.check_sources
         [ ("lib/sintra/m.mli", lib_m_mli ^ "val other : int\n");
           ("lib/sintra/m.ml", lib_m_ml ^ "let other = 2\n"); caller ])
  in
  Alcotest.(check int) "two unused" 2 (List.length findings);
  let apply text =
    match Lint.Baseline.parse text with
    | Ok p -> Lint.Baseline.apply p findings
    | Error e -> Alcotest.failf "policy parse: %s" e
  in
  let kept, suppressed = apply "allow unused-export lib/sintra\n" in
  Alcotest.(check (pair int int)) "allow" (0, 2) (List.length kept, suppressed);
  let kept, suppressed = apply "baseline unused-export lib 1\n" in
  Alcotest.(check (pair int int)) "baseline" (1, 1) (List.length kept, suppressed);
  let kept, _ = apply "baseline unused-export lib 0\n" in
  Alcotest.(check int) "zero baseline keeps both" 2 (List.length kept)

let suite =
  [
    Alcotest.test_case "hashtbl-order fires/clears/allows" `Quick
      test_hashtbl_order;
    Alcotest.test_case "poly-compare fires/clears/allows" `Quick
      test_poly_compare;
    Alcotest.test_case "partial-fn fires/clears/allows" `Quick test_partial_fn;
    Alcotest.test_case "debug-print fires/clears/allows" `Quick
      test_debug_print;
    Alcotest.test_case "trace-direct-print: sink allowed, protocol not" `Quick
      test_trace_direct_print;
    Alcotest.test_case "missing-mli fires/clears/allows" `Quick
      test_missing_mli;
    Alcotest.test_case "allow directive scope" `Quick
      test_allow_directive_scope;
    Alcotest.test_case "determinism (S1) fires/clears/allows" `Quick
      test_determinism;
    Alcotest.test_case "charge-coverage (S2) fires/clears/allows" `Quick
      test_charge_coverage;
    Alcotest.test_case "regression: uncharged report_stmt hash shape" `Quick
      test_report_stmt_regression;
    Alcotest.test_case "handler-flow (S3) fires/clears/allows" `Quick
      test_handler_flow;
    Alcotest.test_case "quorum-literal (S4) fires/clears/allows" `Quick
      test_quorum_literal;
    Alcotest.test_case "cache-key-digest (S5) fires/clears/allows" `Quick
      test_cache_key_digest;
    Alcotest.test_case "durable-io (S6) fires/clears/allows" `Quick
      test_durable_io;
    Alcotest.test_case "global-state (S7) fires/clears/allows" `Quick
      test_global_state;
    Alcotest.test_case "doccheck: doc-coverage and doc-comment spans" `Quick
      test_doc_coverage;
    Alcotest.test_case "doccheck: {!...} reference resolution" `Quick
      test_doc_refs;
    Alcotest.test_case "lexer: nested and string-guarded comments" `Quick
      test_lex_comments;
    Alcotest.test_case "lexer: string/char escapes vs type variables" `Quick
      test_lex_literals;
    Alcotest.test_case "lexer: {id|...|id} quoted strings" `Quick
      test_lex_quoted_strings;
    Alcotest.test_case "lexer: qualified identifier joining" `Quick
      test_lex_qualified_idents;
    Alcotest.test_case "lexer round-trips every file under lib/" `Quick
      test_lex_roundtrip_tree;
    Alcotest.test_case "--format json output parses and carries schema" `Quick
      test_json_output;
    Alcotest.test_case ".sintra-lint rejects malformed policy" `Quick
      test_baseline_parse_errors;
    Alcotest.test_case ".sintra-lint allow/baseline precedence" `Quick
      test_baseline_apply;
    Alcotest.test_case "whole tree is lint-clean" `Quick test_tree_clean;
    Alcotest.test_case "charge-coverage (S2) prices split coin releases" `Quick
      test_charge_coverage_split_release;
    Alcotest.test_case "unused-export (S8) fires on an unnamed export" `Quick
      test_unused_export_fires;
    Alcotest.test_case "unused-export (S8) sees every way of naming a value"
      `Quick test_unused_export_uses;
    Alcotest.test_case "unused-export (S8) obeys allow and baseline" `Quick
      test_unused_export_policy;
  ]
