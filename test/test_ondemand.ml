(* Pins for threshold crypto that a party runs only when it needs the
   result: coin shares, multi-signature parts it already knows are valid,
   and ciphertexts it encrypted itself.  Each test fixes the bytes,
   verdicts, virtual-CPU charges and counters a party produces, so a
   change to when (or whether) the host work runs cannot move anything a
   peer, the cost model or the metrics registry sees. *)

open Sintra

let hex (s : string) : string = Hashes.Sha256.hex_of_digest (Hashes.Sha256.digest s)

let nat_bytes (x : Bignum.Nat.t) : string = Bignum.Nat.to_bytes_be x

let coin_bytes (s : Crypto.Threshold_coin.share) : string =
  String.concat "|"
    [ string_of_int s.Crypto.Threshold_coin.origin;
      nat_bytes s.Crypto.Threshold_coin.value;
      nat_bytes s.Crypto.Threshold_coin.proof.Crypto.Dleq.a1;
      nat_bytes s.Crypto.Threshold_coin.proof.Crypto.Dleq.a2;
      nat_bytes s.Crypto.Threshold_coin.proof.Crypto.Dleq.response ]

let ms (ch : Charge.t) : float = ch.Charge.meter.Sim.Cost.total_ms

(* --- coin shares ---

   The crypto layer: each party's share of three coins, released from one
   DRBG per party, and the DRBG's next bytes after them.  The protocol: a
   seeded ABA with split proposals at n=4, which abstains often enough that
   coin shares go on the wire; every coin-share frame's bytes, every
   party's decision, its DRBG's next bytes and its charged milliseconds. *)

let coin_dealer = lazy (Dealer.deal ~seed:"pin-coin" (Config.make ~n:4 ~t:1 ()))

let coin_release_pin () : string =
  let d = Lazy.force coin_dealer in
  let pub = d.Dealer.coin_pub in
  String.concat " "
    (List.init 4 (fun p ->
       let drbg = Hashes.Drbg.create ~seed:(Printf.sprintf "pin-coin-drbg-%d" p) in
       let shares =
         List.map
           (fun name ->
             Crypto.Threshold_coin.release ~drbg pub
               d.Dealer.parties.(p).Dealer.coin_share ~name)
           [ "aba-coin|pin|1"; "aba-coin|pin|2"; "aba-coin|pin|3" ]
       in
       Printf.sprintf "p%d=%s/%s" p
         (String.sub (hex (String.concat "#" (List.map coin_bytes shares))) 0 16)
         (Hashes.Sha256.hex_of_digest (Hashes.Drbg.bytes drbg 8))))

(* Coin-share frames are the ABA instance's tag-2 bodies. *)
let coin_frame (payload : string) : string option =
  match
    Wire.decode payload (fun d ->
      let pid = Wire.Dec.bytes d in
      let body = Wire.Dec.bytes d in
      (pid, body))
  with
  | Some ("pin-aba", body) when String.length body > 0 && Char.code body.[0] = 2 ->
    Some body
  | _ -> None

let coin_run_pin ~(run_seed : string) : string * int =
  let c =
    Cluster.create ~seed:run_seed ~dealer:(Lazy.force coin_dealer)
      ~topo:(Util.default_topo ()) (Config.make ~n:4 ~t:1 ())
  in
  let frames = ref [] in
  Cluster.set_intercept c (fun ~src ~dst payload ->
    (match coin_frame payload with
     | Some body -> frames := Printf.sprintf "%d>%d:%s" src dst (hex body) :: !frames
     | None -> ());
    Sim.Net.Deliver);
  let decided = Array.make 4 "undecided" in
  let insts =
    Array.init 4 (fun i ->
      Binary_agreement.create (Cluster.runtime c i) ~pid:"pin-aba"
        ~on_decide:(fun b _ -> decided.(i) <- string_of_bool b))
  in
  Array.iteri
    (fun i inst ->
      Cluster.inject c i (fun () -> Binary_agreement.propose inst (i mod 2 = 0)))
    insts;
  ignore (Cluster.run c ~until:300.0);
  let frames = List.rev !frames in
  ( Printf.sprintf "frames=%d/%s %s" (List.length frames)
      (String.sub (hex (String.concat ";" frames)) 0 16)
      (String.concat " "
         (List.init 4 (fun p ->
            let rt = Cluster.runtime c p in
            Printf.sprintf "p%d:%s:%.6f:%s" p decided.(p) (ms rt.Runtime.charge)
              (Hashes.Sha256.hex_of_digest (Hashes.Drbg.bytes rt.Runtime.drbg 8))))),
    List.length frames )

let coin_release_golden =
  "p0=947751bdfdd57e51/f32a1c99e1790408 p1=c894fc1d42dc168d/33ca5a6de2496389 \
   p2=439fb8d3380db9bc/5a2a527eb52913cf p3=839320dd1c75d2af/1d6e773c2fbf7635"

let coin_run_seeds = [ "pin-aba-1"; "pin-aba-2"; "pin-aba-3" ]

let coin_run_golden =
  [ "frames=16/482ec782c54e624e p0:false:68.967080:b391b259c6854e1a \
     p1:false:68.967080:5729abe272d60ceb p2:false:68.967080:ed11b071df63c993 \
     p3:false:68.967080:62c3de249750c69f";
    "frames=16/d834ae07d42c39c8 p0:false:71.000380:ca2d551df888509d \
     p1:false:71.498227:8c3352e20ba9760e p2:false:71.000380:6e817c9f03cfdc57 \
     p3:false:71.000380:880cb7ca4cda8c7d";
    "frames=16/5ae3eacffe88ddb0 p0:false:71.000380:896c89248b476b45 \
     p1:false:71.000380:b24a364b380beb41 p2:false:69.948948:79af1e1cf022d51d \
     p3:false:71.000380:bdf59bd9d09c0e1f" ]

(* --- multi-signature parts a party already knows ---

   Party 0 runs two consistent broadcasts under multi-signatures: one it
   sends (it signs and checks its own echo, checks the first peers' echoes
   and its own FINAL) and one party 1 sends (it signs an echo it never
   checks, and checks party 1's FINAL).  Then, on both statements, it
   checks crafted multi-signatures and shares: parts it signed, parts it
   checked, a part it never checked, a forged part, a duplicated origin,
   out-of-range origins, too few parts and a one-byte near-copy of its own
   part.  Each verdict must equal the plain verifier's; verdicts, charged
   milliseconds and the verify/statement counters are pinned. *)

let msig (parts : (int * string) list) : string =
  String.concat ""
    (Printf.sprintf "%04d" (List.length parts)
     :: List.map
          (fun (o, s) -> Printf.sprintf "%04d%08d%s" o (String.length s) s)
          parts)

let flip_last (s : string) : string =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let msig_pin () : string =
  let c = Util.cluster ~seed:"pin-msig" ~tsig_scheme:Config.Multi () in
  let cbc pid sender payload =
    let insts =
      Array.init 4 (fun i ->
        Consistent_broadcast.create (Cluster.runtime c i) ~pid ~sender
          ~on_deliver:(fun _ -> ()))
    in
    Cluster.inject c sender (fun () -> Consistent_broadcast.send insts.(sender) payload);
    ignore (Cluster.run c ~until:60.0);
    Consistent_broadcast.get_closing insts.(0)
  in
  let closing_a = cbc "pin-cbc-a" 0 "pin-a" in
  let closing_b = cbc "pin-cbc-b" 1 "pin-b" in
  let rt = Cluster.runtime c 0 in
  let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
  let part p pid msg =
    let r = Cluster.runtime c p in
    match Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx:pid msg with
    | Tsig.Multi_share s -> (s.Crypto.Multi_sig.origin, s.Crypto.Multi_sig.signature)
    | Tsig.Shoup_share _ -> Alcotest.fail "a multi-signature key released a Shoup share"
  in
  let log = ref [] in
  let note what got want charged =
    if got <> want then
      Alcotest.failf "%s: Verify said %b, the plain verifier %b" what got want;
    log := Printf.sprintf "%s=%d:%.6f" what (Bool.to_int got) charged :: !log
  in
  let check_sig what pid msg parts =
    let signature = msig parts in
    let before = ms rt.Runtime.charge in
    let got = Verify.tsig_signature rt ~pub ~ctx:pid ~signature msg in
    note what got (Tsig.verify pub ~ctx:pid ~signature msg)
      (ms rt.Runtime.charge -. before)
  in
  let check_share what pid msg (o, s) =
    let share = Tsig.Multi_share { Crypto.Multi_sig.origin = o; signature = s } in
    let before = ms rt.Runtime.charge in
    let got = Verify.tsig_share rt ~pub ~ctx:pid msg share in
    note what got (Tsig.verify_share pub ~ctx:pid msg share)
      (ms rt.Runtime.charge -. before)
  in
  List.iter
    (fun (tag, pid, payload, closing) ->
      let msg = Consistent_broadcast.statement ~pid payload in
      let s = Array.init 4 (fun p -> part p pid msg) in
      let other = part 2 pid (msg ^ "+") in
      let o0, sig0 = s.(0) in
      (match closing with
       | Some v -> log := Printf.sprintf "%s.closing=%s" tag (String.sub (hex v) 0 12) :: !log
       | None -> log := Printf.sprintf "%s.closing=none" tag :: !log);
      let sg what parts = check_sig (tag ^ "." ^ what) pid msg parts in
      sg "rev" [ s.(2); s.(1); s.(0) ];
      sg "mixed" [ s.(3); s.(0); s.(1) ];
      sg "all" [ s.(0); s.(1); s.(2); s.(3) ];
      sg "peers" [ s.(1); s.(2); s.(3) ];
      sg "forged" [ s.(0); s.(1); other ];
      sg "dup" [ s.(0); s.(0); s.(1) ];
      sg "range5" [ s.(0); s.(1); (5, snd s.(2)) ];
      sg "range0" [ (0, sig0); s.(1); s.(2) ];
      sg "few" [ s.(0); s.(1) ];
      sg "nearown" [ (o0, flip_last sig0); s.(1); s.(2) ];
      sg "swapped" [ (o0, snd s.(1)); (fst s.(1), sig0); s.(2) ];
      sg "rev-again" [ s.(2); s.(1); s.(0) ];
      let sh what x = check_share (tag ^ "." ^ what) pid msg x in
      sh "own" s.(0);
      sh "peer3" s.(3);
      sh "nearown" (o0, flip_last sig0);
      sh "ownsig-as-2" (fst s.(1), sig0);
      sh "own-again" s.(0))
    [ ("a", "pin-cbc-a", "pin-a", closing_a); ("b", "pin-cbc-b", "pin-b", closing_b) ];
  Printf.sprintf "%s hit=%g miss=%g stmt=%d/%d"
    (String.concat " " (List.rev !log))
    (Util.counter_value c 0 "verify.cache_hit")
    (Util.counter_value c 0 "verify.cache_miss")
    (Crypto.Stmt_table.hashed rt.Runtime.stmts)
    (Crypto.Stmt_table.reused rt.Runtime.stmts)

let msig_golden =
  "a.closing=2914c9a9eee2 a.rev=1:0.003600 a.mixed=1:0.501447 \
   a.all=1:0.502327 a.peers=1:0.501447 a.forged=0:0.501447 a.dup=0:0.501447 \
   a.range5=0:0.501447 a.range0=0:0.501447 a.few=0:0.500567 \
   a.nearown=0:0.501447 a.swapped=0:0.501447 a.rev-again=1:0.003600 \
   a.own=1:0.001580 a.peer3=1:0.167396 a.nearown=0:0.167396 \
   a.ownsig-as-2=0:0.167396 a.own-again=1:0.001580 b.closing=5c92ca4ae513 \
   b.rev=1:0.501447 b.mixed=1:0.501447 b.all=1:0.502327 b.peers=1:0.501447 \
   b.forged=0:0.501447 b.dup=0:0.501447 b.range5=0:0.501447 \
   b.range0=0:0.501447 b.few=0:0.500567 b.nearown=0:0.501447 \
   b.swapped=0:0.501447 b.rev-again=1:0.003600 b.own=1:0.167396 \
   b.peer3=1:0.167396 b.nearown=0:0.167396 b.ownsig-as-2=0:0.167396 \
   b.own-again=1:0.001580 hit=6 miss=33 stmt=2/31"

(* --- ciphertexts a party encrypted itself ---

   A seeded n=4 secure channel: party 0 sends a cleartext; the moment its
   ciphertext first crosses the wire, party 3 re-broadcasts the same bytes
   and party 2 a copy with one payload byte flipped; party 1 sends a
   cleartext of its own.  Each party's delivery log, charged milliseconds,
   cache probes and enc_* operation counts are pinned. *)

let find_sub (s : string) (sub : string) : int option =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let own_ct_pin () : string =
  let c = Util.cluster ~seed:"pin-own-ct" () in
  let ops = Hashtbl.create 16 in
  Cluster.set_sink c
    (Trace.Sink.Fn
       (fun (e : Trace.Event.t) ->
         if e.Trace.Event.cat = "crypto"
            && e.Trace.Event.ph = Trace.Event.Span_begin
            && String.starts_with ~prefix:"enc_" e.Trace.Event.name
         then begin
           let key = (e.Trace.Event.party, e.Trace.Event.name) in
           Hashtbl.replace ops key
             (1 + Option.value (Hashtbl.find_opt ops key) ~default:0)
         end));
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans =
    Array.init 4 (fun i ->
      Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"own"
        ~on_deliver:(fun ~sender m ->
          logs.(i) := Printf.sprintf "%d:%s" sender m :: !(logs.(i)))
        ())
  in
  let enc_pub = c.Cluster.dealer.Dealer.enc_pub in
  let message = "mine" in
  let ct_len =
    String.length
      (Secure_atomic_channel.encrypt ~drbg:(Util.drbg ~seed:"pin-len" ())
         ~enc_pub ~pid:"own" message)
  in
  (* A ciphertext's bytes are length-prefixed fields: c, then the label. *)
  let marker = Printf.sprintf "%08d%s" (String.length "sac|own") "sac|own" in
  let captured = ref None in
  Cluster.set_intercept c (fun ~src ~dst:_ payload ->
    (if src = 0 && !captured = None then
       match find_sub payload marker with
       | Some j when j >= 8 + String.length message ->
         let start = j - 8 - String.length message in
         if start + ct_len <= String.length payload then begin
           let ct = String.sub payload start ct_len in
           captured := Some ct;
           let mauled =
             let b = Bytes.of_string ct in
             Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 1));
             Bytes.to_string b
           in
           Cluster.inject c 3 (fun () ->
             Secure_atomic_channel.send_ciphertext chans.(3) ct);
           Cluster.inject c 2 (fun () ->
             Secure_atomic_channel.send_ciphertext chans.(2) mauled)
         end
       | Some _ | None -> ());
    Sim.Net.Deliver);
  Cluster.inject c 0 (fun () -> Secure_atomic_channel.send chans.(0) message);
  Cluster.inject c 1 (fun () -> Secure_atomic_channel.send chans.(1) "yours");
  ignore (Cluster.run c ~until:120.0);
  if !captured = None then Alcotest.fail "party 0's ciphertext never crossed the wire";
  String.concat "\n"
    (List.init 4 (fun p ->
       let rt = Cluster.runtime c p in
       let count name = Option.value (Hashtbl.find_opt ops (p, name)) ~default:0 in
       Printf.sprintf
         "p%d [%s] cpu=%.6f hit=%g miss=%g valid=%d share=%d verify=%d \
          combine=%d encrypt=%d"
         p
         (String.concat "," (List.rev !(logs.(p))))
         (ms rt.Runtime.charge)
         (Util.counter_value c p "verify.cache_hit")
         (Util.counter_value c p "verify.cache_miss")
         (count "enc_ct_valid") (count "enc_dec_share")
         (count "enc_verify_share") (count "enc_combine") (count "enc_encrypt")))

let own_ct_golden =
  String.concat "\n"
    [ "p0 [0:mine,3:mine,1:yours] cpu=165.889927 hit=19 miss=36 valid=4 share=4 \
       verify=3 combine=3 encrypt=1";
      "p1 [0:mine,3:mine,1:yours] cpu=165.392180 hit=20 miss=35 valid=4 share=4 \
       verify=3 combine=3 encrypt=1";
      "p2 [0:mine,3:mine,1:yours] cpu=164.639847 hit=19 miss=36 valid=4 share=4 \
       verify=3 combine=3 encrypt=0";
      "p3 [0:mine,3:mine,1:yours] cpu=163.644153 hit=21 miss=34 valid=4 share=4 \
       verify=3 combine=3 encrypt=0" ]

let suite =
  [
    Alcotest.test_case
      "coin shares: golden bytes and DRBG state for fixed (seed, name, party)"
      `Quick (fun () ->
        Alcotest.(check string) "pinned" coin_release_golden (coin_release_pin ()));
    Alcotest.test_case
      "coin shares: ABA runs that reveal coins pin frames, decisions, DRBGs \
       and charges"
      `Quick (fun () ->
        let revealed =
          List.fold_left2
            (fun acc run_seed want ->
              let got, frames = coin_run_pin ~run_seed in
              Alcotest.(check string) run_seed want got;
              acc + frames)
            0 coin_run_seeds coin_run_golden
        in
        if revealed = 0 then Alcotest.fail "no coin share was ever revealed");
    Alcotest.test_case
      "multi-signatures: own, checked, unchecked, forged and malformed parts \
       pin verdicts, charges and counters"
      `Quick (fun () -> Alcotest.(check string) "pinned" msig_golden (msig_pin ()));
    Alcotest.test_case
      "secure channel: my ciphertext re-broadcast, and a mauled copy, pin \
       deliveries and charges"
      `Quick (fun () -> Alcotest.(check string) "pinned" own_ct_golden (own_ct_pin ()));
  ]
