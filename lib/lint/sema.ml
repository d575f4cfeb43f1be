(* The semantic rule family (S1–S8): protocol-aware checks that need more
   than one line's code tokens — the file's whole token stream (Lex, via
   Source) grouped into top-level module items.

   Items are split at column-0 significant tokens, which is exact for this
   uniformly-formatted tree (continuation lines are always indented); an
   [and] item continues the kind of the item before it, so a [type ... and
   ...] chain stays one declaration group.

   S1 determinism    Unix.*, Random.*, Sys.time, Hashtbl.hash in protocol,
                     simulator, test, or bench code: wall clocks and OS
                     entropy break replayable simulation.
   S2 charge-coverage a priced crypto call (Tsig, Threshold_coin,
                     Threshold_enc, Rsa, Sha256) in a protocol module whose
                     enclosing top-level function never charges the paired
                     Charge.* meter entry — Sim.Cost silently goes blind.
   S3 handler-flow   a message-type constructor declared in a protocol
                     module must be both constructed (send/encode path) and
                     matched (receive/decode path); public constructors
                     (exported via the .mli) are exempt.
   S4 quorum-literal inline n/3, 2t+1-style arithmetic on Config.n /
                     Config.t in protocol code; thresholds must come from
                     the Config/Invariant helpers so they stay consistent
                     with the n > 3t validation.
   S5 cache-key-digest a Share_cache.add insertion whose [~digest] key is
                     not visibly a Hashes digest: raw statement bytes as
                     keys defeat the cache's fixed-size-key contract (and
                     its runtime length check only fires when the bad path
                     executes).  The key expression's head — or, for a
                     punned [~digest], its [let]-binding in the same item —
                     must be a [Hashes.Sha1/Sha256.digest*] call or a
                     helper whose name ends in [digest]; an item that
                     receives [~digest] as a parameter is a trusted
                     forwarder (its callers are in scope instead).
   S6 durable-io     raw file I/O (open_in/open_out and friends,
                     In_channel/Out_channel, Sys.remove/Sys.rename) under
                     lib/store or lib/sintra: every durable byte must flow
                     through the Store.Device seam so a replayed run sees
                     the same device contents the recorded run wrote.  The
                     seam itself (device.ml) is allowlisted in
                     .sintra-lint — which file is the seam is policy, not
                     definition.
   S7 global-state   a module-level [ref], [Array.make]/[init],
                     [Bytes.create]/[make], [Hashtbl.create] or
                     [Buffer.create] under lib/ or bench/: state shared by
                     every caller, which stops key material and contexts
                     from being shared across domains.  Scratch is allocated per
                     call instead; the few sanctioned caches are baselined
                     in .sintra-lint.
   S8 unused-export  a top-level [val] in a lib/ interface that no other
                     compilation unit names: each layer exports only what
                     the code above it calls.  Runs only when the scan
                     holds files outside lib/, the callers it judges by. *)

type finding = Rules.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let s1 = "determinism"
let s2 = "charge-coverage"
let s3 = "handler-flow"
let s4 = "quorum-literal"
let s5 = "cache-key-digest"
let s6 = "durable-io"
let s7 = "global-state"
let s8 = "unused-export"

let rule_names : (string * string) list = [
  (s1, "wall clock / OS entropy (Unix.*, Random.*, Sys.time, Hashtbl.hash) in deterministic code");
  (s2, "priced crypto call without the paired Charge.* meter entry in the same function");
  (s3, "message constructor not both constructed (send) and matched (receive)");
  (s4, "inline quorum arithmetic on Config.n/Config.t; use the Config helpers");
  (s5, "Share_cache insertion keyed by something other than a Hashes digest");
  (s6, "raw file I/O outside the Store.Device seam in lib/store or lib/sintra");
  (s7, "module-level ref/Array/Bytes/Hashtbl/Buffer allocation in lib/ or bench/: shared mutable state");
  (s8, "lib/ interface value that no other compilation unit names");
]

(* --- path predicates --- *)

let segments (path : string) : string list =
  String.split_on_char '/' path
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

let in_dir (name : string) (path : string) : bool = List.mem name (segments path)
let is_ml (path : string) : bool = Filename.check_suffix path ".ml"
let base (path : string) : string = Filename.basename path

let s1_scope path =
  is_ml path
  && (in_dir "sintra" path || in_dir "sim" path || in_dir "test" path
      || in_dir "bench" path)

(* charge.ml and tsig.ml ARE the charging seam; dealer/config hold no
   online crypto.  faults.ml (adversary CPU is deliberately unmetered) is
   allowlisted in .sintra-lint rather than here: it is policy, not
   definition. *)
let s2_scope path =
  is_ml path && in_dir "sintra" path
  && not (List.mem (base path) [ "charge.ml"; "tsig.ml" ])

let s3_scope path = is_ml path && in_dir "sintra" path

let s4_scope path =
  is_ml path && in_dir "sintra" path
  && not (List.mem (base path) [ "config.ml"; "invariant.ml" ])

(* share_cache.ml is the definition site; everything that inserts into a
   cache (protocol code today, crypto helpers tomorrow) is in scope. *)
let s5_scope path =
  is_ml path
  && (in_dir "sintra" path || in_dir "crypto" path)
  && base path <> "share_cache.ml"

(* The sanctioned seam (device.ml) is allowlisted in .sintra-lint rather
   than excluded here: which file is the seam is policy, not definition. *)
let s6_scope path =
  is_ml path && (in_dir "store" path || in_dir "sintra" path)

let s8_scope path = in_dir "lib" path && Filename.check_suffix path ".mli"

(* --- token helpers --- *)

let segs_of_tok (tok : string) : string list = String.split_on_char '.' tok

let qualified_matches (tok : string) (pattern : string) : bool =
  tok = pattern
  || (let lt = String.length tok and lp = String.length pattern in
      lt > lp + 1
      && String.sub tok (lt - lp) lp = pattern
      && tok.[lt - lp - 1] = '.')

let is_cap (s : string) : bool =
  s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* --- items --- *)

type item = {
  it_kind : string;            (* first token, with [and] resolved *)
  it_toks : Lex.token array;   (* significant tokens only *)
}

let split_items (sig_toks : Lex.token list) : item list =
  let groups = ref [] and cur = ref [] in
  List.iter
    (fun (t : Lex.token) ->
      if t.Lex.col = 0 && !cur <> [] then begin
        groups := List.rev !cur :: !groups;
        cur := [ t ]
      end
      else cur := t :: !cur)
    sig_toks;
  if !cur <> [] then groups := List.rev !cur :: !groups;
  let prev_kind = ref "" in
  List.rev_map
    (fun toks ->
      let first = (List.hd toks).Lex.text in   (* lint: allow partial-fn — groups are built non-empty *)
      let kind = if first = "and" then !prev_kind else first in
      prev_kind := kind;
      { it_kind = kind; it_toks = Array.of_list toks })
    !groups
  |> List.rev

(* --- S1: determinism taint --- *)

let s1_banned (tok : string) : bool =
  let segs = segs_of_tok tok in
  List.mem "Unix" segs || List.mem "Random" segs
  || qualified_matches tok "Sys.time"
  || qualified_matches tok "Hashtbl.hash"
  || qualified_matches tok "Hashtbl.seeded_hash"
  || qualified_matches tok "Hashtbl.hash_param"

let check_s1 (src : Source.t) (sig_toks : Lex.token list) : finding list =
  let path = Source.path src in
  if not (s1_scope path) then []
  else
    List.filter_map
      (fun (t : Lex.token) ->
        if t.Lex.kind = Lex.Word && s1_banned t.Lex.text
           && not (Source.allowed src ~rule:s1 ~line:t.Lex.line)
        then
          Some { file = path; line = t.Lex.line; rule = s1;
                 message =
                   t.Lex.text
                   ^ " is nondeterministic (wall clock / OS entropy); use the \
                      engine's virtual clock, the seeded DRBG, or the Det seam" }
        else None)
      sig_toks

(* --- S2: charge coverage --- *)

(* Priced operation -> the Charge entry that must appear in the same
   top-level item.  First match in list order wins. *)
let priced_ops : (string * string) list = [
  ("Tsig.release", "tsig_release");
  ("Tsig.release_stmt", "tsig_release");
  ("Runtime.release_share", "tsig_release");
  ("Tsig.verify_share", "tsig_verify_share");
  ("Tsig.verify_share_stmt", "tsig_verify_share");
  ("Tsig.assemble", "tsig_assemble");
  ("Tsig.verify", "tsig_verify");
  ("Tsig.verify_stmt", "tsig_verify");
  ("Crypto.Threshold_sig.release", "tsig_release");
  ("Crypto.Threshold_sig.verify_share", "tsig_verify_share");
  ("Crypto.Threshold_sig.assemble", "tsig_assemble");
  ("Crypto.Threshold_sig.verify", "tsig_verify");
  ("Crypto.Multi_sig.release", "tsig_release");
  ("Crypto.Multi_sig.verify_share", "tsig_verify_share");
  ("Crypto.Multi_sig.assemble", "tsig_assemble");
  ("Crypto.Multi_sig.verify", "tsig_verify");
  ("Crypto.Threshold_coin.release", "coin_release");
  (* A release in two steps is still one priced release: the charge goes
     where the nonce is drawn, and the finish is the work it paid for. *)
  ("Crypto.Threshold_coin.draw_nonce", "coin_release");
  ("Crypto.Threshold_coin.finish", "coin_release");
  ("Crypto.Threshold_coin.verify_share", "coin_verify_share");
  ("Crypto.Threshold_coin.assemble", "coin_assemble");
  ("Crypto.Threshold_coin.assemble_bit", "coin_assemble");
  ("Crypto.Threshold_enc.encrypt", "enc_encrypt");
  (* A party checks a ciphertext where it releases its decryption share,
     and Charge.enc_dec_share prices that check, once. *)
  ("Crypto.Threshold_enc.check", "enc_dec_share");
  ("Crypto.Threshold_enc.ciphertext_valid", "enc_dec_share");
  ("Crypto.Threshold_enc.dec_share", "enc_dec_share");
  ("Crypto.Threshold_enc.verify_dec_share", "enc_verify_share");
  ("Crypto.Threshold_enc.combine", "enc_combine");
  ("Batch.tsig_shares", "tsig_verify_share_batch");
  ("Batch.coin_shares", "coin_verify_share_batch");
  ("Crypto.Rsa.sign", "rsa_sign");
  ("Crypto.Rsa.sign_stmt", "rsa_sign");
  ("Crypto.Rsa.verify", "rsa_verify");
  ("Crypto.Rsa.verify_stmt", "rsa_verify");
  ("Hashes.Sha256.digest", "hash");
  ("Hashes.Sha256.digest_list", "hash");
  ("Hashes.Sha256.digest_from", "hash");
]

let priced_charge (tok : string) : string option =
  List.find_map
    (fun (pat, chg) -> if qualified_matches tok pat then Some chg else None)
    priced_ops

let charge_entry (tok : string) : string option =
  match List.rev (segs_of_tok tok) with
  | fn :: "Charge" :: _ -> Some fn
  | _ -> None

(* A priced name only counts as a *call* when it is applied: the next token
   must start an argument and the previous one must not put us in a type
   expression (dec_share is both a function and a type). *)
let starts_argument (t : Lex.token) : bool =
  match t.Lex.kind with
  | Lex.Word | Lex.Number | Lex.Str | Lex.Chr | Lex.Quoted -> true
  | Lex.Op -> t.Lex.text = "~" || t.Lex.text = "?"
  | Lex.Punct -> t.Lex.text = "(" || t.Lex.text = "{" || t.Lex.text = "["
                 || t.Lex.text = "[|"
  | _ -> false

let check_s2_item (src : Source.t) (it : item) : finding list =
  if it.it_kind = "type" || it.it_kind = "exception" then []
  else begin
    let toks = it.it_toks in
    let n = Array.length toks in
    let charges = ref [] in
    Array.iter
      (fun (t : Lex.token) ->
        match charge_entry t.Lex.text with
        | Some fn -> charges := fn :: !charges
        | None -> ())
      toks;
    let out = ref [] in
    for k = 0 to n - 1 do
      let t = toks.(k) in
      if t.Lex.kind = Lex.Word then
        match priced_charge t.Lex.text with
        | None -> ()
        | Some required ->
          let prev_ok =
            k = 0
            || (let p = toks.(k - 1).Lex.text in p <> ":" && p <> "*")
          in
          let next_ok = k + 1 < n && starts_argument toks.(k + 1) in
          if prev_ok && next_ok
             && not (List.mem required !charges)
             && not (Source.allowed src ~rule:s2 ~line:t.Lex.line)
          then
            out :=
              { file = Source.path src; line = t.Lex.line; rule = s2;
                message =
                  Printf.sprintf
                    "%s is priced by Sim.Cost but this function never calls \
                     Charge.%s; the virtual-CPU accounting goes silent"
                    t.Lex.text required }
              :: !out
    done;
    List.rev !out
  end

(* --- S3: handler flow --- *)

(* Constructors declared by the [type] items of one file, with their
   declaration lines.  A capitalized, dot-free word right after [=] or [|]
   inside a type declaration is a constructor. *)
let declared_constructors (items : item list) : (string * int) list =
  List.concat_map
    (fun it ->
      if it.it_kind <> "type" then []
      else begin
        let out = ref [] and expect = ref false in
        Array.iter
          (fun (t : Lex.token) ->
            let tx = t.Lex.text in
            if tx = "=" || tx = "|" then expect := true
            else begin
              if !expect && t.Lex.kind = Lex.Word && is_cap tx
                 && not (String.contains tx '.')
              then out := (tx, t.Lex.line) :: !out;
              expect := false
            end)
          it.it_toks;
        List.rev !out
      end)
    items

(* Pattern-vs-expression mode: a small state machine good enough for this
   tree's style.  [with]/[function]/[|] open pattern position; [->], [=],
   [when] and friends return to expression position. *)
let count_uses (items : item list) (names : (string, int * int) Hashtbl.t) :
    unit =
  List.iter
    (fun it ->
      if it.it_kind <> "type" && it.it_kind <> "exception" then begin
        let in_pat = ref false in
        Array.iter
          (fun (t : Lex.token) ->
            let tx = t.Lex.text in
            (match t.Lex.kind with
             | Lex.Word when Hashtbl.mem names tx ->
               let e, p = Hashtbl.find names tx in  (* lint: allow partial-fn — guarded by mem *)
               if !in_pat then Hashtbl.replace names tx (e, p + 1)
               else Hashtbl.replace names tx (e + 1, p)
             | _ -> ());
            if tx = "with" || tx = "function" || tx = "|" then in_pat := true
            else if tx = "->" || tx = "=" || tx = "when" || tx = "in"
                    || tx = "then" || tx = "else" || tx = "do" || tx = ";"
                    || tx = "match" || tx = "try" || tx = "fun" || tx = "<-"
            then in_pat := false)
          it.it_toks
      end)
    items

let check_s3 (src : Source.t) (items : item list)
    (mli_words : (string, unit) Hashtbl.t option) : finding list =
  let decls = declared_constructors items in
  if decls = [] then []
  else begin
    let counts : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun (name, _) -> Hashtbl.replace counts name (0, 0)) decls;
    count_uses items counts;
    List.filter_map
      (fun (name, line) ->
        let public =
          match mli_words with
          | Some tbl -> Hashtbl.mem tbl name
          | None -> false
        in
        if public || Source.allowed src ~rule:s3 ~line then None
        else
          let e, p = match Hashtbl.find_opt counts name with
            | Some c -> c | None -> (0, 0)
          in
          let msg =
            if e = 0 && p = 0 then
              Some (Printf.sprintf "constructor %s is never used" name)
            else if p = 0 then
              Some (Printf.sprintf
                      "constructor %s is constructed but never matched: a \
                       message sent with it would be dropped by every handler"
                      name)
            else if e = 0 then
              Some (Printf.sprintf
                      "constructor %s is matched but never constructed (dead \
                       receive path?)" name)
            else None
          in
          Option.map
            (fun message ->
              { file = Source.path src; line; rule = s3; message })
            msg)
      decls
  end

(* --- S4: quorum literals --- *)

let cfg_field (last : string) (tok : string) : bool =
  match List.rev (segs_of_tok tok) with
  | f :: "Config" :: _ -> f = last
  | _ -> false

let is_cfg_t tok = cfg_field "t" tok
let is_cfg_n tok = cfg_field "n" tok
let is_cfg tok = is_cfg_t tok || is_cfg_n tok

let check_s4_item (src : Source.t) (it : item) : finding list =
  if it.it_kind = "type" || it.it_kind = "exception" then []
  else begin
    let toks = it.it_toks in
    let n = Array.length toks in
    let out = ref [] in
    for k = 1 to n - 2 do
      let a = toks.(k - 1) and op = toks.(k) and b = toks.(k + 1) in
      if op.Lex.kind = Lex.Op then begin
        let at = a.Lex.text and bt = b.Lex.text in
        let a_num = a.Lex.kind = Lex.Number and b_num = b.Lex.kind = Lex.Number in
        let fires =
          match op.Lex.text with
          | "+" | "-" ->
            (is_cfg_t at && (b_num || is_cfg bt))
            || (is_cfg_t bt && (a_num || is_cfg at))
          | "*" -> (is_cfg_t at && b_num) || (a_num && is_cfg_t bt)
          | "/" -> is_cfg at && b_num
          | _ -> false
        in
        if fires && not (Source.allowed src ~rule:s4 ~line:op.Lex.line) then
          out :=
            { file = Source.path src; line = op.Lex.line; rule = s4;
              message =
                Printf.sprintf
                  "inline quorum arithmetic (%s %s %s); use the Config \
                   helpers (echo_quorum, vote_quorum, ready_quorum, \
                   one_honest, ...) so thresholds stay consistent"
                  at op.Lex.text bt }
            :: !out
      end
    done;
    List.rev !out
  end

(* --- S5: cache-key-digest --- *)

(* An expression head that visibly produces a digest: a Hashes.Sha* digest
   call, or a lowercase helper whose name ends in "digest" (stmt_digest,
   coin_digest, ... — the naming convention carries the obligation). *)
let s5_producer (tok : string) : bool =
  qualified_matches tok "Hashes.Sha256.digest"
  || qualified_matches tok "Hashes.Sha256.digest_list"
  || qualified_matches tok "Hashes.Sha1.digest"
  || (match List.rev (segs_of_tok tok) with
      | last :: _ ->
        let n = String.length last and suf = "digest" in
        let m = String.length suf in
        (not (is_cap last)) && n >= m && String.sub last (n - m) m = suf
      | [] -> false)

(* The position of the defining [=] of a [let] item: label punning before
   it is a parameter declaration, after it an argument. *)
let defining_eq (toks : Lex.token array) : int =
  let n = Array.length toks in
  let rec find k = if k >= n then n else if toks.(k).Lex.text = "=" then k else find (k + 1) in
  find 0

let check_s5_item (src : Source.t) (it : item) : finding list =
  if it.it_kind = "type" || it.it_kind = "exception" then []
  else begin
    let toks = it.it_toks in
    let n = Array.length toks in
    let inserts = ref false in
    for k = 0 to n - 2 do
      if toks.(k).Lex.kind = Lex.Word
         && qualified_matches toks.(k).Lex.text "Share_cache.add"
         && starts_argument toks.(k + 1)
      then inserts := true
    done;
    if not !inserts then []
    else begin
      let eq = defining_eq toks in
      (* [~digest] (or [~(digest : ...)]) before the defining [=] makes this
         item a forwarding wrapper: the key was computed by its callers,
         which the rule inspects at their own Share_cache/helper sites. *)
      let wrapper = ref false in
      for k = 0 to eq - 2 do
        if toks.(k).Lex.text = "~"
           && (toks.(k + 1).Lex.text = "digest"
               || (toks.(k + 1).Lex.text = "(" && k + 2 < n
                   && toks.(k + 2).Lex.text = "digest"))
        then wrapper := true
      done;
      (* [let digest = <head> ...] anywhere in the item body. *)
      let let_bound_ok = ref false in
      for k = 0 to n - 3 do
        if toks.(k).Lex.text = "let" && toks.(k + 1).Lex.text = "digest"
           && toks.(k + 2).Lex.text = "="
           && k + 3 < n
           && toks.(k + 3).Lex.kind = Lex.Word
           && s5_producer toks.(k + 3).Lex.text
        then let_bound_ok := true
      done;
      let out = ref [] in
      let flag line detail =
        if not (Source.allowed src ~rule:s5 ~line) then
          out :=
            { file = Source.path src; line; rule = s5;
              message =
                detail
                ^ "; Share_cache keys must be Hashes digests (fixed-size, \
                   collision-resistant), not raw statement bytes" }
            :: !out
      in
      for k = eq to n - 2 do
        if toks.(k).Lex.text = "~" && toks.(k + 1).Lex.text = "digest" then begin
          let line = toks.(k + 1).Lex.line in
          if k + 2 < n && toks.(k + 2).Lex.text = ":" then begin
            (* explicit argument: check the head of the expression *)
            let head =
              if k + 3 < n && toks.(k + 3).Lex.text = "(" && k + 4 < n
              then Some toks.(k + 4)
              else if k + 3 < n then Some toks.(k + 3)
              else None
            in
            match head with
            | Some h when h.Lex.kind = Lex.Word && s5_producer h.Lex.text -> ()
            | Some h ->
              flag line
                (Printf.sprintf "cache key [~digest:%s...] is not a digest"
                   h.Lex.text)
            | None -> flag line "cache key [~digest:] has no argument"
          end
          else if not !wrapper && not !let_bound_ok then
            flag line
              "punned [~digest] is not let-bound from a digest in this \
               function"
        end
      done;
      List.rev !out
    end
  end

(* --- S6: durable I/O seam --- *)

(* The raw-I/O surface: the Stdlib channel openers (bare or qualified),
   the In_channel/Out_channel modules wholesale, and the Sys file
   mutators.  Reads are banned alongside writes — a recovery path that
   reads bytes the Device never saw replays differently. *)
let s6_banned (tok : string) : bool =
  let segs = segs_of_tok tok in
  let opener s =
    match s with
    | "open_in" | "open_in_bin" | "open_in_gen"
    | "open_out" | "open_out_bin" | "open_out_gen" -> true
    | _ -> false
  in
  List.exists opener segs
  || List.mem "In_channel" segs || List.mem "Out_channel" segs
  || qualified_matches tok "Sys.remove"
  || qualified_matches tok "Sys.rename"

let check_s6 (src : Source.t) (sig_toks : Lex.token list) : finding list =
  let path = Source.path src in
  List.filter_map
    (fun (t : Lex.token) ->
      if t.Lex.kind = Lex.Word && s6_banned t.Lex.text
         && not (Source.allowed src ~rule:s6 ~line:t.Lex.line)
      then
        Some { file = path; line = t.Lex.line; rule = s6;
               message =
                 t.Lex.text
                 ^ " is raw file I/O; durable bytes must go through the \
                    Store.Device seam so recovery replays deterministically" }
      else None)
    sig_toks

(* --- S7: module-level mutable state --- *)

let s7_scope path = is_ml path && (in_dir "lib" path || in_dir "bench" path)

let s7_allocators =
  [ "ref"; "Array.make"; "Array.init"; "Bytes.create"; "Bytes.make";
    "Hashtbl.create"; "Buffer.create" ]

let s7_banned (tok : string) : bool =
  List.exists (qualified_matches tok) s7_allocators

let opens_group (tok : string) : bool =
  List.mem tok [ "("; "["; "[|"; "{"; "begin" ]

let closes_group (tok : string) : bool =
  List.mem tok [ ")"; "]"; "|]"; "}"; "end" ]

(* Structure-level value bindings are found by layout, like [split_items]:
   a [let] (or an [and] continuing one) at column 0, or at two columns
   past the indentation of the line that opened the innermost [struct].
   A binding with parameters, or whose body is a [fun]/[function], is a
   function: its allocations happen per call.  Otherwise the body runs
   once at module initialization, and an allocator there outside a lambda
   creates state shared by every caller — and by every domain, once
   parties run in parallel. *)
let check_s7 (src : Source.t) (sig_toks : Lex.token list) : finding list =
  let path = Source.path src in
  let toks = Array.of_list sig_toks in
  let n = Array.length toks in
  let text i = toks.(i).Lex.text in
  let first_on_line i = i = 0 || toks.(i - 1).Lex.line <> toks.(i).Lex.line in
  let rec indent i = if first_on_line i then toks.(i).Lex.col else indent (i - 1) in
  let out = ref [] in
  let flag (t : Lex.token) =
    if not (Source.allowed src ~rule:s7 ~line:t.Lex.line) then
      out :=
        { file = path; line = t.Lex.line; rule = s7;
          message =
            t.Lex.text
            ^ " at module level is mutable state shared by every caller; \
               allocate it per call or keep it in a value the caller owns" }
        :: !out
  in
  (* The body of the binding whose [=] is at [eq]: up to the next token
     starting a line at or left of the binding's column.  Allocators under
     a [fun]/[function] run per call, so the lambda's enclosing group is
     skipped.  So is the right-hand side of a local [let ... in] — a
     temporary, like a sieve building a constant table — unless the body
     evaluates to a closure, which captures it. *)
  let scan_body col eq =
    let found = ref [] and closure = ref false in
    let rec go i depth skip_below locals =
      if i < n && not (first_on_line i && toks.(i).Lex.col <= col) then begin
        let tk = text i in
        let depth' =
          if opens_group tk then depth + 1
          else if closes_group tk then depth - 1
          else depth
        in
        let skip_below =
          match skip_below with
          | Some d when depth' < d -> None
          | Some _ -> skip_below
          | None when tk = "fun" || tk = "function" ->
            if locals = [] then closure := true;
            Some depth
          | None -> None
        in
        let locals =
          match tk, locals with
          | "let", _ when skip_below = None -> depth :: locals
          | "in", d :: rest when d = depth -> rest
          | _ -> locals
        in
        if skip_below = None && toks.(i).Lex.kind = Lex.Word && s7_banned tk then
          found := (toks.(i), locals <> []) :: !found;
        go (i + 1) depth' skip_below locals
      end
    in
    go (eq + 1) 0 None [];
    List.iter (fun (t, local) -> if !closure || not local then flag t) (List.rev !found)
  in
  (* [let [rec] name =] or [let [rec] name : ty =]; anything else between
     the name and [=] is a parameter. *)
  let binding i =
    let j = if i + 1 < n && text (i + 1) = "rec" then i + 2 else i + 1 in
    if j + 1 < n && toks.(j).Lex.kind = Lex.Word && not (Lex.is_keyword (text j))
    then
      if text (j + 1) = "=" then scan_body toks.(i).Lex.col (j + 1)
      else if text (j + 1) = ":" then begin
        let rec eq k =
          if k < n then
            if text k = "=" then scan_body toks.(i).Lex.col k else eq (k + 1)
        in
        eq (j + 2)
      end
  in
  (* Innermost open block: [Some c] for a [struct] whose items sit at
     column [c], [None] for [sig]/[begin]/[object]. *)
  let blocks = ref [] in
  let last_item = ref "" in
  Array.iteri
    (fun i (t : Lex.token) ->
      let item_col = match !blocks with [] -> Some 0 | b :: _ -> b in
      let at_item_col = first_on_line i && item_col = Some t.Lex.col in
      (match t.Lex.text with
       | "struct" -> blocks := Some (indent i + 2) :: !blocks
       | "sig" | "begin" | "object" -> blocks := None :: !blocks
       | "end" -> blocks := (match !blocks with [] -> [] | _ :: rest -> rest)
       | _ -> ());
      if at_item_col then begin
        if t.Lex.text = "let" || (t.Lex.text = "and" && !last_item = "let") then
          binding i;
        if t.Lex.text <> "and" then last_item := t.Lex.text
      end)
    toks;
  List.rev !out

(* --- S8: unused exports --- *)

let unit_name (path : string) : string =
  String.capitalize_ascii (Filename.basename (Filename.remove_extension path))

let last_seg (tok : string) : string =
  match List.rev (segs_of_tok tok) with s :: _ -> s | [] -> tok

let all_cap (tok : string) : bool = List.for_all is_cap (segs_of_tok tok)

(* The top-level [val]s of an interface, with their lines.  Values of
   nested signatures and operators are not judged. *)
let exports (sig_toks : Lex.token list) : (string * int) list =
  let rec go acc = function
    | (v : Lex.token) :: (name : Lex.token) :: rest
      when v.Lex.col = 0 && v.Lex.text = "val" && name.Lex.kind = Lex.Word ->
      go ((name.Lex.text, name.Lex.line) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] sig_toks

(* What one file says about other modules' values. *)
type mentions = {
  m_stem : string;                         (* the compilation unit *)
  m_named : (string * string) list;        (* [M.v]: (M, v) *)
  m_opened : string list;                  (* bare names of M in scope *)
  m_whole : string list;                   (* M passed or included whole *)
  m_aliases : (string * string) list;      (* [module X = ...M]: (X, M) *)
  m_bare : (string, unit) Hashtbl.t;       (* first segments of all words *)
}

(* A [Word] path names the value [M.v] when [v] is its first lowercase
   segment and every segment before it is a module; [r.M.f] is a field.
   [open M], [let open M in] and [M.(...)] put M's bare names in scope for
   the whole file; [include M], [(module M)] and a functor argument [F (M)]
   hand all of M to code that names its values through another path, so
   every export of M counts as used. *)
let mentions_of (src : Source.t) : mentions =
  let toks = Array.of_list (Lex.significant (Source.tokens src)) in
  let n = Array.length toks in
  let text i = if i >= 0 && i < n then toks.(i).Lex.text else "" in
  let word i = i >= 0 && i < n && toks.(i).Lex.kind = Lex.Word in
  let module_path i = word i && all_cap (text i) in
  let named = ref [] and opened = ref [] and whole = ref [] in
  let aliases = ref [] in
  let bare = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let tx = text i in
    if word i then begin
      let segs = segs_of_tok tx in
      (match segs with s :: _ -> Hashtbl.replace bare s () | [] -> ());
      let rec pair prev = function
        | s :: rest when is_cap s -> pair s rest
        | s :: _ -> if prev <> "" then named := (prev, s) :: !named
        | [] -> ()
      in
      pair "" segs
    end;
    (match tx with
     | "open" | "include" ->
       let j = if text (i + 1) = "!" then i + 2 else i + 1 in
       if module_path j then
         if tx = "open" then opened := last_seg (text j) :: !opened
         else whole := last_seg (text j) :: !whole
     | "module" ->
       if text (i - 1) = "(" && module_path (i + 1) then
         whole := last_seg (text (i + 1)) :: !whole
       else if module_path (i + 1) && text (i + 2) = "=" && module_path (i + 3)
               && text (i + 4) <> "("
       then aliases := (text (i + 1), last_seg (text (i + 3))) :: !aliases
     | "." ->
       if module_path (i - 1)
          && List.mem (text (i + 1)) [ "("; "{"; "["; "[|" ]
       then opened := last_seg (text (i - 1)) :: !opened
     | "(" ->
       if module_path (i - 1) && module_path (i + 1) && text (i + 2) = ")"
       then whole := last_seg (text (i + 1)) :: !whole
     | _ -> ())
  done;
  { m_stem = Filename.remove_extension (Source.path src); m_named = !named;
    m_opened = !opened; m_whole = !whole; m_aliases = !aliases;
    m_bare = bare }

let check_s8 (files : Source.t list) : finding list =
  let ms = List.map mentions_of files in
  let aliases = List.concat_map (fun m -> m.m_aliases) ms in
  (* a name and every module it aliases *)
  let resolve (x : string) : string list =
    x :: List.filter_map (fun (a, t) -> if a = x then Some t else None) aliases
  in
  let named : (string * string, string list) Hashtbl.t = Hashtbl.create 1024 in
  let opened : (string, mentions list) Hashtbl.t = Hashtbl.create 64 in
  let whole : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun m ->
      List.iter
        (fun (x, v) -> List.iter (fun md -> add named (md, v) m.m_stem) (resolve x))
        m.m_named;
      List.iter (fun x -> List.iter (fun md -> add opened md m) (resolve x)) m.m_opened;
      List.iter (fun x -> List.iter (fun md -> Hashtbl.replace whole md ()) (resolve x))
        m.m_whole)
    ms;
  let used ~stem md v =
    Hashtbl.mem whole md
    || List.exists (fun s -> s <> stem)
         (Option.value ~default:[] (Hashtbl.find_opt named (md, v)))
    || List.exists (fun m -> m.m_stem <> stem && Hashtbl.mem m.m_bare v)
         (Option.value ~default:[] (Hashtbl.find_opt opened md))
  in
  List.concat_map
    (fun src ->
      let path = Source.path src in
      if not (s8_scope path) then []
      else begin
        let md = unit_name path and stem = Filename.remove_extension path in
        List.filter_map
          (fun (v, line) ->
            if used ~stem md v || Source.allowed src ~rule:s8 ~line then None
            else
              Some { file = path; line; rule = s8;
                     message =
                       Printf.sprintf
                         "%s.%s is exported but no other compilation unit \
                          names it; delete it or drop it from the interface"
                         md v })
          (exports (Lex.significant (Source.tokens src)))
      end)
    files

(* --- driver --- *)

let check_tree (files : Source.t list) : finding list =
  (* exported-name sets of the .mli files, for the S3 public exemption *)
  let mli_words : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun src ->
      let path = Source.path src in
      if Filename.check_suffix path ".mli" then begin
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (t : Lex.token) ->
            if t.Lex.kind = Lex.Word then Hashtbl.replace tbl t.Lex.text ())
          (Lex.significant (Source.tokens src));
        Hashtbl.replace mli_words (Filename.remove_extension path) tbl
      end)
    files;
  List.concat_map
    (fun src ->
      let path = Source.path src in
      if not (is_ml path) then []
      else begin
        let sig_toks = Lex.significant (Source.tokens src) in
        let items = split_items sig_toks in
        let f1 = check_s1 src sig_toks in
        let f2 =
          if s2_scope path then List.concat_map (check_s2_item src) items
          else []
        in
        let f3 =
          if s3_scope path then
            check_s3 src items
              (Hashtbl.find_opt mli_words (Filename.remove_extension path))
          else []
        in
        let f4 =
          if s4_scope path then List.concat_map (check_s4_item src) items
          else []
        in
        let f5 =
          if s5_scope path then List.concat_map (check_s5_item src) items
          else []
        in
        let f6 = if s6_scope path then check_s6 src sig_toks else [] in
        let f7 = if s7_scope path then check_s7 src sig_toks else [] in
        f1 @ f2 @ f3 @ f4 @ f5 @ f6 @ f7
      end)
    files
  @ (if List.exists (fun src -> not (in_dir "lib" (Source.path src))) files
     then check_s8 files
     else [])
