(* Cached and batched verification of shares and assembled signatures.

   Protocol verify paths go through this module so the two amortization
   mechanisms compose in one place:

   - the verified-share cache (Crypto.Share_cache, bounded by
     [Config.share_cache_cap]): a share or signature that already passed
     verification under the same (scheme, statement+share digest, sender,
     index) key is accepted for the price of a hash-table probe, so
     retransmits, replayed justifications and catch-up closings stop
     re-paying exponentiations;
   - batch verification: two or more fresh same-statement share proofs
     are checked as one random-linear-combination equation
     (Crypto.Batch), with bisection isolating bad shares so Byzantine
     senders are still identified exactly.  Singletons and
     multi-signature shares (which have no combined equation) go through
     the single verifier.

   Acceptance is EXACTLY that of the reference one-at-a-time verifiers:
   cache keys cover the share bytes (a mutated retransmit misses and is
   verified for real), only shares that passed verification are inserted,
   and Crypto.Batch agrees with the single verifiers item by item.  Only
   the virtual-CPU charges move.

   Every entry point is one [kind] run through one of two bodies: [cached]
   (digest, probe, and on a miss charge, verify, record) or [cached_batch]
   (the same over a same-statement list, with the fresh remainder batched
   when the kind has a combined equation).

   The statement itself is hashed once per party: every real
   threshold-signature verification here takes its prepared statement
   from Runtime.statement, keyed by the full (ctx, msg), so the RSA
   full-domain hash a party computed when it released its own share (or
   checked the first share) is not recomputed for the rest.  Likewise the
   statement bytes at the front of every cache key are hashed once: a
   digest resumes from a SHA-256 midstate over them — the statement
   table's for threshold signatures, the decryption slot's [enc_stmt] for
   decryption shares — and absorbs only the item's bytes.  Keys and
   charges stay exactly those of hashing the whole input. *)

(* Cache schemes.  The key's digest covers the statement AND the share
   bytes, so a key identifies one concrete verification, not just a
   (statement, sender) slot — a corrupted retransmit cannot ride on an
   earlier honest share's entry. *)
let sch_tsig_share = "tsig-share"
let sch_tsig_sig = "tsig-sig"
let sch_coin = "coin"
let sch_enc = "enc-share"

(* One kind of cached verification over items of type ['a].  A key's
   digest input is [prefix] (the statement's bytes, already absorbed)
   followed by [parts x]. *)
type 'a kind = {
  scheme : string;
  origin : 'a -> int;            (* the sender, also the cache index *)
  prefix : Hashes.Sha256.midstate;  (* the statement bytes, hashed once *)
  parts : 'a -> string list;     (* the rest of the digest input: item bytes *)
  price : Charge.t -> unit;      (* the charge for one real verification *)
  verify : 'a -> bool;           (* the single verifier *)
}

let len_sum (parts : string list) : int =
  List.fold_left (fun a s -> a + String.length s) 0 parts

(* The S5 lint rule (cache-key-digest) checks that every Share_cache
   insertion is keyed through a Hashes digest; this is that digest.  It
   is charged for the whole input, prefix included, exactly as hashing it
   from scratch would be.  [charge] names the meter the hashing cost
   lands on: the party's protocol CPU by default, or the storage core
   when a durability endpoint verifies checkpoint certificates
   out-of-band. *)
let stmt_digest (charge : Charge.t) (prefix : Hashes.Sha256.midstate)
    (parts : string list) : string =
  Charge.hash charge ~bytes:(Hashes.Sha256.midstate_length prefix + len_sum parts);
  Hashes.Sha256.digest_from prefix parts

let probe (rt : Runtime.t) ~(charge : Charge.t) ~(scheme : string)
    ~(digest : string) ~(sender : int) : bool =
  if Crypto.Share_cache.mem rt.Runtime.cache ~scheme ~digest ~sender
       ~index:sender
  then begin
    Charge.cache_hit charge;
    Trace.Ctx.incr rt.Runtime.trace "verify.cache_hit";
    true
  end
  else begin
    Trace.Ctx.incr rt.Runtime.trace "verify.cache_miss";
    false
  end

let record (rt : Runtime.t) ~(group : string) ~(scheme : string)
    ~(digest : string) ~(sender : int) : unit =
  Crypto.Share_cache.add rt.Runtime.cache ~group ~scheme ~digest ~sender
    ~index:sender;
  Trace.Ctx.gauge rt.Runtime.trace "verify.cache_size"
    (float_of_int (Crypto.Share_cache.size rt.Runtime.cache))

(* A miss: pay for the real verification, run it, remember a pass. *)
let settle (rt : Runtime.t) ~(charge : Charge.t) ~(group : string)
    (kind : 'a kind) ~(digest : string) (x : 'a) : bool =
  kind.price charge;
  let ok = kind.verify x in
  if ok then record rt ~group ~scheme:kind.scheme ~digest ~sender:(kind.origin x);
  ok

(* The one cached check: probe, then charge, verify and record on a miss.
   Entries are grouped under [group] (the owning instance's pid) for
   eviction. *)
let cached (rt : Runtime.t) ~(charge : Charge.t) ~(group : string)
    (kind : 'a kind) (x : 'a) : bool =
  let digest = stmt_digest charge kind.prefix (kind.parts x) in
  probe rt ~charge ~scheme:kind.scheme ~digest ~sender:(kind.origin x)
  || settle rt ~charge ~group kind ~digest x

(* The one batched check over same-statement items: digest all, then probe
   each in order.  [batch fresh] returns the combined check for two or more
   fresh items when their kind has one (the 0-based positions it rejects),
   priced by [batch_price]; otherwise each fresh item is settled alone.
   [valid.(i)] reports item [i]. *)
let cached_batch (rt : Runtime.t) ~(charge : Charge.t) ~(group : string)
    (kind : 'a kind) ~(batch_price : Charge.t -> k:int -> unit)
    ~(batch : 'a list -> (unit -> int list) option) (xs : 'a list) :
    bool array =
  let valid = Array.make (List.length xs) false in
  let keyed =
    List.mapi (fun i x -> (i, stmt_digest charge kind.prefix (kind.parts x), x)) xs
  in
  let fresh =
    List.filter
      (fun (i, digest, x) ->
        if probe rt ~charge ~scheme:kind.scheme ~digest ~sender:(kind.origin x)
        then begin
          valid.(i) <- true;
          false
        end
        else true)
      keyed
  in
  let combined =
    match fresh with
    | _ :: _ :: _ -> batch (List.map (fun (_, _, x) -> x) fresh)
    | _ -> None
  in
  (match combined with
   | Some run ->
     let k = List.length fresh in
     batch_price charge ~k;
     Trace.Ctx.observe rt.Runtime.trace "verify.batch_size" (float_of_int k);
     (* Bisection proved the complement individually valid: cache it, so a
        retransmission without the bad items amortizes. *)
     let bad = run () in
     List.iteri
       (fun j (i, digest, x) ->
         if not (List.mem j bad) then begin
           valid.(i) <- true;
           record rt ~group ~scheme:kind.scheme ~digest ~sender:(kind.origin x)
         end)
       fresh
   | None ->
     List.iter
       (fun (i, digest, x) -> valid.(i) <- settle rt ~charge ~group kind ~digest x)
       fresh);
  valid

let rejected : Crypto.Batch.verdict -> int list = function
  | Crypto.Batch.All_valid -> []
  | Crypto.Batch.Invalid idxs -> idxs

(* --- threshold signatures --- *)

(* A multi-signature share or part is one RSA-FDH signature, unique for
   its key and statement: the statement table's known list answers a
   byte-identical (key, signature) pair this party signed or already
   checked, and every check that does run reports back to it, so parts
   met again inside assembled signatures are not re-checked.  The charge
   is the kind's, paid either way.  A Shoup key has no per-party
   signatures: nothing is known. *)
type memo = {
  known : (Crypto.Multi_sig.share -> bool) option;
  checked : (Crypto.Multi_sig.share -> bool -> unit) option;
}

let memo (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string) (msg : string) : memo =
  match pub with
  | Tsig.Shoup_pub _ -> { known = None; checked = None }
  | Tsig.Multi_pub p ->
    let stmts = rt.Runtime.stmts in
    let key (part : Crypto.Multi_sig.share) =
      p.Crypto.Multi_sig.party_keys.(part.Crypto.Multi_sig.origin - 1)
    in
    {
      known =
        Some (fun part ->
          Crypto.Stmt_table.known stmts ~ctx msg ~key:(key part)
            part.Crypto.Multi_sig.signature);
      checked =
        Some (fun part ok ->
          Crypto.Stmt_table.checked stmts ~ctx msg ~key:(key part)
            part.Crypto.Multi_sig.signature ok);
    }

let tsig_kind (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (stmt : Crypto.Rsa.stmt Lazy.t) : Tsig.share kind =
  {
    scheme = sch_tsig_share;
    origin = Tsig.share_origin;
    prefix = Crypto.Stmt_table.key_prefix rt.Runtime.stmts ~ctx msg;
    parts = (fun s -> [ Wire.encode (fun b -> Tsig.enc_share b s) ]);
    price = Charge.tsig_verify_share;
    verify =
      (fun s ->
        let m = memo rt ~pub ~ctx msg in
        Tsig.verify_share_stmt ?known:m.known ?checked:m.checked pub
          (Lazy.force stmt) s);
  }

let tsig_share ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (share : Tsig.share) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let stmt = lazy (Runtime.statement rt ~pub ~ctx msg) in
  cached rt ~charge ~group:ctx (tsig_kind rt ~pub ~ctx msg stmt) share

(* The combined equation only exists for Shoup shares under a Shoup key;
   multi-signature shares (independent RSA signatures) are settled one at
   a time. *)
let tsig_shares ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (shares : Tsig.share list) : bool array =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let stmt = lazy (Runtime.statement rt ~pub ~ctx msg) in
  let batch fresh =
    match pub with
    | Tsig.Multi_pub _ -> None
    | Tsig.Shoup_pub p ->
      let shoup =
        List.filter_map
          (function Tsig.Shoup_share s -> Some s | Tsig.Multi_share _ -> None)
          fresh
      in
      if List.length shoup < List.length fresh then None
      else
        Some
          (fun () ->
            rejected (Crypto.Batch.tsig_shares p (Lazy.force stmt) shoup))
  in
  cached_batch rt ~charge ~group:ctx (tsig_kind rt ~pub ~ctx msg stmt)
    ~batch_price:Charge.tsig_verify_share_batch ~batch shares

(* Closings and vote justifications repeat the same (statement, signature)
   pair across many messages — the cache collapses all but the first
   verification to a probe. *)
let tsig_signature ?charge (rt : Runtime.t) ~(pub : Tsig.public)
    ~(ctx : string) ~(signature : string) (msg : string) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  cached rt ~charge ~group:ctx
    {
      scheme = sch_tsig_sig;
      origin = (fun _ -> 0);
      prefix = Crypto.Stmt_table.key_prefix rt.Runtime.stmts ~ctx msg;
      parts = (fun signature -> [ signature ]);
      price = (fun charge -> Charge.tsig_verify charge ~k:(Tsig.k pub));
      verify =
        (fun signature ->
          let m = memo rt ~pub ~ctx msg in
          Tsig.verify_stmt ?known:m.known ?checked:m.checked pub ~signature
            (Runtime.statement rt ~pub ~ctx msg));
    }
    signature

(* --- threshold-decryption shares --- *)

type enc_stmt = {
  ct : Crypto.Threshold_enc.checked Crypto.Threshold_enc.ciphertext;
  key_prefix : Hashes.Sha256.midstate;
}

(* The ciphertext's canonical bytes open every decryption-share key on
   it: encoded and absorbed once, when the slot opens. *)
let enc_stmt (rt : Runtime.t)
    (ct : Crypto.Threshold_enc.checked Crypto.Threshold_enc.ciphertext) :
    enc_stmt =
  let bytes =
    Crypto.Threshold_enc.ciphertext_to_bytes rt.Runtime.keys.Dealer.enc_pub ct
  in
  { ct; key_prefix = Hashes.Sha256.midstate [ bytes ] }

let enc_dec_share (rt : Runtime.t) ~(group : string) ~(stmt : enc_stmt)
    (s : Crypto.Threshold_enc.dec_share) : bool =
  let pub = rt.Runtime.keys.Dealer.enc_pub in
  cached rt ~charge:rt.Runtime.charge ~group
    {
      scheme = sch_enc;
      origin = (fun s -> s.Crypto.Threshold_enc.origin);
      prefix = stmt.key_prefix;
      parts =
        (fun s ->
          [ string_of_int s.Crypto.Threshold_enc.origin;
            Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.u_i;
            Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a1;
            Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a2;
            Bignum.Nat.to_bytes_be
              s.Crypto.Threshold_enc.proof.Crypto.Dleq.response ]);
      price = Charge.enc_verify_share;
      verify = Crypto.Threshold_enc.verify_dec_share pub stmt.ct;
    }
    s

(* --- threshold-coin shares --- *)

(* A coin's statement is its short name, not worth a midstate of its own:
   the digest starts from the empty prefix (midstates are immutable). *)
let no_prefix : Hashes.Sha256.midstate = Hashes.Sha256.midstate []

let coin_kind (rt : Runtime.t) ~(name : string) : Crypto.Threshold_coin.share kind =
  {
    scheme = sch_coin;
    origin = (fun s -> s.Crypto.Threshold_coin.origin);
    prefix = no_prefix;
    parts =
      (fun s ->
        [ name;
          string_of_int s.Crypto.Threshold_coin.origin;
          Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.value;
          Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a1;
          Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a2;
          Bignum.Nat.to_bytes_be
            s.Crypto.Threshold_coin.proof.Crypto.Dleq.response ]);
    price = Charge.coin_verify_share;
    verify = Crypto.Threshold_coin.verify_share rt.Runtime.keys.Dealer.coin_pub ~name;
  }

let coin_share (rt : Runtime.t) ~(group : string) ~(name : string)
    (s : Crypto.Threshold_coin.share) : bool =
  cached rt ~charge:rt.Runtime.charge ~group (coin_kind rt ~name) s

(* All-or-nothing, the contract of a J_coin justification. *)
let coin_shares (rt : Runtime.t) ~(group : string) ~(name : string)
    (shares : Crypto.Threshold_coin.share list) : bool =
  let pub = rt.Runtime.keys.Dealer.coin_pub in
  Array.for_all Fun.id
    (cached_batch rt ~charge:rt.Runtime.charge ~group (coin_kind rt ~name)
       ~batch_price:Charge.coin_verify_share_batch
       ~batch:(fun fresh ->
         Some (fun () -> rejected (Crypto.Batch.coin_shares pub ~name fresh)))
       shares)
