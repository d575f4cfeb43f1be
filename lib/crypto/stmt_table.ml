(* Prepared threshold-signature statements, one table per party.

   A party hashes the same (ctx, msg) statement many times over one
   protocol instance: once to release its own share, then again for every
   share, closing and justification it checks on the same statement.
   This table keeps the prepared statement (Rsa.prepare: the SHA-256
   blocks of the full-domain hash) so each statement is hashed once per
   party.

   - The key is the full (ctx, msg) pair, compared by string equality, so
     a hit returns exactly what preparing afresh would: acceptance cannot
     change.  Statements are prepared for one modulus length; Rsa.fdh_stmt
     re-hashes for a key of any other length.
   - Entries are grouped by ctx — the protocol instance's pid — and a
     group is evicted wholesale when its instance unregisters, like
     Share_cache; [clear] drops everything on a crash.
   - The table never exceeds [cap] entries: statements of instances that
     never unregister here (closings checked for a peer's instance) would
     otherwise accumulate, so reaching the cap empties the table.  Losing
     an entry costs one re-hash, never a different answer.
   - An entry also keeps the SHA-256 midstate over ctx ‖ msg, the prefix
     of every share-cache key on the statement, hashed on first use.  A
     cache probe may create the entry before anything prepares the RSA
     statement; [hashed] and [reused] count preparations and prepared
     answers only.
   - An entry also keeps the RSA signatures on the statement this party
     knows are valid — its own multi-signature shares and every share or
     multi-signature part that passed a real check — each with the key
     it is valid under.  An RSA-FDH signature is unique for a key and a
     statement, so a byte-identical (key, signature) pair would pass the
     check again: [known] answers it without the exponentiation.  At
     most one signature per key is kept (a key has only one), so at most
     n per statement and key set.  A pair is only ever recorded on an
     existing entry, so the known lists never change what the table
     holds or when it empties. *)

type entry = {
  mutable stmt : Rsa.stmt option;       (* None until a [find] prepares it *)
  key_prefix : Hashes.Sha256.midstate Lazy.t;
  mutable known : (Rsa.public * string) list;  (* valid (key, signature) pairs *)
}

type t = {
  cap : int;
  groups : (string, (string, entry) Hashtbl.t) Hashtbl.t;  (* ctx -> msg -> entry *)
  mutable size : int;
  mutable peak : int;
  mutable hashed : int;
  mutable reused : int;
  mutable share_known : int;
  mutable share_checked : int;
}

let create ~(cap : int) : t =
  if cap < 1 then invalid_arg "Stmt_table.create: cap must be >= 1";
  { cap; groups = Hashtbl.create 64; size = 0; peak = 0; hashed = 0; reused = 0;
    share_known = 0; share_checked = 0 }

let size (t : t) : int = t.size
let peak (t : t) : int = t.peak
let hashed (t : t) : int = t.hashed
let reused (t : t) : int = t.reused
let share_known (t : t) : int = t.share_known
let share_checked (t : t) : int = t.share_checked

let clear (t : t) : unit =
  Hashtbl.reset t.groups;
  t.size <- 0

(* The entry for (ctx, msg), created (unprepared) if absent — emptying
   the table first if it is full. *)
let existing (t : t) ~(ctx : string) (msg : string) : entry option =
  Option.bind (Hashtbl.find_opt t.groups ctx) (fun g -> Hashtbl.find_opt g msg)

let entry (t : t) ~(ctx : string) (msg : string) : entry =
  match existing t ~ctx msg with
  | Some en -> en
  | None ->
    if t.size >= t.cap then clear t;
    let g =
      match Hashtbl.find_opt t.groups ctx with
      | Some g -> g
      | None ->
        let g = Hashtbl.create 8 in
        Hashtbl.replace t.groups ctx g;
        g
    in
    let en =
      { stmt = None; key_prefix = lazy (Hashes.Sha256.midstate [ ctx; msg ]);
        known = [] }
    in
    Hashtbl.replace g msg en;
    t.size <- t.size + 1;
    if t.size > t.peak then t.peak <- t.size;
    en

let find (t : t) ~(nbytes : int) ~(ctx : string) (msg : string) : Rsa.stmt =
  let en = entry t ~ctx msg in
  match en.stmt with
  | Some st ->
    t.reused <- t.reused + 1;
    st
  | None ->
    t.hashed <- t.hashed + 1;
    let st = Rsa.prepare ~nbytes ~ctx msg in
    en.stmt <- Some st;
    st

let key_prefix (t : t) ~(ctx : string) (msg : string) : Hashes.Sha256.midstate =
  Lazy.force (entry t ~ctx msg).key_prefix

let same_key (a : Rsa.public) (b : Rsa.public) : bool =
  Bignum.Nat.equal a.Rsa.n b.Rsa.n && Bignum.Nat.equal a.Rsa.e b.Rsa.e

let learn (t : t) ~(ctx : string) (msg : string) ~(key : Rsa.public)
    (signature : string) : unit =
  match existing t ~ctx msg with
  | None -> ()
  | Some en ->
    if not (List.exists (fun (k, _) -> same_key k key) en.known) then
      en.known <- (key, signature) :: en.known

let known (t : t) ~(ctx : string) (msg : string) ~(key : Rsa.public)
    (signature : string) : bool =
  let hit =
    match existing t ~ctx msg with
    | None -> false
    | Some en ->
      List.exists
        (fun (k, s) -> same_key k key && String.equal s signature)
        en.known
  in
  if hit then t.share_known <- t.share_known + 1;
  hit

let checked (t : t) ~(ctx : string) (msg : string) ~(key : Rsa.public)
    (signature : string) (valid : bool) : unit =
  t.share_checked <- t.share_checked + 1;
  if valid then learn t ~ctx msg ~key signature

let evict_group (t : t) (ctx : string) : unit =
  match Hashtbl.find_opt t.groups ctx with
  | None -> ()
  | Some g ->
    t.size <- t.size - Hashtbl.length g;
    Hashtbl.remove t.groups ctx
