(* A bounded, deterministic cache of verified shares.

   Retransmitted frames, replayed justifications and catch-up DECIDED
   batches carry shares the receiver has already verified; re-running the
   proof check costs a multi-exponentiation per share.  This cache
   remembers (scheme, message digest, sender, share index) for every share
   that passed verification, so the second sighting costs a hash-table
   probe.

   Determinism and bounded memory are load-bearing:

   - Keys are flat strings over a *digest* of the message (enforced here by
     length, and at call sites by the sintra-lint S5 rule `cache-key-digest`)
     — never structural values, whose polymorphic hashing would leak
     representation details into behaviour.
   - Membership tests and insertions never iterate the table; eviction is
     FIFO by latest insertion (a queue of stamped keys), so cache behaviour
     is a pure function of the call sequence.
   - Entries belong to a [group] (protocol-instance id); when an instance
     is garbage-collected its group is evicted wholesale, so a replayed
     frame arriving after round GC cannot resurrect verification state.
     The secure channel groups its decryption shares per slot and evicts
     a slot's group when the slot is delivered.
   - The table never exceeds [cap] entries, and memory follows the live
     entries, not the history: every insertion is stamped, a FIFO key or
     group key whose stamp is no longer its entry's is stale, and group
     eviction compacts the FIFO once it holds more than 2·size + 64 keys
     (so [retained] never exceeds that), each compaction paid for by the
     stale keys it drops.  A group whose entries all left under capacity
     pressure is forgotten, and its key list is compacted the same way. *)

(* A group's insertions, newest first.  [listed] is the list's length and
   [live] how many of its pairs are still current; stale pairs are dropped
   when [listed] outgrows 2·live + 8, or with the group. *)
type group = {
  name : string;
  mutable keys : (string * int) list;
  mutable listed : int;
  mutable live : int;
}

type entry = { grp : group; stamp : int }

type t = {
  cap : int;
  tbl : (string, entry) Hashtbl.t;           (* key -> its group and stamp *)
  order : (string * int) Queue.t;            (* (key, stamp) by insertion; may hold stale pairs *)
  groups : (string, group) Hashtbl.t;        (* groups with live entries *)
  mutable clock : int;                       (* the next insertion stamp *)
  mutable peak_retained : int;
  mutable hits : int;
}

let create ~(cap : int) : t =
  if cap < 1 then invalid_arg "Share_cache.create: cap must be >= 1";
  {
    cap;
    tbl = Hashtbl.create (min cap 256);
    order = Queue.create ();
    groups = Hashtbl.create 64;
    clock = 0;
    peak_retained = 0;
    hits = 0;
  }

let key ~(scheme : string) ~(digest : string) ~(sender : int) ~(index : int)
    : string =
  (* 20- and 32-byte digests are the repository's SHA-1/SHA-256 outputs;
     anything else is a structural key smuggled in. *)
  if String.length digest <> 20 && String.length digest <> 32 then
    invalid_arg "Share_cache: key digest must be a SHA-1 or SHA-256 digest";
  String.concat "|" [ scheme; string_of_int sender; string_of_int index; digest ]

let size (t : t) : int = Hashtbl.length t.tbl
let retained (t : t) : int = Queue.length t.order
let peak_retained (t : t) : int = t.peak_retained
let hits (t : t) : int = t.hits

let mem (t : t) ~scheme ~digest ~sender ~index : bool =
  let k = key ~scheme ~digest ~sender ~index in
  let found = Hashtbl.mem t.tbl k in
  if found then t.hits <- t.hits + 1;
  found

(* A (key, stamp) pair is current while the table holds that key from
   that insertion. *)
let current (t : t) ((k, stamp) : string * int) : bool =
  match Hashtbl.find_opt t.tbl k with
  | Some e -> e.stamp = stamp
  | None -> false

(* Pop FIFO pairs until one is still current, and drop its entry.  Stale
   pairs (evicted with their group, or superseded by a later insertion of
   the same key) are skipped for free. *)
let rec evict_oldest (t : t) : unit =
  match Queue.take_opt t.order with
  | None -> ()
  | Some (k, stamp) ->
    match Hashtbl.find_opt t.tbl k with
    | Some { grp = g; stamp = s } when s = stamp ->
      Hashtbl.remove t.tbl k;
      g.live <- g.live - 1;
      if g.live = 0 then Hashtbl.remove t.groups g.name
      else if g.listed > (2 * g.live) + 8 then begin
        g.keys <- List.filter (current t) g.keys;
        g.listed <- g.live
      end
    | Some _ | None -> evict_oldest t

let add (t : t) ~(group : string) ~scheme ~digest ~sender ~index : unit =
  let k = key ~scheme ~digest ~sender ~index in
  if not (Hashtbl.mem t.tbl k) then begin
    if Hashtbl.length t.tbl >= t.cap then evict_oldest t;
    let g =
      match Hashtbl.find_opt t.groups group with
      | Some g -> g
      | None ->
        let g = { name = group; keys = []; listed = 0; live = 0 } in
        Hashtbl.replace t.groups group g;
        g
    in
    let p = (k, t.clock) in
    Hashtbl.replace t.tbl k { grp = g; stamp = t.clock };
    t.clock <- t.clock + 1;
    Queue.add p t.order;
    g.keys <- p :: g.keys;
    g.listed <- g.listed + 1;
    g.live <- g.live + 1;
    if Queue.length t.order > t.peak_retained then
      t.peak_retained <- Queue.length t.order
  end

(* Keep only the current pairs of the FIFO, in order: one per entry. *)
let compact (t : t) : unit =
  let live = Queue.create () in
  Queue.iter (fun p -> if current t p then Queue.add p live) t.order;
  Queue.clear t.order;
  Queue.transfer live t.order

let evict_group (t : t) (group : string) : unit =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some g ->
    (* A stale pair's key may be live again in another group: only the
       current pairs are this group's. *)
    List.iter (fun ((k, _) as p) -> if current t p then Hashtbl.remove t.tbl k) g.keys;
    Hashtbl.remove t.groups group;
    if Queue.length t.order > (2 * size t) + 64 then compact t

let clear (t : t) : unit =
  Hashtbl.reset t.tbl;
  Queue.clear t.order;
  Hashtbl.reset t.groups
