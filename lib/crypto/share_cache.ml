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
     FIFO in insertion order (a queue), so cache behaviour is a pure
     function of the call sequence.
   - Entries belong to a [group] (protocol-instance id); when an instance
     is garbage-collected its group is evicted wholesale, so a replayed
     frame arriving after round GC cannot resurrect verification state.
   - The table never exceeds [cap] entries. *)

type t = {
  cap : int;
  tbl : (string, string) Hashtbl.t;            (* key -> group *)
  order : string Queue.t;                      (* insertion order; may hold stale keys *)
  groups : (string, string list ref) Hashtbl.t;  (* group -> its keys *)
  mutable hits : int;
}

let create ~(cap : int) : t =
  if cap < 1 then invalid_arg "Share_cache.create: cap must be >= 1";
  {
    cap;
    tbl = Hashtbl.create (min cap 256);
    order = Queue.create ();
    groups = Hashtbl.create 64;
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
let hits (t : t) : int = t.hits

let mem (t : t) ~scheme ~digest ~sender ~index : bool =
  let k = key ~scheme ~digest ~sender ~index in
  let found = Hashtbl.mem t.tbl k in
  if found then t.hits <- t.hits + 1;
  found

(* Pop FIFO entries until one is still live, and drop it.  Stale queue
   entries (evicted with their group) are skipped for free. *)
let rec evict_oldest (t : t) : unit =
  match Queue.take_opt t.order with
  | None -> ()
  | Some k ->
    if Hashtbl.mem t.tbl k then Hashtbl.remove t.tbl k
    else evict_oldest t

let add (t : t) ~(group : string) ~scheme ~digest ~sender ~index : unit =
  let k = key ~scheme ~digest ~sender ~index in
  if not (Hashtbl.mem t.tbl k) then begin
    if Hashtbl.length t.tbl >= t.cap then evict_oldest t;
    Hashtbl.replace t.tbl k group;
    Queue.add k t.order;
    let keys =
      match Hashtbl.find_opt t.groups group with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.groups group l;
        l
    in
    keys := k :: !keys
  end

let evict_group (t : t) (group : string) : unit =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some keys ->
    List.iter (fun k -> Hashtbl.remove t.tbl k) !keys;
    Hashtbl.remove t.groups group

let clear (t : t) : unit =
  Hashtbl.reset t.tbl;
  Queue.clear t.order;
  Hashtbl.reset t.groups
