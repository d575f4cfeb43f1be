(* A reference model of the paper's sequential atomic broadcast (Section
   2.5), against which test_abc_core checks Abc_core: one round at a time,
   one payload per INIT, no catch-up, and an abstract agreement that
   decides any valid batch.  It is the world around the party under test:
   the INITs every party signed, the honest peers that run the protocol,
   and the decided log every honest party delivers from. *)

open Abc_core

type t = {
  n : int;
  f : int;                                     (* tolerated faults (t) *)
  b : int;                                     (* batch size B = t+1 *)
  mutable tip : int;                           (* rounds below it decided *)
  log : (int, entry list) Hashtbl.t;           (* round -> decided batch *)
  inits : (int, (int, int * entry) Hashtbl.t) Hashtbl.t;
      (* round -> signer -> (arrival rank, INIT) *)
  delivered : (int * int, unit) Hashtbl.t;
  by_origin : (item, unit) Hashtbl.t;          (* items a vector their origin signed carried *)
  mutable order : (int * string) list;         (* (origin, payload), newest first *)
  queues : (int * string) list array;          (* honest peers' undelivered payloads *)
  next_seq : int array;
}

let create ~n ~f : t =
  { n; f; b = f + 1; tip = 0; log = Hashtbl.create 16; inits = Hashtbl.create 16;
    delivered = Hashtbl.create 64; by_origin = Hashtbl.create 64; order = [];
    queues = Array.make n []; next_seq = Array.make n 0 }

let pool (m : t) (round : int) : (int, int * entry) Hashtbl.t =
  match Hashtbl.find_opt m.inits round with
  | Some p -> p
  | None ->
    let p = Hashtbl.create 4 in
    Hashtbl.add m.inits round p;
    p

(* An INIT some party signed for [round]; a signer's first one stands. *)
let add_init (m : t) ~(round : int) (en : entry) : unit =
  let p = pool m round in
  if not (Hashtbl.mem p en.en_signer) then begin
    Hashtbl.add p en.en_signer (Hashtbl.length p, en);
    List.iter
      (fun it -> if it.it_orig = en.en_signer then Hashtbl.replace m.by_origin it ())
      en.en_items
  end

let signed (m : t) ~(round : int) ~(signer : int) : entry option =
  Option.map snd (Hashtbl.find_opt (pool m round) signer)

let arrivals (m : t) (round : int) : entry list =
  Det.values (pool m round) ~compare:Det.by_int
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let undelivered (m : t) (it : item) : bool =
  not (Hashtbl.mem m.delivered (it.it_orig, it.it_seq))

(* An honest peer queues a payload under its next sequence number that no
   delivered item (a forged one, say) already took. *)
let send (m : t) (j : int) (payload : string) : unit =
  while Hashtbl.mem m.delivered (j, m.next_seq.(j)) do
    m.next_seq.(j) <- m.next_seq.(j) + 1
  done;
  m.queues.(j) <- m.queues.(j) @ [ (m.next_seq.(j), payload) ];
  m.next_seq.(j) <- m.next_seq.(j) + 1

(* An honest peer's INIT for [round]: the head of its queue, else the first
   undelivered payload some INIT of the round carries under its signer's
   own origin, else nothing.  It INITs a round only when it has a payload
   or someone started the round. *)
let peer_init (m : t) (j : int) ~(round : int) : entry option =
  let p = pool m round in
  if Hashtbl.mem p j || (m.queues.(j) = [] && Hashtbl.length p = 0) then None
  else begin
    let items =
      match m.queues.(j) with
      | (seq, payload) :: _ -> [ { it_orig = j; it_seq = seq; it_payload = payload } ]
      | [] ->
        List.concat_map
          (fun en -> List.filter (fun it -> it.it_orig = en.en_signer) en.en_items)
          (arrivals m round)
        |> List.filter (undelivered m)
        |> List.filteri (fun i _ -> i = 0)
    in
    let en = { en_signer = j; en_items = items; en_sig = "" } in
    add_init m ~round en;
    Some en
  end

(* External validity: B vectors from distinct signers, each the INIT its
   signer signed for the round, none over one payload. *)
let valid (m : t) ~(round : int) (batch : entry list) : bool =
  List.length batch = m.b
  && List.length (List.sort_uniq compare (List.map (fun en -> en.en_signer) batch)) = m.b
  && List.for_all
       (fun en ->
         List.length en.en_items <= 1
         && signed m ~round ~signer:en.en_signer = Some en)
       batch

(* The abstract agreement decides the next round on [batch]; every honest
   party delivers the union of its payloads by (origin, seq), skipping
   delivered ones.  Returns what this round delivered. *)
let decide (m : t) (batch : entry list) : (int * string) list =
  assert (valid m ~round:m.tip batch);
  Hashtbl.replace m.log m.tip batch;
  m.tip <- m.tip + 1;
  let items =
    List.sort_uniq
      (fun a b -> compare (a.it_orig, a.it_seq) (b.it_orig, b.it_seq))
      (List.concat_map (fun en -> en.en_items) batch)
    |> List.filter (undelivered m)
  in
  List.iter
    (fun it ->
      Hashtbl.replace m.delivered (it.it_orig, it.it_seq) ();
      m.order <- (it.it_orig, it.it_payload) :: m.order;
      m.queues.(it.it_orig) <-
        List.filter (fun (s, _) -> s <> it.it_seq) m.queues.(it.it_orig))
    items;
  List.map (fun it -> (it.it_orig, it.it_payload)) items

(* The checkpoint state after the rounds below [round]: base, the delivered
   (origin, seq) set as sorted runs, no termination requests — the blob
   every honest party at that round signs. *)
let state_at (m : t) (round : int) : string =
  let seen = Hashtbl.create 64 in
  for r = 0 to round - 1 do
    List.iter
      (fun en ->
        List.iter (fun it -> Hashtbl.replace seen (it.it_orig, it.it_seq) ()) en.en_items)
      (Hashtbl.find m.log r)
  done;
  let runs =
    List.fold_left
      (fun runs (o, s) ->
        match runs with
        | (o', lo, hi) :: rest when o' = o && s = hi + 1 -> (o, lo, s) :: rest
        | _ -> (o, s, s) :: runs)
      [] (Det.keys seen ~compare:Det.by_int_pair)
  in
  Wire.encode (fun b ->
    Wire.Enc.int b round;
    Wire.Enc.list b
      (fun b (o, lo, hi) ->
        Wire.Enc.int b o;
        Wire.Enc.int b lo;
        Wire.Enc.int b (hi - lo))
      (List.rev runs);
    Wire.Enc.list b (fun b p -> Wire.Enc.int b p) [])
