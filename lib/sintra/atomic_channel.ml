(* The atomic broadcast channel (Section 2.5): the shell around Abc_core.

   The core (lib/abc) holds the protocol: the round window, the own-payload
   ledger, INIT and batch selection, the reorder buffer, catch-up and the
   checkpointed state (its header tells the protocol).  This shell is
   everything that touches the engine: the wire codec of INIT / DECIDED /
   REQUEST frames, the RSA signature over each INIT vector with its
   charges, tracing, registration with the Runtime, and the per-round
   multi-valued agreement whose external validity checks a batch's
   signatures.  It decodes and verifies what arrives before the core sees
   it, and turns the core's ports into frames.

   One RSA signature covers a whole INIT vector, so per-round crypto cost
   is amortized over every payload in it.  An INIT's signature is verified
   once per party: the agreement's validity checks of every proposal
   carrying it reuse the pooled verification.

   The default window is 2.  Every round in flight costs every party a
   full round of signatures and frames and re-carries the pending prefix,
   so once the virtual CPUs are busy a deeper window buys queueing, not
   capacity.  At 4 the benchmark's virtual CPUs ran saturated, and a depth
   sweep put 4 behind 1, 2 and 3 on median latency and on saturation
   throughput; 2 is the one depth that beat 4 on every point measured
   (EXPERIMENTS.md, "Round pipelining").

   One cap: every vector carries its pending prefix up to [max_batch].
   One signature covers a vector whatever its length, and hashing and wire
   bytes scale with the payloads it carries, so a lower cap only holds a
   backlog back (EXPERIMENTS.md, "One batch cap").  With [max_batch = 1]
   each vector carries at most one payload and the channel degrades to the
   original one-payload-per-party rounds (the benchmarks' --no-batching
   baseline). *)

open Abc_core

type t = {
  rt : Runtime.t;
  pid : string;
  core : Abc_core.t Lazy.t;
  agreements : (int, Array_agreement.t) Hashtbl.t;   (* per round, until ended *)
}

let tag_init = 0
let tag_decided = 1
let tag_request = 2

(* Batch-occupancy and queue-depth buckets: payload counts, not latencies. *)
let count_buckets =
  [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

(* Wait buckets: rounds a payload waited, one bucket per round where the
   tail lives. *)
let wait_buckets = [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 8.; 12.; 16.; 32.; 64. |]

let core (t : t) : Abc_core.t = Lazy.force t.core

let enc_item (b : Wire.Enc.t) (it : item) : unit =
  Wire.Enc.int b it.it_orig;
  Wire.Enc.int b it.it_seq;
  Wire.Enc.bytes b it.it_payload

let dec_item (d : Wire.Dec.t) : item =
  let it_orig = Wire.Dec.int d in
  let it_seq = Wire.Dec.int d in
  let it_payload = Wire.Dec.bytes d in
  { it_orig; it_seq; it_payload }

let enc_entry (b : Wire.Enc.t) (en : entry) : unit =
  Wire.Enc.int b en.en_signer;
  Wire.Enc.list b enc_item en.en_items;
  Wire.Enc.bytes b en.en_sig

let dec_entry (d : Wire.Dec.t) : entry =
  let en_signer = Wire.Dec.int d in
  let en_items = Wire.Dec.list d dec_item in
  let en_sig = Wire.Dec.bytes d in
  { en_signer; en_items; en_sig }

let decode_batch (batch : string) : entry list option =
  Wire.decode batch (fun d -> Wire.Dec.list d dec_entry)

(* The signed statement: one signature binds the round, the signer and a
   digest of the whole payload vector — per-round crypto cost is constant
   in the vector length. *)
let init_stmt (t : t) ~(round : int) ~(signer : int) (items : item list) : string =
  let encoded = Wire.encode (fun b -> Wire.Enc.list b enc_item items) in
  Charge.hash t.rt.Runtime.charge ~bytes:(String.length encoded);
  let digest = Hashes.Sha256.digest encoded in
  Printf.sprintf "abc-init|%s|%d|%d|%s" t.pid round signer digest

(* The length of the vector encoding [init_stmt] hashes, from the varint
   sizes alone. *)
let items_encoded_length (items : item list) : int =
  List.fold_left
    (fun acc it ->
      let len = String.length it.it_payload in
      acc + Wire.Enc.int_length it.it_orig + Wire.Enc.int_length it.it_seq
      + Wire.Enc.int_length len + len)
    (Wire.Enc.int_length (List.length items)) items

let item_equal (a : item) (b : item) : bool =
  a.it_orig = b.it_orig && a.it_seq = b.it_seq && String.equal a.it_payload b.it_payload

(* Whether [en] is, byte for byte, the INIT pooled for its signer in
   [round].  An INIT enters the pool only after passing
   [entry_signature_valid] (or is our own, signed here), and that check is
   a pure function of (pid, round, signer, items, signature), so an exact
   match answers it without the RSA verification. *)
let pooled_init (t : t) ~(round : int) (en : entry) : bool =
  match Abc_core.pooled (core t) ~round ~signer:en.en_signer with
  | Some pooled ->
    String.equal pooled.en_sig en.en_sig
    && List.equal item_equal pooled.en_items en.en_items
  | None -> false

(* Each party verifies an INIT signature once: the MVBA validity checks of
   every proposal carrying it reuse the pooled verification.  A reuse is
   charged exactly as the verification it replaces (RSA, then the vector
   hash), so virtual time does not depend on the pool; the registry counts
   what really ran. *)
let entry_signature_valid (t : t) ~(round : int) (en : entry) : bool =
  en.en_signer >= 0 && en.en_signer < t.rt.Runtime.cfg.Config.n
  && List.for_all
       (fun it ->
         it.it_orig >= 0 && it.it_orig < t.rt.Runtime.cfg.Config.n
         && it.it_seq >= 0)
       en.en_items
  && begin
    Charge.rsa_verify t.rt.Runtime.charge;
    if pooled_init t ~round en then begin
      Charge.hash t.rt.Runtime.charge ~bytes:(items_encoded_length en.en_items);
      Trace.Ctx.incr t.rt.Runtime.trace "abc.init_sig_reused";
      true
    end
    else begin
      Trace.Ctx.incr t.rt.Runtime.trace "abc.init_sig_verified";
      Crypto.Rsa.verify t.rt.Runtime.keys.Dealer.sign_pks.(en.en_signer)
        ~ctx:t.pid ~signature:en.en_sig
        (init_stmt t ~round ~signer:en.en_signer en.en_items)
    end
  end

(* External validity for a round's batch: B entries, distinct signers, no
   vector over the cap, all vector signatures valid for this round (one
   verification per entry, not per payload). *)
let batch_valid (t : t) ~(round : int) (batch : string) : bool =
  match decode_batch batch with
  | None -> false
  | Some entries ->
    let b = t.rt.Runtime.cfg.Config.batch_size in
    List.length entries = b
    && begin
      let signers =
        List.sort_uniq compare (List.map (fun en -> en.en_signer) entries)
      in
      List.length signers = b
    end
    && List.for_all
         (fun en -> List.length en.en_items <= t.rt.Runtime.cfg.Config.max_batch)
         entries
    && List.for_all (fun en -> entry_signature_valid t ~round en) entries

(* --- tracing: queue -> agree -> deliver, one round span per round on the
   channel's thread with the agreement span nested inside it; concurrent
   rounds interleave their spans on the same lane (the Chrome sink checks
   begin/end balance, not nesting). --- *)

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let trace_phase (t : t) (name : string) (r : int) (ph : Trace.Event.phase) :
    unit =
  let tr = trace t in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time:(Trace.Ctx.now tr) ~pid:t.pid ~cat:"abc" ~ph
      ~args:[ ("round", Trace.Event.Int r) ]
      (Printf.sprintf "%s %d" name r)

let note (t : t) (n : note) : unit =
  let tr = trace t in
  match n with
  | Enqueued seq ->
    if Trace.Ctx.enabled tr then
      Trace.Ctx.instant tr ~pid:t.pid ~cat:"abc" ~args:[ ("seq", Trace.Event.Int seq) ]
        "enqueue"
  | Sample (name, v) ->
    Trace.Ctx.observe tr ~buckets:count_buckets name (float_of_int v)
  | Latency at -> Trace.Ctx.observe tr "abc.latency" (Runtime.now t.rt -. at)
  | Waited r ->
    Trace.Ctx.observe tr ~buckets:wait_buckets "abc.wait_rounds" (float_of_int r)
  | Delivered it ->
    if Trace.Ctx.enabled tr then
      Trace.Ctx.instant tr ~pid:t.pid ~cat:"abc"
        ~args:
          [ ("sender", Trace.Event.Int it.it_orig); ("seq", Trace.Event.Int it.it_seq) ]
        "deliver"
  | Batch fresh ->
    (* Throughput accounting: rounds, payloads carried, and how full the
       decided batches run (the batch-occupancy histogram behind the
       latency-vs-throughput crossover). *)
    Trace.Ctx.incr tr "abc.rounds";
    Trace.Ctx.count tr "abc.batch_payloads" (float_of_int fresh);
    Trace.Ctx.observe tr ~buckets:count_buckets "abc.batch_occupancy"
      (float_of_int fresh)
  | Span_end (name, r) -> trace_phase t name r Trace.Event.Span_end
  | Incr name -> Trace.Ctx.incr tr name

type msg =
  | Init of int * entry
  | Decided of int * string
  | Request of int

let decode_msg (body : string) : msg option =
  Wire.decode body (fun d ->
    let tag = Wire.Dec.u8 d in
    let round = Wire.Dec.int d in
    if tag = tag_init then Init (round, dec_entry d)
    else if tag = tag_decided then Decided (round, Wire.Dec.bytes d)
    else if tag = tag_request then Request round
    else Wire.fail "abc: unknown tag %d" tag)

let frame (tag : int) (round : int) (rest : Wire.Enc.t -> unit) : string =
  Wire.encode (fun b ->
    Wire.Enc.u8 b tag;
    Wire.Enc.int b round;
    rest b)

let send_init (t : t) ~(round : int) (items : item list) : entry =
  trace_phase t "round" round Trace.Event.Span_begin;
  Charge.rsa_sign t.rt.Runtime.charge;
  let signature =
    Crypto.Rsa.sign t.rt.Runtime.keys.Dealer.sign_sk ~ctx:t.pid
      (init_stmt t ~round ~signer:t.rt.Runtime.me items)
  in
  let en = { en_signer = t.rt.Runtime.me; en_items = items; en_sig = signature } in
  Runtime.broadcast t.rt ~pid:t.pid (frame tag_init round (fun b -> enc_entry b en));
  en

let propose (t : t) ~(round : int) (batch : entry list) : unit =
  let encoded = Wire.encode (fun b -> Wire.Enc.list b enc_entry batch) in
  trace_phase t "agree" round Trace.Event.Span_begin;
  let m =
    Array_agreement.create t.rt ~pid:(Printf.sprintf "%s/mv.%d" t.pid round)
      ~validator:(fun batch -> batch_valid t ~round batch)
      ~on_decide:(fun decided -> Abc_core.decided (core t) ~round decided)
  in
  Hashtbl.replace t.agreements round m;
  Array_agreement.propose m encoded

(* The agreements of rounds below [below] are done with.  The core calls
   this a grace period after a round's delivery, so lagging parties can
   still have our (already broadcast) messages replayed from their orphan
   buffers. *)
let end_agreements (t : t) ~(below : int) : unit =
  Det.iter t.agreements ~compare:Det.by_int (fun r m ->
    if r < below then begin
      Array_agreement.abort m;
      Hashtbl.remove t.agreements r
    end)

let ports (t : t) ~on_deliver ~on_round_end ~on_close : ports =
  {
    send_init = send_init t;
    propose = propose t;
    decode = decode_batch;
    end_agreements = end_agreements t;
    may_request = (fun () -> not (Runtime.rebuilding t.rt));
    send_request =
      (fun base -> Runtime.broadcast t.rt ~pid:t.pid (frame tag_request base ignore));
    send_decided =
      (fun ~dst ~round batch ->
        Runtime.send t.rt ~dst ~pid:t.pid
          (frame tag_decided round (fun b -> Wire.Enc.bytes b batch)));
    deliver = on_deliver;
    round_end = on_round_end;
    on_close;
    note = note t;
  }

let handle (t : t) ~src body =
  let c = core t in
  if not (Abc_core.closed c) then begin
    match decode_msg body with
    | None -> ()
    | Some m ->
      let inv = t.rt.Runtime.inv in
      Invariant.sender_in_range inv src;
      Runtime.handling t.rt ~pid:t.pid ~cat:"abc"
        (match m with
        | Init _ -> "init"
        | Decided _ -> "decided"
        | Request _ -> "request");
      match m with
      | Init (round, en) when en.en_signer = src && round >= Abc_core.base c ->
        let held = Abc_core.pooled c ~round ~signer:src in
        (* A conflicting, validly signed INIT from a signer we already hold
           one from is Byzantine evidence — record it, drop the duplicate. *)
        (match held with
         | Some prev
           when prev.en_items <> en.en_items && entry_signature_valid t ~round en ->
           Invariant.flag inv ~offender:src
             (Printf.sprintf "abc %s: conflicting INIT in round %d" t.pid round)
         | Some _ | None -> ());
        if Option.is_none held
           && List.length en.en_items <= t.rt.Runtime.cfg.Config.max_batch
           && entry_signature_valid t ~round en
        then Abc_core.init_received c ~round en
      | Init _ -> ()   (* stale, or not signed by its sender *)
      | Request round -> Abc_core.request_received c ~src ~round
      | Decided (round, batch) ->
        if not (Abc_core.claim_received c ~src ~round batch) then
          Invariant.flag inv ~offender:src
            (Printf.sprintf "abc %s: conflicting DECIDED for round %d" t.pid round)
  end

let create (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit)
    ?(on_round_end = fun () -> ()) ?(on_close = fun () -> ()) () : t =
  let cfg = rt.Runtime.cfg in
  let params =
    { n = cfg.Config.n; t = cfg.Config.t; me = rt.Runtime.me;
      batch_size = cfg.Config.batch_size; max_batch = cfg.Config.max_batch;
      window = cfg.Config.pipeline_depth }
  in
  let rec t =
    { rt; pid; agreements = Hashtbl.create 8;
      core =
        lazy (Abc_core.create params (ports t ~on_deliver ~on_round_end ~on_close)) }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  (* A rebuilt party pulls once its rebuild is over: in a quiet cluster no
     peer traffic would ever make it ask.  Without this pull eight tests
     fail, among them test_store's restarts into a quiet cluster and its
     snapshot adoption, test_pipeline "rebuilt party catches up across an
     open window" and test_batching's seq-clash heal. *)
  Runtime.after_rebuild rt (fun () -> Abc_core.request (core t));
  t

let send (t : t) (payload : string) : unit =
  if Abc_core.closed (core t) then invalid_arg "Atomic_channel.send: channel closed";
  Abc_core.send (core t) ~at:(Runtime.now t.rt) payload

let close (t : t) : unit = Abc_core.close (core t) ~at:(Runtime.now t.rt)

let deliveries (t : t) = Abc_core.deliveries (core t)
let current_round (t : t) = Abc_core.base (core t)
let rounds_completed (t : t) = Abc_core.rounds_completed (core t)

(* Re-feed one decided round from the local WAL (recovery replay).  The
   batch re-enters through the normal reorder buffer, so replaying rounds
   in log order re-delivers them in round order, byte for byte.  The disk
   is NOT trusted: the batch must carry its full complement of valid INIT
   signatures over this round number (the same external-validity predicate
   the agreement enforces), so a tampered log can lose history but never
   forge it.  The CRC catches accidents; this check catches malice. *)
let adopt_round (t : t) ~(round : int) ~(batch : string) : unit =
  if Abc_core.awaits (core t) ~round && batch_valid t ~round batch then
    Abc_core.decided (core t) ~round batch

let abort (t : t) : unit =
  Abc_core.abort (core t);
  Runtime.unregister t.rt ~pid:t.pid
