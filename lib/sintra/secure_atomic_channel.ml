(* Secure causal atomic broadcast (Section 2.6): an atomic broadcast channel
   whose payloads are encrypted under the group's TDH2 threshold key, so a
   payload remains confidential until its position in the delivery sequence
   is fixed — which is what enforces causal order against a Byzantine
   adversary (Reiter-Birman).

   send: encrypt under the channel public key, broadcast the ciphertext
   atomically.  On every atomic delivery, each party releases a decryption
   share (one extra round of interaction); t+1 valid shares recover the
   cleartext, and cleartexts are delivered strictly in atomic order.

   Shares travel per delivered round, not per ciphertext: each delivery
   opens its slot and queues our share, and when the atomic round ends
   ([Atomic_channel.create]'s [on_round_end]) one "<pid>/dec" frame
   carrying every share of the round goes to each peer.  A frame is the
   share record (index, origin, u_i, proof) repeated, with no count
   prefix; a one-payload round sends exactly the single-record frame a
   per-share channel would, at the same point of the handler.  Shares for
   slots not yet open here are buffered, the first per (slot, sender). *)

type slot = {
  sl_index : int;
  sl_sender : int;
  sl_stmt : Verify.enc_stmt;   (* the validated ciphertext and its key prefix *)
  sl_group : string;           (* the share-cache group of its decryption shares *)
  shares : (int, Crypto.Threshold_enc.dec_share) Hashtbl.t;
  mutable plaintext : string option;
}

type t = {
  rt : Runtime.t;
  pid : string;
  on_deliver : sender:int -> string -> unit;
  on_ciphertext : (sender:int -> string -> unit) option;
  mutable atomic : Atomic_channel.t option;
  slots : (int, slot) Hashtbl.t;          (* atomic delivery index -> open slot *)
  dead : (int, unit) Hashtbl.t;           (* slots holding invalid ciphertexts *)
  pending_shares :
    (int, (int * Crypto.Threshold_enc.dec_share) Queue.t) Hashtbl.t;
      (* shares arriving before the slot opens: the first per sender, in
         arrival order *)
  opened : (slot * Crypto.Threshold_enc.dec_share) Queue.t;
      (* slots opened in the current atomic round, with our share *)
  own_cts :
    (string, Crypto.Threshold_enc.checked Crypto.Threshold_enc.ciphertext) Hashtbl.t;
      (* ciphertexts we encrypted and have not yet seen delivered, by their
         bytes: valid by construction, so delivering the same bytes needs
         no check *)
  mutable next_index : int;               (* next atomic delivery index *)
  mutable next_emit : int;                (* next slot to deliver in order *)
}

let dec_pid (t : t) : string = t.pid ^ "/dec"

let label (pid : string) : string = "sac|" ^ pid

(* Tracing: one "decrypt" span per ordered slot on the channel's decryption
   thread — the extra round of interaction the paper puts on the critical
   path — plus an instant per in-order cleartext delivery. *)
let trace_slot (t : t) (index : int) (ph : Trace.Event.phase) : unit =
  let tr = t.rt.Runtime.trace in
  if Trace.Ctx.enabled tr then
    Trace.Ctx.emit_at tr ~time:(Trace.Ctx.now tr) ~pid:(dec_pid t) ~cat:"abc"
      ~ph
      ~args:[ ("index", Trace.Event.Int index) ]
      (Printf.sprintf "decrypt %d" index)

(* Encrypt a message for the channel; usable by non-members who know only
   the channel's public key (the paper's static encrypt). *)
let encrypt ~(drbg : Hashes.Drbg.t) ~(enc_pub : Crypto.Threshold_enc.public)
    ~(pid : string) (message : string) : string =
  (* lint: allow charge-coverage — static helper for non-member clients, who
     have no meter; member sends charge enc_encrypt in [send] *)
  let ct = Crypto.Threshold_enc.encrypt ~drbg enc_pub ~label:(label pid) message in
  Crypto.Threshold_enc.ciphertext_to_bytes enc_pub ct

let rec emit_ready (t : t) : unit =
  if Hashtbl.mem t.dead t.next_emit then begin
    (* An invalid ciphertext occupied this position at every honest party;
       skip it consistently. *)
    t.next_emit <- t.next_emit + 1;
    emit_ready t
  end
  else
    match Hashtbl.find_opt t.slots t.next_emit with
    | None -> ()
    | Some slot ->
      (match slot.plaintext with
       | None -> ()
       | Some m ->
         (* A delivered slot is done: a late share for it is dropped like
            one for any index below [next_index], before any check, so the
            slot, its shares, its key prefix and its cached share
            verifications go now. *)
         Hashtbl.remove t.slots t.next_emit;
         Crypto.Share_cache.evict_group t.rt.Runtime.cache slot.sl_group;
         let tr = t.rt.Runtime.trace in
         if Trace.Ctx.enabled tr then
           Trace.Ctx.instant tr ~pid:(dec_pid t) ~cat:"abc"
             ~args:[ ("sender", Trace.Event.Int slot.sl_sender) ]
             "deliver_clear";
         t.next_emit <- t.next_emit + 1;
         t.on_deliver ~sender:slot.sl_sender m;
         emit_ready t)

(* Advance in-order delivery, then reopen the atomic channel's gate if all
   delivered ciphertexts have been decrypted (the decryption round is on the
   critical path, as in the prototype's blocking consumer loop). *)
let drain (t : t) : unit =
  emit_ready t;
  if t.next_emit >= t.next_index then
    match t.atomic with
    | Some a -> Abc_core.kick (Atomic_channel.core a)
    | None -> ()

let try_combine (t : t) (slot : slot) : unit =
  if slot.plaintext = None
     && Hashtbl.length slot.shares >= Config.dec_threshold t.rt.Runtime.cfg
  then begin
    let pub = t.rt.Runtime.keys.Dealer.enc_pub in
    let shares = Det.values slot.shares ~compare:Det.by_int in
    let ct = slot.sl_stmt.Verify.ct in
    Charge.enc_combine t.rt.Runtime.charge ~k:(Config.dec_threshold t.rt.Runtime.cfg)
      ~bytes:(String.length ct.Crypto.Threshold_enc.c);
    match Crypto.Threshold_enc.combine pub ct shares with
    | None -> ()
    | Some m ->
      slot.plaintext <- Some m;
      trace_slot t slot.sl_index Trace.Event.Span_end;
      drain t
  end

(* Apply one decryption share to an open slot. *)
let apply_share (t : t) ~(src : int) (slot : slot)
    (share : Crypto.Threshold_enc.dec_share) : unit =
  if share.Crypto.Threshold_enc.origin = src + 1
     && not (Hashtbl.mem slot.shares src)
     && slot.plaintext = None
  then begin
    if Verify.enc_dec_share t.rt ~group:slot.sl_group ~stmt:slot.sl_stmt share
    then begin
      Hashtbl.add slot.shares src share;
      try_combine t slot
    end
  end

let enc_record (b : Wire.Enc.t) ~(index : int)
    (share : Crypto.Threshold_enc.dec_share) : unit =
  let nat v = Wire.Enc.bytes b (Bignum.Nat.to_bytes_be v) in
  Wire.Enc.int b index;
  Wire.Enc.int b share.Crypto.Threshold_enc.origin;
  nat share.Crypto.Threshold_enc.u_i;
  nat share.Crypto.Threshold_enc.proof.Crypto.Dleq.a1;
  nat share.Crypto.Threshold_enc.proof.Crypto.Dleq.a2;
  nat share.Crypto.Threshold_enc.proof.Crypto.Dleq.response

let dec_record (d : Wire.Dec.t) : int * Crypto.Threshold_enc.dec_share =
  let index = Wire.Dec.int d in
  let origin = Wire.Dec.int d in
  let nat () = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
  let u_i = nat () in
  let a1 = nat () in
  let a2 = nat () in
  let response = nat () in
  (index,
   { Crypto.Threshold_enc.origin; u_i;
     proof = { Crypto.Dleq.a1; a2; response } })

(* A frame holds one or more records; any malformed record drops it all. *)
let parse_frame (body : string) :
    (int * Crypto.Threshold_enc.dec_share) list option =
  Wire.decode body (fun d ->
    let rec go acc =
      let acc = dec_record d :: acc in
      if Wire.Dec.finished d then List.rev acc else go acc
    in
    go [])

(* Apply the shares buffered for a slot before it opened here, then try to
   decrypt it. *)
let settle (t : t) (slot : slot) : unit =
  (match Hashtbl.find_opt t.pending_shares slot.sl_index with
   | None -> ()
   | Some q ->
     Hashtbl.remove t.pending_shares slot.sl_index;
     Queue.iter (fun (src, share) -> apply_share t ~src slot share) q);
  try_combine t slot

(* A ciphertext was atomically delivered: validate it once, open a slot
   holding the checked ciphertext, and release our decryption share — sent
   with the rest of the round's in [on_round_end].  The
   validity check is priced inside [Charge.enc_dec_share].  Bytes we
   encrypted ourselves are valid by construction: the first delivery of
   them takes the checked ciphertext [send] kept (whoever broadcast them)
   instead of running the check, still charged alike. *)
let on_atomic_deliver (t : t) ~(sender : int) (ct_bytes : string) : unit =
  let index = t.next_index in
  t.next_index <- index + 1;
  let invalid () =
    Hashtbl.replace t.dead index ();
    drain t
  in
  match Crypto.Threshold_enc.ciphertext_of_bytes ct_bytes with
  | None -> invalid ()   (* a corrupted sender broadcast garbage *)
  | Some ct ->
    if ct.Crypto.Threshold_enc.label <> label t.pid then invalid ()
    else begin
      (match t.on_ciphertext with
       | Some f -> f ~sender ct_bytes
       | None -> ());
      let pub = t.rt.Runtime.keys.Dealer.enc_pub in
      Charge.enc_dec_share t.rt.Runtime.charge;
      let checked =
        match Hashtbl.find_opt t.own_cts ct_bytes with
        | Some own ->
          Hashtbl.remove t.own_cts ct_bytes;
          Trace.Ctx.incr t.rt.Runtime.trace "sac.own_ct_reused";
          Some own
        | None -> Crypto.Threshold_enc.check pub ct
      in
      let released =
        Option.bind checked (fun ct ->
          Option.map (fun share -> (ct, share))
            (Crypto.Threshold_enc.dec_share ~drbg:t.rt.Runtime.drbg pub
               t.rt.Runtime.keys.Dealer.enc_share ct))
      in
      match released with
      | None ->
        (* The ciphertext fails its own validity proof: nobody can decrypt
           it, so all honest parties skip the slot. *)
        invalid ()
      | Some (ct, share) ->
        let slot = {
          sl_index = index; sl_sender = sender;
          sl_stmt = Verify.enc_stmt t.rt ct;
          sl_group = dec_pid t ^ "/" ^ string_of_int index;
          shares = Hashtbl.create 8;
          plaintext = None;
        }
        in
        Hashtbl.replace t.slots index slot;
        trace_slot t index Trace.Event.Span_begin;
        Hashtbl.replace slot.shares t.rt.Runtime.me share;
        Queue.push (slot, share) t.opened
    end

(* The atomic round ended: send our shares for every slot it opened as one
   frame, then settle those slots in index order (shares from faster
   parties may have arrived before we opened them). *)
let on_round_end (t : t) : unit =
  if not (Queue.is_empty t.opened) then begin
    let opened = Queue.create () in
    Queue.transfer t.opened opened;
    Runtime.broadcast t.rt ~pid:(dec_pid t)
      (Wire.encode (fun b ->
         Queue.iter (fun (slot, share) -> enc_record b ~index:slot.sl_index share)
           opened));
    Queue.iter (fun (slot, _) -> settle t slot) opened
  end

let handle_share (t : t) ~src (index : int)
    (share : Crypto.Threshold_enc.dec_share) : unit =
  if index >= 0 then begin
    match Hashtbl.find_opt t.slots index with
    | Some slot -> apply_share t ~src slot share
    | None ->
      if index >= t.next_index && not (Hashtbl.mem t.dead index) then begin
        (* Slot not opened yet at this party: buffer the sender's first
           share for it.  An honest sender sends one; later copies would
           only let a faulty one grow the buffer. *)
        let q =
          match Hashtbl.find_opt t.pending_shares index with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add t.pending_shares index q;
            q
        in
        if not (Queue.fold (fun seen (s, _) -> seen || s = src) false q) then
          Queue.push (src, share) q
      end
  end

let handle_dec (t : t) ~src body =
  match parse_frame body with
  | None -> ()
  | Some records ->
    Runtime.handling t.rt ~pid:(dec_pid t) ~cat:"abc" "decshare";
    List.iter (fun (index, share) -> handle_share t ~src index share) records

let create (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit)
    ?(on_ciphertext : (sender:int -> string -> unit) option)
    ?(on_close = fun () -> ()) () : t =
  let t = {
    rt; pid; on_deliver; on_ciphertext;
    atomic = None;
    slots = Hashtbl.create 64;
    dead = Hashtbl.create 4;
    pending_shares = Hashtbl.create 16;
    opened = Queue.create ();
    own_cts = Hashtbl.create 16;
    next_index = 0;
    next_emit = 0;
  }
  in
  Runtime.register rt ~pid:(dec_pid t) (fun ~src body -> handle_dec t ~src body);
  t.atomic <-
    Some (Atomic_channel.create rt ~pid:(pid ^ "/abc")
            ~on_deliver:(fun ~sender ct -> on_atomic_deliver t ~sender ct)
            ~on_round_end:(fun () -> on_round_end t) ~on_close ());
  (* The decryption round gates the next atomic round: the channel's output
     is consumed (and hence the next round started) only once every ordered
     ciphertext so far has been decrypted. *)
  (match t.atomic with
   | Some a ->
     Abc_core.set_gate (Atomic_channel.core a) (fun () -> t.next_emit >= t.next_index)
   | None -> ());
  t

let buffered_shares (t : t) : int =
  Det.fold t.pending_shares ~compare:Det.by_int
    (fun _ q n -> n + Queue.length q) 0

let atomic (t : t) : Atomic_channel.t =
  match t.atomic with Some a -> a | None -> assert false

(* Send a cleartext message: encrypted here, ordered atomically, decrypted
   after ordering.  The checked ciphertext is kept until its bytes are
   delivered (see [on_atomic_deliver]). *)
let send (t : t) (message : string) : unit =
  Charge.enc_encrypt t.rt.Runtime.charge ~bytes:(String.length message);
  let pub = t.rt.Runtime.keys.Dealer.enc_pub in
  let ct =
    Crypto.Threshold_enc.encrypt ~drbg:t.rt.Runtime.drbg pub ~label:(label t.pid)
      message
  in
  let bytes = Crypto.Threshold_enc.ciphertext_to_bytes pub ct in
  Hashtbl.replace t.own_cts bytes ct;
  Atomic_channel.send (atomic t) bytes

(* Broadcast an externally produced ciphertext (the paper's sendCiphertext,
   for messages encrypted by non-members). *)
let send_ciphertext (t : t) (ct_bytes : string) : unit =
  Atomic_channel.send (atomic t) ct_bytes

