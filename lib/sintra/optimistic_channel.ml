(* Optimistic atomic broadcast — the paper's "largest performance gain"
   future-work item (Section 6), after Kursawe-Shoup (ePrint 2001/022) and
   Castro-Liskov: when the network is timely and a designated sequencer is
   honest, a message is ordered by one verifiable consistent broadcast and
   one acknowledgement round — no Byzantine agreement, no coin — and the
   protocol falls back to the randomized machinery only on complaints.

   Fast path (epoch e, leader = e mod n):
   - a party broadcasts its payload as a REQUEST to everyone (so a censored
     party is noticed by all);
   - the leader assigns the next sequence number s to the *vector* of all
     pending unordered requests (capped at [Config.max_batch]) and
     broadcasts it with one verifiable consistent broadcast (instance
     pid/e.<e>.<s>), whose threshold signature makes the ordering
     transferable — batching amortizes the VCBC's threshold signature over
     every request in the slot, exactly as the atomic channel amortizes its
     agreement rounds;
   - when a party's consecutive VCBC prefix reaches s it broadcasts
     ACK(e, s); a slot's requests are *delivered* (in vector order) once
     the prefix is complete and
     n-t parties have acknowledged it — the quorum that makes recovery
     safe.

   Fallback: a party that sees a request (its own or anyone's) unordered
   after [timeout] virtual seconds broadcasts COMPLAIN(e); on n-t distinct
   complaints the epoch ends:
   - every party broadcasts a signed REPORT carrying the closing messages
     of its whole VCBC prefix (self-certifying evidence of how far the
     epoch got);
   - one multi-valued agreement (pid/rec.<e>) decides a set of n-t distinct
     valid reports; the new common prefix is the *longest* report in the
     decided set.  Safety: delivery required n-t ACKs, any n-t reports
     include at least one party from that quorum (n > 3t), so the decided
     cut covers every fast-delivered message at every honest party.
   - parties deliver the cut (recovering payloads from the closings), move
     to epoch e+1 with the next leader, and re-request their pending
     payloads (duplicates are suppressed by (origin, client-seq) ids).

   The timing assumption lives only here: SINTRA's core is fully
   asynchronous, and this channel inherits that safety — a wrong timeout
   can only cost performance, never correctness (exactly the Castro-Liskov
   trade the paper describes). *)

type request = {
  rq_orig : int;
  rq_cseq : int;            (* per-origin client sequence number *)
  rq_payload : string;
}

type t = {
  rt : Runtime.t;
  pid : string;
  on_deliver : sender:int -> string -> unit;
  timeout : float;
  (* epoch state *)
  mutable epoch : int;
  mutable in_recovery : bool;
  mutable next_assign : int;           (* leader: next sequence number *)
  mutable vcbc_prefix : int;           (* consecutive VCBC deliveries *)
  mutable delivered_seq : int;         (* consecutive fast deliveries *)
  insts : (int, Consistent_broadcast.t) Hashtbl.t;   (* seq -> instance *)
  ordered : (int, request list) Hashtbl.t;   (* seq -> request vector (this epoch) *)
  closings : (int, string) Hashtbl.t;            (* seq -> closing (this epoch) *)
  acks : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* seq -> ackers (this epoch) *)
  complaints : (int, unit) Hashtbl.t;            (* complainers (this epoch) *)
  mutable complained : bool;
  reports : (int, string list) Hashtbl.t;        (* reporter -> closings *)
  mutable recovery_mvba : Array_agreement.t option;
  (* cross-epoch state *)
  delivered_ids : (int * int, unit) Hashtbl.t;   (* (orig, cseq) *)
  assigned_ids : (int * int, unit) Hashtbl.t;    (* leader-side dedup, this epoch *)
  requests : (int * int, request) Hashtbl.t;     (* known outstanding requests *)
  mutable my_cseq : int;
  mutable stats_fast : int;
  mutable stats_recovered : int;
  mutable epochs_started : int;
  mutable rec_span_open : bool;        (* a "recovery" trace span is open *)
}

let tag_request = 0
let tag_ack = 1
let tag_complain = 2
let tag_report = 3

(* Leader window: at most this many assigned-but-incomplete VCBC slots,
   scaled by the configured pipeline depth (4 slots per depth unit, so
   [pipeline_depth = 1] keeps the original 4-slot sequencer).  Requests
   arriving while the window is full wait in [requests] and ride the next
   free slot together — without the window the leader would open one slot
   per arriving request and batching would never happen. *)
let max_outstanding (t : t) : int = 4 * t.rt.Runtime.cfg.Config.pipeline_depth

let vcbc_pid (t : t) ~(epoch : int) ~(seq : int) : string =
  Printf.sprintf "%s/e.%d.%d" t.pid epoch seq

let recovery_pid (t : t) ~(epoch : int) : string = Printf.sprintf "%s/rec.%d" t.pid epoch

let leader (t : t) : int = t.epoch mod t.rt.Runtime.cfg.Config.n

let quorum (t : t) : int = Config.vote_quorum t.rt.Runtime.cfg

let trace (t : t) : Trace.Ctx.t = t.rt.Runtime.trace

let enc_request (b : Wire.Enc.t) (rq : request) : unit =
  Wire.Enc.int b rq.rq_orig;
  Wire.Enc.int b rq.rq_cseq;
  Wire.Enc.bytes b rq.rq_payload

let dec_request (d : Wire.Dec.t) : request =
  let rq_orig = Wire.Dec.int d in
  let rq_cseq = Wire.Dec.int d in
  let rq_payload = Wire.Dec.bytes d in
  { rq_orig; rq_cseq; rq_payload }

let report_stmt (t : t) ~(epoch : int) (closings : string list) : string =
  let parts =
    List.concat_map (fun c -> [ string_of_int (String.length c); "|"; c ]) closings
  in
  Charge.hash t.rt.Runtime.charge
    ~bytes:(List.fold_left (fun acc s -> acc + String.length s) 0 parts);
  let h = Hashes.Sha256.digest_list parts in
  Printf.sprintf "opt-report|%s|%d|%s" t.pid epoch h

(* --- fast path --- *)

(* The VCBC instance for (current epoch, seq), created on first use by
   either the follower prefix walk or the leader's assignment. *)
let rec get_inst (t : t) ~(seq : int) : Consistent_broadcast.t =
  match Hashtbl.find_opt t.insts seq with
  | Some inst -> inst
  | None ->
    let epoch = t.epoch in
    let inst =
      Consistent_broadcast.create t.rt ~pid:(vcbc_pid t ~epoch ~seq) ~sender:(leader t)
        ~on_deliver:(fun payload -> on_vcbc_deliver t ~epoch ~seq payload)
    in
    Hashtbl.replace t.insts seq inst;
    inst

and open_next_vcbc (t : t) : unit =
  if not t.in_recovery then ignore (get_inst t ~seq:t.vcbc_prefix)

and on_vcbc_deliver (t : t) ~(epoch : int) ~(seq : int) (payload : string) : unit =
  if epoch = t.epoch && not t.in_recovery then begin
    match Wire.decode payload (fun d -> Wire.Dec.list d dec_request) with
    | None -> ()   (* a Byzantine leader ordered garbage; complaints follow *)
    | Some rqs when List.length rqs > t.rt.Runtime.cfg.Config.max_batch ->
      ()           (* over-cap vector: treat like garbage, complaints follow *)
    | Some rqs ->
      Hashtbl.replace t.ordered seq rqs;
      (match Hashtbl.find_opt t.insts seq with
       | Some inst ->
         (match Consistent_broadcast.get_closing inst with
          | Some cl -> Hashtbl.replace t.closings seq cl
          | None -> ())
       | None -> ());
      (* Instances may complete out of order (the leader broadcasts several
         concurrently); acknowledge each consecutive-prefix extension. *)
      while Hashtbl.mem t.ordered t.vcbc_prefix do
        let s = t.vcbc_prefix in
        t.vcbc_prefix <- s + 1;
        let body =
          Wire.encode (fun b ->
            Wire.Enc.u8 b tag_ack;
            Wire.Enc.int b epoch;
            Wire.Enc.int b s)
        in
        Runtime.broadcast t.rt ~pid:t.pid body
      done;
      open_next_vcbc t;
      (* The prefix advanced, so the leader window may have freed a slot
         for requests that accumulated while it was full. *)
      leader_pump t;
      try_deliver t
  end

and try_deliver (t : t) : unit =
  let continue = ref true in
  while !continue do
    let s = t.delivered_seq in
    let acked =
      match Hashtbl.find_opt t.acks s with
      | Some set -> Hashtbl.length set >= quorum t
      | None -> false
    in
    if (not t.in_recovery) && s < t.vcbc_prefix && acked then begin
      t.delivered_seq <- s + 1;
      match Hashtbl.find_opt t.ordered s with
      | None -> ()
      | Some rqs -> List.iter (fun rq -> deliver_request t rq ~fast:true) rqs
    end
    else continue := false
  done

and deliver_request (t : t) (rq : request) ~(fast : bool) : unit =
  let id = (rq.rq_orig, rq.rq_cseq) in
  if not (Hashtbl.mem t.delivered_ids id) then begin
    Hashtbl.replace t.delivered_ids id ();
    Hashtbl.remove t.requests id;
    if fast then t.stats_fast <- t.stats_fast + 1
    else t.stats_recovered <- t.stats_recovered + 1;
    Trace.Ctx.incr (trace t)
      (if fast then "opt.fast_deliveries" else "opt.recovered_deliveries");
    if Trace.Ctx.enabled (trace t) then
      Trace.Ctx.instant (trace t) ~pid:t.pid ~cat:"opt"
        ~args:[ ("sender", Trace.Event.Int rq.rq_orig) ]
        (if fast then "deliver_fast" else "deliver_recovered");
    t.on_deliver ~sender:rq.rq_orig rq.rq_payload
  end

(* Leader: order every known unordered request, batched — one VCBC slot
   carries the whole pending vector (chunked at [max_batch]), so the slot's
   threshold signature is amortized over all of them. *)
and leader_pump (t : t) : unit =
  if (not t.in_recovery) && leader t = t.rt.Runtime.me then begin
    (* Canonical (orig, cseq) order: the sequence numbers the leader assigns
       must be a function of the known requests, not of hash order. *)
    let pending =
      List.filter_map
        (fun (id, rq) ->
          if Hashtbl.mem t.assigned_ids id || Hashtbl.mem t.delivered_ids id then None
          else Some rq)
        (Det.bindings t.requests ~compare:Det.by_int_pair)
    in
    let cap = t.rt.Runtime.cfg.Config.max_batch in
    let rec chunks = function
      | [] -> []
      | l ->
        let rec take k acc = function
          | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let batch, rest = take cap [] l in
        batch :: chunks rest
    in
    List.iter
      (fun batch ->
        if t.next_assign - t.vcbc_prefix < max_outstanding t then begin
          List.iter
            (fun rq -> Hashtbl.replace t.assigned_ids (rq.rq_orig, rq.rq_cseq) ())
            batch;
          let seq = t.next_assign in
          t.next_assign <- seq + 1;
          Trace.Ctx.observe (trace t)
            ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
            "opt.batch_occupancy"
            (float_of_int (List.length batch));
          Consistent_broadcast.send (get_inst t ~seq)
            (Wire.encode (fun b -> Wire.Enc.list b enc_request batch))
        end)
      (chunks pending)
  end

(* --- complaints and recovery --- *)

and watch_request (t : t) (id : int * int) : unit =
  (* Complain only when the request is overdue AND the channel made no
     progress during the whole timeout window - a busy-but-honest leader
     with a long queue must not be deposed (the Castro-Liskov timer
     discipline). *)
  let rec arm () =
    let epoch = t.epoch in
    let progress_mark = t.delivered_seq in
    Sim.Engine.schedule t.rt.Runtime.engine ~delay:t.timeout (fun () ->
      if epoch = t.epoch && (not t.in_recovery)
         && Hashtbl.mem t.requests id
         && not (Hashtbl.mem t.delivered_ids id)
      then begin
        if t.delivered_seq > progress_mark then arm ()   (* progress: re-arm *)
        else complain t
      end)
  in
  arm ()

and complain (t : t) : unit =
  if not t.complained && not t.in_recovery then begin
    t.complained <- true;
    if Trace.Ctx.enabled (trace t) then
      Trace.Ctx.instant (trace t) ~pid:t.pid ~cat:"opt" ~level:Trace.Event.Warn
        ~args:[ ("epoch", Trace.Event.Int t.epoch) ]
        "complain";
    let body =
      Wire.encode (fun b ->
        Wire.Enc.u8 b tag_complain;
        Wire.Enc.int b t.epoch)
    in
    Runtime.broadcast t.rt ~pid:t.pid body
  end

and on_complain (t : t) ~(src : int) ~(epoch : int) : unit =
  if epoch = t.epoch && not t.in_recovery then begin
    Hashtbl.replace t.complaints src ();
    (* Join once t+1 complain (an honest party is unhappy)... *)
    if Hashtbl.length t.complaints >= Config.one_honest t.rt.Runtime.cfg then
      complain t;
    (* ...and end the epoch at n-t. *)
    if Hashtbl.length t.complaints >= quorum t then start_recovery t
  end

and start_recovery (t : t) : unit =
  if not t.in_recovery then begin
    t.in_recovery <- true;
    if Trace.Ctx.enabled (trace t) then begin
      t.rec_span_open <- true;
      Trace.Ctx.span_begin (trace t) ~pid:t.pid ~cat:"opt"
        ~args:[ ("epoch", Trace.Event.Int t.epoch) ]
        (Printf.sprintf "recovery %d" t.epoch)
    end;
    Det.iter t.insts ~compare:Det.by_int (fun _ inst -> Consistent_broadcast.abort inst);
    Hashtbl.reset t.insts;
    let epoch = t.epoch in
    (* Broadcast our signed evidence: the closings of our whole prefix. *)
    let closings =
      List.init t.vcbc_prefix (fun s ->
        match Hashtbl.find_opt t.closings s with
        | Some c -> c
        | None ->
          (* VCBC records the closing before delivering, so every seq the
             prefix walk passed has one. *)
          raise (Invariant.Violation "optimistic: prefix entry missing its closing"))
    in
    Charge.rsa_sign t.rt.Runtime.charge;
    let signature =
      Crypto.Rsa.sign t.rt.Runtime.keys.Dealer.sign_sk ~ctx:t.pid
        (report_stmt t ~epoch closings)
    in
    let body =
      Wire.encode (fun b ->
        Wire.Enc.u8 b tag_report;
        Wire.Enc.int b epoch;
        Wire.Enc.list b Wire.Enc.bytes closings;
        Wire.Enc.bytes b signature)
    in
    Runtime.broadcast t.rt ~pid:t.pid body;
    (* Reports buffered while we were still on the fast path may already
       form a quorum. *)
    maybe_propose_recovery t ~epoch
  end

and report_valid (t : t) ~(epoch : int) ~(reporter : int) (closings : string list)
    (signature : string) : bool =
  Charge.rsa_verify t.rt.Runtime.charge;
  Crypto.Rsa.verify t.rt.Runtime.keys.Dealer.sign_pks.(reporter) ~ctx:t.pid
    ~signature (report_stmt t ~epoch closings)
  && List.for_all2
       (fun s closing ->
         Consistent_broadcast.closing_valid t.rt ~pid:(vcbc_pid t ~epoch ~seq:s) closing)
       (List.init (List.length closings) (fun s -> s))
       closings

and on_report (t : t) ~(src : int) ~(epoch : int) (closings : string list)
    (signature : string) : unit =
  (* Reports are accepted even before we entered recovery ourselves: an
     honest party only reports once n-t complained, so a report that may
     arrive ahead of the complaints must not be lost — and it doubles as a
     complaint by its (signing) reporter. *)
  if epoch = t.epoch && not (Hashtbl.mem t.reports src)
     && report_valid t ~epoch ~reporter:src closings signature
  then begin
    Hashtbl.replace t.reports src closings;
    if not t.in_recovery then on_complain t ~src ~epoch;
    maybe_propose_recovery t ~epoch
  end

and maybe_propose_recovery (t : t) ~(epoch : int) : unit =
  if epoch = t.epoch && t.in_recovery
     && Hashtbl.length t.reports >= quorum t && t.recovery_mvba = None
  then begin
    (* Propose our n-t collected reports to the recovery agreement. *)
    let proposal =
      Wire.encode (fun b ->
        Wire.Enc.list b
          (fun b (reporter, cls) ->
            Wire.Enc.int b reporter;
            Wire.Enc.list b Wire.Enc.bytes cls)
          (* Canonical reporter order: the proposal bytes feed an agreement
             and must be identical across replays. *)
          (Det.bindings t.reports ~compare:Det.by_int))
    in
    let mvba =
      Array_agreement.create t.rt ~pid:(recovery_pid t ~epoch)
        ~validator:(fun v -> recovery_proposal_valid t ~epoch v)
        ~on_decide:(fun v -> finish_recovery t ~epoch v)
    in
    t.recovery_mvba <- Some mvba;
    Array_agreement.propose mvba proposal
  end

and parse_recovery_proposal (v : string) : (int * string list) list option =
  Wire.decode v (fun d ->
    Wire.Dec.list d (fun d ->
      let reporter = Wire.Dec.int d in
      let cls = Wire.Dec.list d Wire.Dec.bytes in
      (reporter, cls)))

and recovery_proposal_valid (t : t) ~(epoch : int) (v : string) : bool =
  match parse_recovery_proposal v with
  | None -> false
  | Some reports ->
    let reporters = List.sort_uniq compare (List.map fst reports) in
    List.length reports >= quorum t
    && List.length reporters = List.length reports
    && List.for_all (fun (r, _) -> r >= 0 && r < t.rt.Runtime.cfg.Config.n) reports
    (* Reports inside a proposal are validated by their closings alone
       (self-certifying); the reporter signature was checked on receipt by
       whoever included them, and forged attributions cannot extend the cut
       beyond real closings. *)
    && List.for_all
         (fun (_, cls) ->
           List.for_all2
             (fun s closing ->
               Consistent_broadcast.closing_valid t.rt
                 ~pid:(vcbc_pid t ~epoch ~seq:s) closing)
             (List.init (List.length cls) (fun s -> s))
             cls)
         reports

and finish_recovery (t : t) ~(epoch : int) (decided : string) : unit =
  if epoch = t.epoch && t.in_recovery then begin
    (match parse_recovery_proposal decided with
     | None -> ()   (* impossible: the validator enforced the format *)
     | Some reports ->
       (* The common cut: the longest reported prefix. *)
       let best =
         List.fold_left
           (fun acc (_, cls) -> if List.length cls > List.length acc then cls else acc)
           [] reports
       in
       List.iteri
         (fun s closing ->
           let slot =
             match Hashtbl.find_opt t.ordered s with
             | Some rqs -> Some rqs
             | None ->
               (match Consistent_broadcast.payload_of_closing closing with
                | None -> None
                | Some p -> Wire.decode p (fun d -> Wire.Dec.list d dec_request))
           in
           match slot with
           | Some rqs -> List.iter (fun rq -> deliver_request t rq ~fast:false) rqs
           | None -> ())
         best);
    (* Move to the next epoch under the next leader. *)
    if t.rec_span_open then begin
      t.rec_span_open <- false;
      Trace.Ctx.span_end (trace t) ~pid:t.pid ~cat:"opt"
        (Printf.sprintf "recovery %d" epoch)
    end;
    Trace.Ctx.incr (trace t) "opt.recoveries";
    (match t.recovery_mvba with Some m -> Array_agreement.abort m | None -> ());
    t.recovery_mvba <- None;
    t.epoch <- epoch + 1;
    t.epochs_started <- t.epochs_started + 1;
    t.in_recovery <- false;
    t.next_assign <- 0;
    t.vcbc_prefix <- 0;
    t.delivered_seq <- 0;
    Hashtbl.reset t.insts;
    Hashtbl.reset t.ordered;
    Hashtbl.reset t.closings;
    Hashtbl.reset t.acks;
    Hashtbl.reset t.complaints;
    t.complained <- false;
    Hashtbl.reset t.reports;
    Hashtbl.reset t.assigned_ids;
    open_next_vcbc t;
    (* Re-broadcast every request still outstanding and restart timers. *)
    let outstanding = Det.bindings t.requests ~compare:Det.by_int_pair in
    List.iter
      (fun (id, rq) ->
        if not (Hashtbl.mem t.delivered_ids id) then begin
          let body =
            Wire.encode (fun b -> Wire.Enc.u8 b tag_request; enc_request b rq)
          in
          Runtime.broadcast t.rt ~pid:t.pid body;
          watch_request t id
        end)
      outstanding;
    leader_pump t
  end

(* --- dispatch --- *)

let handle (t : t) ~src body =
  Invariant.sender_in_range t.rt.Runtime.inv src;
  match Wire.decode_prefix body (fun d -> (Wire.Dec.u8 d, d)) with
  | None -> ()
  | Some (tag, d) ->
    Runtime.handling t.rt ~pid:t.pid ~cat:"opt"
      (if tag = tag_request then "request"
       else if tag = tag_ack then "ack"
       else if tag = tag_complain then "complain"
       else if tag = tag_report then "report"
       else "other");
    if tag = tag_request then begin
      match (try Some (dec_request d) with Wire.Decode _ -> None) with
      | None -> ()
      | Some rq ->
        let id = (rq.rq_orig, rq.rq_cseq) in
        if (not (Hashtbl.mem t.delivered_ids id)) && not (Hashtbl.mem t.requests id)
        then begin
          Hashtbl.replace t.requests id rq;
          watch_request t id;
          leader_pump t
        end
    end
    else if tag = tag_ack then begin
      match
        (try
           let epoch = Wire.Dec.int d in
           let seq = Wire.Dec.int d in
           Some (epoch, seq)
         with Wire.Decode _ -> None)
      with
      | Some (epoch, seq) when epoch = t.epoch && not t.in_recovery ->
        let set =
          match Hashtbl.find_opt t.acks seq with
          | Some s -> s
          | None ->
            let s = Hashtbl.create 8 in
            Hashtbl.add t.acks seq s;
            s
        in
        Hashtbl.replace set src ();
        try_deliver t
      | Some _ | None -> ()
    end
    else if tag = tag_complain then begin
      match (try Some (Wire.Dec.int d) with Wire.Decode _ -> None) with
      | Some epoch -> on_complain t ~src ~epoch
      | None -> ()
    end
    else if tag = tag_report then begin
      match
        (try
           let epoch = Wire.Dec.int d in
           let closings = Wire.Dec.list d Wire.Dec.bytes in
           let signature = Wire.Dec.bytes d in
           Some (epoch, closings, signature)
         with Wire.Decode _ -> None)
      with
      | Some (epoch, closings, signature) -> on_report t ~src ~epoch closings signature
      | None -> ()
    end

let create ?(timeout = 5.0) (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit) () : t =
  let t = {
    rt; pid; on_deliver; timeout;
    epoch = 0;
    in_recovery = false;
    next_assign = 0;
    vcbc_prefix = 0;
    delivered_seq = 0;
    insts = Hashtbl.create 64;
    ordered = Hashtbl.create 64;
    closings = Hashtbl.create 64;
    acks = Hashtbl.create 64;
    complaints = Hashtbl.create 8;
    complained = false;
    reports = Hashtbl.create 8;
    recovery_mvba = None;
    delivered_ids = Hashtbl.create 64;
    assigned_ids = Hashtbl.create 64;
    requests = Hashtbl.create 64;
    my_cseq = 0;
    stats_fast = 0;
    stats_recovered = 0;
    epochs_started = 1;
    rec_span_open = false;
  }
  in
  Runtime.register rt ~pid (fun ~src body -> handle t ~src body);
  open_next_vcbc t;
  t

(* Broadcast a payload on the channel. *)
let send (t : t) (payload : string) : unit =
  let rq = { rq_orig = t.rt.Runtime.me; rq_cseq = t.my_cseq; rq_payload = payload } in
  t.my_cseq <- t.my_cseq + 1;
  let id = (rq.rq_orig, rq.rq_cseq) in
  Hashtbl.replace t.requests id rq;
  let body = Wire.encode (fun b -> Wire.Enc.u8 b tag_request; enc_request b rq) in
  Runtime.broadcast t.rt ~pid:t.pid body;
  watch_request t id;
  leader_pump t

let current_epoch (t : t) = t.epoch
let current_leader (t : t) = leader t
let deliveries_fast (t : t) = t.stats_fast
let deliveries_recovered (t : t) = t.stats_recovered
