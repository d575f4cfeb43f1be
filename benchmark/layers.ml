(* Per-layer metrics of one traced run.

   Counts come from existing seams only: the trace stream (crypto spans,
   the causal DAG), the metrics registry ([Cluster.publish_metrics]), a
   pass-through network intercept that copies every frame, and the
   durability controllers' accessors.  Host times come from timing calls
   into each layer's public functions here, never from inside the
   program. *)

open Sintra

(* --- the traced run's recordings --- *)

type frame = { src : int; dst : int; bytes : string; at : float }

type recording = {
  mutable events : Trace.Event.t list;  (** newest first *)
  mutable frames : frame list;  (** newest first *)
}

(* Install the in-memory sink and the pass-through intercept.  The
   intercept always answers [Deliver], so the schedule is unchanged. *)
let record (c : Cluster.t) : recording =
  let r = { events = []; frames = [] } in
  Cluster.set_sink c (Trace.Sink.Fn (fun e -> r.events <- e :: r.events));
  Cluster.set_intercept c (fun ~src ~dst bytes ->
    r.frames <- { src; dst; bytes; at = Cluster.now c } :: r.frames;
    Sim.Net.Deliver);
  r

(* --- helpers --- *)

let per (x : float) (payloads : int) : float =
  if payloads = 0 then 0.0 else x /. float_of_int payloads

(* Every party's counter [p<i>/name], summed. *)
let sum_counters (m : Trace.Metrics.t) ~(suffix : string) : float =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix:("/" ^ suffix) name then acc +. v else acc)
    0.0 (Trace.Metrics.dump m)

let counter (m : Trace.Metrics.t) (name : string) : float =
  match Trace.Metrics.find_counter m name with
  | Some c -> Trace.Metrics.value c
  | None -> 0.0

(* Every party's histogram [p<i>/name] merged into one; [None] when no
   party recorded it. *)
let pooled (m : Trace.Metrics.t) ~(name : string) : Trace.Metrics.hist option =
  match
    List.filter
      (fun h -> String.ends_with ~suffix:("/" ^ name) (Trace.Metrics.hist_name h))
      (Trace.Metrics.hists m)
  with
  | [] -> None
  | h :: _ as hs ->
    let buckets =
      Array.of_list
        (List.filter Float.is_finite (List.map fst (Trace.Metrics.hist_buckets h)))
    in
    let into = Trace.Metrics.histogram ~buckets (Trace.Metrics.create ()) name in
    List.iter (Trace.Metrics.merge_into ~into) hs;
    Some into

let pooled_quantile (m : Trace.Metrics.t) ~(name : string) (q : float) : float =
  match pooled m ~name with Some h -> Trace.Metrics.hist_quantile h q | None -> 0.0

let pooled_mean (m : Trace.Metrics.t) ~(name : string) : float =
  match pooled m ~name with Some h -> Trace.Metrics.hist_mean h | None -> 0.0

(* --- crypto spans --- *)

(* Outermost [cat=crypto] spans per party, by name.  A span nested inside
   another (an RSA signature inside a multi-signature share, a ciphertext
   check inside a decryption share) belongs to the enclosing operation. *)
let crypto_ops (events : Trace.Event.t list) : (string, int) Hashtbl.t =
  let depth = Hashtbl.create 8 and ops = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.Event.t) ->
      if e.cat = "crypto" then
        let d = Option.value (Hashtbl.find_opt depth e.party) ~default:0 in
        match e.ph with
        | Trace.Event.Span_begin ->
          if d = 0 then
            Hashtbl.replace ops e.name
              (1 + Option.value (Hashtbl.find_opt ops e.name) ~default:0);
          Hashtbl.replace depth e.party (d + 1)
        | Trace.Event.Span_end -> Hashtbl.replace depth e.party (max 0 (d - 1))
        | _ -> ())
    events;
  ops

(* --- the wire --- *)

(* Replay every captured frame through the link MAC twice — the tag the
   sender computes and the receiver's verification, as [Sim.Net] does —
   and return the host seconds spent ([Hostclock]-scaled). *)
let hmac_replay (d : Dealer.t) (frames : frame list) : float =
  let keys = Dealer.net_mac_keys d in
  snd
    (Hostclock.timed (fun () ->
       List.iter
         (fun f ->
           let key = keys.(f.src).(f.dst) in
           let msg = Printf.sprintf "%d>%d|%s" f.src f.dst f.bytes in
           let tag = Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA1 ~key msg in
           if not (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA1 ~key ~tag msg) then
             failwith "hmac replay: tag does not verify")
         frames))

(* Rounds served to [victim] as DECIDED catch-up batches after [since]:
   the atomic channel's frames are (pid, body) envelopes whose body starts
   with a message tag (1 = DECIDED) and the round. *)
let catchup_rounds ~(pid : string) ~(victim : int) ~(since : float)
    (frames : frame list) : int =
  let rounds = Hashtbl.create 64 in
  List.iter
    (fun f ->
      if f.dst = victim && f.src <> victim && f.at >= since then
        match
          Wire.decode f.bytes (fun d ->
            let p = Wire.Dec.bytes d in
            let body = Wire.Dec.bytes d in
            (p, body))
        with
        | Some (p, body) when p = pid ->
          (match
             Wire.decode_prefix body (fun d ->
               let tag = Wire.Dec.u8 d in
               (tag, Wire.Dec.int d))
           with
           | Some (1, round) -> Hashtbl.replace rounds round ()
           | _ -> ())
        | _ -> ())
    frames;
  Hashtbl.length rounds
