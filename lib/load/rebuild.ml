(* Rebuild at the tip: the power-fail-and-restart scenario shared by
   `sintra_sim durability-check` and the durability bench. *)

open Sintra

type t = {
  cluster : Cluster.t;
  devs : Store.Device.t array;
  durs : Durable.t list array;
  mutable chans : Atomic_channel.t array;
  mutable deliveries : (int * string) list;
  mutable backlog_peak : int;
}

let create ?interval (c : Cluster.t) ~(pid : string) : t =
  let n = Cluster.n c in
  let r =
    { cluster = c; devs = Array.init n (fun _ -> Store.Device.mem ());
      durs = Array.make n []; chans = [||]; deliveries = []; backlog_peak = 0 }
  in
  let attach i =
    let rt = Cluster.runtime c i in
    let ch =
      Atomic_channel.create rt ~pid
        ~on_deliver:(fun ~sender m ->
          if i = 0 then r.deliveries <- (sender, m) :: r.deliveries)
        ()
    in
    Option.iter
      (fun interval ->
        let d = Durable.attach rt ~chan:ch ~pid ~dev:r.devs.(i) ~interval () in
        r.durs.(i) <- d :: r.durs.(i))
      interval;
    ch
  in
  r.chans <- Array.init n attach;
  for i = 0 to n - 1 do
    Runtime.on_rebuild (Cluster.runtime c i) (fun () -> r.chans.(i) <- attach i)
  done;
  r

let drive (r : t) ~(rounds : int) : int =
  let n = Cluster.n r.cluster in
  let events = ref 0 in
  for k = 0 to rounds - 1 do
    let p = k mod n in
    let payload = Printf.sprintf "p%d.m%d" p k in
    Cluster.inject r.cluster p (fun () -> Atomic_channel.send r.chans.(p) payload);
    events := !events + Cluster.run r.cluster;
    r.backlog_peak <-
      max r.backlog_peak (Abc_core.backlog_rounds (Atomic_channel.core r.chans.(0)))
  done;
  !events

let victim (r : t) : int = Cluster.n r.cluster - 1

let power_fail (r : t) ~(wipe : bool) : int =
  let rt = Cluster.runtime r.cluster (victim r) in
  Runtime.crash rt;
  if wipe then Store.Device.rewrite r.devs.(victim r) "";
  Runtime.recover rt;
  Cluster.run r.cluster

let tip (r : t) (p : int) : int = Atomic_channel.current_round r.chans.(p)

let gate ~(make : unit -> Cluster.t) ~(rounds : int) ~(interval : int) :
    string * string list =
  (* The same cluster, seed and traffic twice: plain, then durable with the
     victim power-failed on a WIPED device after traffic has drained — its
     restart must adopt a peer snapshot, not replay history it no longer
     has. *)
  let run ?interval () =
    let r = create ?interval (make ()) ~pid:"dchk" in
    let events = drive r ~rounds in
    (r, if interval = None then events else events + power_fail r ~wipe:true)
  in
  let plain, plain_events = run () in
  let dur, dur_events = run ~interval () in
  let plain_log = List.rev plain.deliveries and dur_log = List.rev dur.deliveries in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b fmt in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  line "  plain:   %7d events, %4d deliveries at p0, backlog peak %d\n"
    plain_events (List.length plain_log) plain.backlog_peak;
  line "  durable: %7d events, %4d deliveries at p0, backlog peak %d\n"
    dur_events (List.length dur_log) dur.backlog_peak;
  let stable d =
    Option.map (fun cp -> string_of_int cp.Store.Checkpoint.round)
      (Durable.stable_checkpoint d)
  in
  (match dur.durs.(0) with
   | d0 :: _ ->
     line "  history: %d round(s), stable checkpoint %s, GC floor %d, p0 log %dB\n"
       (tip dur 0) (Option.value ~default:"none" (stable d0))
       (Abc_core.gc_floor (Atomic_channel.core dur.chans.(0)))
       (Store.Device.size dur.devs.(0))
   | [] -> ());
  (* 1. The storage plane does not perturb the protocol schedule: party 0
     delivers the same sequence with and without the durability layer. *)
  if plain_log <> dur_log then begin
    let describe log =
      String.concat " " (List.map (fun (s, m) -> Printf.sprintf "%d:%s" s m) log)
    in
    fail "delivery order diverged between the plain and durable runs";
    line "    plain:   %s\n    durable: %s\n" (describe plain_log) (describe dur_log)
  end
  else line "  delivery order: byte-identical across variants\n";
  (* 2. Checkpoint GC keeps the resident DECIDED backlog bounded by the
     checkpoint interval (plus one interval of straggler slack and the
     pipeline window), independent of history length. *)
  let bound = (2 * interval) + (2 * dur.cluster.Cluster.cfg.Config.pipeline_depth) + 4 in
  if dur.backlog_peak > bound then
    fail "durable backlog peak %d exceeds the bound %d" dur.backlog_peak bound
  else line "  backlog bound:  peak %d <= %d\n" dur.backlog_peak bound;
  (* 3. The wiped party's restart adopted a verified peer snapshot and
     caught up without a full-history replay. *)
  let v = victim dur in
  (match dur.durs.(v) with
   | newest :: _ :: _ ->
     if Durable.restored_from newest <> -1 then
       fail "rebuilt p%d restored from a wiped disk (impossible)" v;
     if Durable.snapshots_adopted newest < 1 then
       fail "rebuilt p%d adopted no peer snapshot" v;
     if tip dur v < tip dur 0 then
       fail "rebuilt p%d stopped at round %d, cluster is at %d" v (tip dur v)
         (tip dur 0);
     if !failures = [] then
       line "  rebuilt p%d:    adopted a verified snapshot (stable round %s), \
             caught up to round %d\n"
         v (Option.value ~default:"-" (stable newest)) (tip dur v)
   | _ -> fail "p%d was never rebuilt" v);
  (* 4. Log round-trip: re-encoding party 0's parsed log reproduces the
     device bytes exactly. *)
  let rp = Store.Log.replay dur.devs.(0) in
  if rp.Store.Log.status <> Store.Log.Complete then
    fail "p0's log did not parse to completion"
  else if
    String.concat "" (List.map Store.Log.frame rp.Store.Log.records)
    <> Store.Device.contents dur.devs.(0)
  then fail "re-encoding p0's parsed log does not reproduce the device bytes"
  else
    line "  log round-trip: %d record(s), byte-identical re-encoding\n"
      (List.length rp.Store.Log.records);
  (Buffer.contents b, List.rev !failures)
