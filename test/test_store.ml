(* Tests for the durability subsystem (lib/store + Sintra.Durable): log
   framing and replay determinism, CRC corruption detection, torn-tail
   tolerance, checkpoint-certificate forgery rejection, GC safety (never
   dropping undelivered rounds), crash + restart from disk, snapshot
   state transfer to a wiped party, bounded DECIDED backlog, and
   byte-identical delivery order with and without the durability layer. *)

open Sintra

let sample_records : Store.Log.record list =
  [
    Store.Log.Round { round = 0; batch = "batch-zero" };
    Store.Log.Init { round = 12 };
    Store.Log.Round { round = 1; batch = String.make 300 'x' };
    Store.Log.Snapshot
      {
        checkpoint = { Store.Checkpoint.round = 2; digest = "d"; cert = "c" };
        state = "state-blob";
      };
  ]

(* --- a durable 4-party atomic cluster harness --- *)

type harness = {
  c : Cluster.t;
  chans : Atomic_channel.t array;
  durs : Durable.t array;
  devs : Store.Device.t array;
  logs : (int * string) list ref array;
  seen : (int * string, unit) Hashtbl.t array;
}

(* The recorder models an idempotent application: a restart replays the
   log, re-delivering payloads the app already consumed before the crash,
   and the app deduplicates them (payloads are unique in these tests). *)
let make_party (c : Cluster.t) (devs : Store.Device.t array)
    (logs : (int * string) list ref array)
    (seen : (int * string, unit) Hashtbl.t array) (i : int) ~(interval : int)
    ~(pid : string) : Atomic_channel.t * Durable.t =
  let rt = Cluster.runtime c i in
  let ch =
    Atomic_channel.create rt ~pid
      ~on_deliver:(fun ~sender m ->
        if not (Hashtbl.mem seen.(i) (sender, m)) then begin
          Hashtbl.replace seen.(i) (sender, m) ();
          logs.(i) := (sender, m) :: !(logs.(i))
        end)
      ()
  in
  let d = Durable.attach rt ~chan:ch ~pid ~dev:devs.(i) ~interval () in
  (ch, d)

let attach_party (h : harness) (i : int) ~(interval : int) ~(pid : string) :
    unit =
  let ch, d = make_party h.c h.devs h.logs h.seen i ~interval ~pid in
  h.chans.(i) <- ch;
  h.durs.(i) <- d

let durable_cluster ?(seed = "store") ?(interval = 4) ?(pid = "dur") () :
    harness =
  let n = 4 in
  let c = Util.cluster ~seed ~max_batch:8 () in
  let devs = Array.init n (fun _ -> Store.Device.mem ()) in
  let logs = Array.init n (fun _ -> ref []) in
  let seen = Array.init n (fun _ -> Hashtbl.create 64) in
  let parties =
    Array.init n (fun i -> make_party c devs logs seen i ~interval ~pid)
  in
  {
    c;
    chans = Array.map fst parties;
    durs = Array.map snd parties;
    devs;
    logs;
    seen;
  }

let sequences (h : harness) = Array.map (fun l -> List.rev !l) h.logs

(* Waves of payloads from every party.  Injections on a crashed party are
   dropped by the network, so a party that is down during a wave simply
   never submits those payloads. *)
let send_waves (h : harness) ~(waves : int) ~(per : int) : unit =
  for w = 0 to waves - 1 do
    let time = 0.8 *. float_of_int w in
    for p = 0 to 3 do
      let submit () =
        Cluster.inject h.c p (fun () ->
          for k = 0 to per - 1 do
            Atomic_channel.send h.chans.(p)
              (Printf.sprintf "p%d.w%d.%d" p w k)
          done)
      in
      if time <= 0.0 then submit () else Cluster.at h.c ~time submit
    done
  done

(* A restart into a quiet cluster: party 3 power-fails after a few rounds,
   the others run more than 60 rounds without it and go quiet, then party
   3 restarts — from its disk (a log-only controller, so no snapshot
   shortcut: every missed round comes from the peers' backlogs, a
   catch-up window per request) or rebuilt without one — and nothing else
   happens.  Only its own pulls can bring it to the tip. *)
let quiet_restart ~(disk : bool) : unit =
  let n = 4 in
  let c = Util.cluster ~seed:"quiet-restart" ~max_batch:8 () in
  let devs = Array.init n (fun _ -> Store.Device.mem ()) in
  let logs = Array.init n (fun _ -> ref []) in
  let make i =
    let rt = Cluster.runtime c i in
    let ch =
      Atomic_channel.create rt ~pid:"quiet"
        ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i)))
        ()
    in
    if disk then
      ignore (Durable.attach rt ~chan:ch ~pid:"quiet" ~dev:devs.(i) ~interval:0 ());
    ch
  in
  let chans = Array.init n make in
  let rt3 = Cluster.runtime c 3 in
  Runtime.on_rebuild rt3 (fun () ->
    logs.(3) := [];
    chans.(3) <- make 3);
  for k = 0 to 67 do
    let p = k mod 3 in
    Cluster.at c ~time:(0.5 *. float_of_int k) (fun () ->
      Cluster.inject c p (fun () ->
        Atomic_channel.send chans.(p) (Printf.sprintf "m%d" k)))
  done;
  Cluster.at c ~time:1.8 (fun () -> Runtime.crash rt3);
  ignore (Cluster.run c ~until:100.0);
  let tip = Atomic_channel.current_round chans.(0) in
  let behind = tip - Atomic_channel.current_round chans.(3) in
  if behind < 60 then Alcotest.failf "party 3 only %d rounds behind" behind;
  Runtime.recover rt3;
  ignore (Cluster.run c ~until:200.0);
  Alcotest.(check int) "restarted party reached the tip" tip
    (Atomic_channel.current_round chans.(3));
  if List.rev !(logs.(3)) <> List.rev !(logs.(0)) then
    Alcotest.fail "restarted party's deliveries differ from party 0's"

let suite =
  [
    Alcotest.test_case "log round-trip is byte-deterministic" `Quick (fun () ->
      let dev = Store.Device.mem () in
      List.iter (fun r -> ignore (Store.Log.append dev r)) sample_records;
      let first = Store.Device.contents dev in
      let rp = Store.Log.replay dev in
      (match rp.Store.Log.status with
       | Store.Log.Complete -> ()
       | _ -> Alcotest.fail "replay not complete");
      Alcotest.(check int)
        "record count" (List.length sample_records)
        (List.length rp.Store.Log.records);
      (* Re-encoding the replayed records reproduces the device bytes. *)
      let dev2 = Store.Device.mem () in
      ignore (Store.Log.rewrite dev2 rp.Store.Log.records);
      Alcotest.(check string) "byte identical" first
        (Store.Device.contents dev2);
      (* And the decoded records match what was written. *)
      if rp.Store.Log.records <> sample_records then
        Alcotest.fail "replayed records differ");
    Alcotest.test_case "torn tail keeps the valid prefix" `Quick (fun () ->
      let dev = Store.Device.mem () in
      List.iter (fun r -> ignore (Store.Log.append dev r)) sample_records;
      let bytes = Store.Device.contents dev in
      (* Cut mid-record: drop the last 3 bytes. *)
      let cut = String.sub bytes 0 (String.length bytes - 3) in
      let rp = Store.Log.replay_string cut in
      (match rp.Store.Log.status with
       | Store.Log.Torn _ -> ()
       | _ -> Alcotest.fail "expected a torn tail");
      Alcotest.(check int) "prefix kept"
        (List.length sample_records - 1)
        (List.length rp.Store.Log.records));
    Alcotest.test_case "CRC detects a flipped byte" `Quick (fun () ->
      let dev = Store.Device.mem () in
      List.iter (fun r -> ignore (Store.Log.append dev r)) sample_records;
      let bytes = Bytes.of_string (Store.Device.contents dev) in
      (* Flip one byte inside the second record's payload: the round of
         its two-byte [Init], after the 8-byte header and the tag. *)
      let first_len =
        String.length (Store.Log.frame (List.hd sample_records))
      in
      let pos = first_len + 9 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
      let rp = Store.Log.replay_string (Bytes.to_string bytes) in
      (match rp.Store.Log.status with
       | Store.Log.Corrupt (off, _) ->
         Alcotest.(check int) "corruption located" first_len off
       | _ -> Alcotest.fail "expected corruption");
      Alcotest.(check int) "prefix kept" 1 (List.length rp.Store.Log.records));
    Alcotest.test_case "log summary, record lines and snapshot digests" `Quick
      (fun () ->
      let dev = Store.Device.mem () in
      List.iter (fun r -> ignore (Store.Log.append dev r)) sample_records;
      let rp = Store.Log.replay dev in
      Alcotest.(check string) "summary"
        (Printf.sprintf
           "4 record(s) (2 round(s), 1 init(s), 1 snapshot(s), %dB)"
           (Store.Device.size dev))
        (Store.Log.summary rp);
      Alcotest.(check (list string)) "one line per record"
        [ "round 0       batch 10B"; "init  12";
          "round 1       batch 300B"; "snapshot round 2       state 10B  cert 1B" ]
        (List.map Store.Log.describe rp.Store.Log.records);
      (* The sample snapshot's digest is not the hash of its state. *)
      Alcotest.(check (option int)) "forged digest found" (Some 2)
        (Store.Log.bad_snapshot rp);
      let honest =
        Store.Log.Snapshot
          { checkpoint =
              { Store.Checkpoint.round = 5;
                digest = Hashes.Sha256.digest "state"; cert = "c" };
            state = "state" }
      in
      Alcotest.(check (option int)) "certified digest passes" None
        (Store.Log.bad_snapshot (Store.Log.replay_string (Store.Log.frame honest))));
    Alcotest.test_case "durability gate: passes, and fails a history shorter than one interval"
      `Quick (fun () ->
      let make () =
        Cluster.create ~seed:"gate" ~topo:Sim.Topology.lan
          (Config.make ~n:4 ~t:1 ())
      in
      let report, failures = Load.Rebuild.gate ~make ~rounds:24 ~interval:4 in
      Alcotest.(check (list string)) "no failures" [] failures;
      Alcotest.(check int) "a line per run and per check" 7
        (List.length (String.split_on_char '\n' report) - 1);
      (* Below one interval the GC floor is still 0: peers serve the wiped
         party plain catch-up, so no snapshot is adopted. *)
      let _, failures = Load.Rebuild.gate ~make ~rounds:4 ~interval:8 in
      Alcotest.(check (list string)) "no snapshot adopted"
        [ "rebuilt p3 adopted no peer snapshot" ] failures);
    Alcotest.test_case "crc32 matches the IEEE reference" `Quick (fun () ->
      (* Standard check value: crc32("123456789") = 0xCBF43926. *)
      Alcotest.(check int) "check value" 0xCBF43926
        (Store.Crc.digest "123456789");
      Alcotest.(check int) "incremental" (Store.Crc.digest "123456789")
        (Store.Crc.update (Store.Crc.digest "12345") "6789"));
    Alcotest.test_case "durable run checkpoints, GCs and stays ordered"
      `Quick (fun () ->
      let h = durable_cluster ~seed:"dur-basic" ~interval:2 () in
      send_waves h ~waves:4 ~per:4;
      ignore (Cluster.run h.c ~until:300.0);
      let seqs = sequences h in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all delivered" (4 * 4 * 4)
        (List.length seqs.(0));
      Array.iteri
        (fun i d ->
          if Durable.checkpoints d < 1 then
            Alcotest.failf "party %d saw no stable checkpoint" i;
          (* The backlog was GC'd below the last stable checkpoint. *)
          let floor = Abc_core.gc_floor (Atomic_channel.core h.chans.(i)) in
          if floor < 1 then Alcotest.failf "party %d never raised its floor" i)
        h.durs;
      (* The log was compacted: it replays to a snapshot plus bounded
         history, not the full round sequence. *)
      let rp = Store.Log.replay h.devs.(0) in
      (match rp.Store.Log.records with
       | Store.Log.Snapshot _ :: _ -> ()
       | _ -> Alcotest.fail "compacted log must start with a snapshot"));
    Alcotest.test_case "gc_below never drops undelivered rounds" `Quick
      (fun () ->
      let h = durable_cluster ~seed:"gc-safe" ~interval:0 () in
      send_waves h ~waves:2 ~per:2;
      ignore (Cluster.run h.c ~until:300.0);
      let ch = h.chans.(0) in
      let base = Atomic_channel.current_round ch in
      Alcotest.(check bool) "some rounds ran" true (base > 0);
      (* Ask to GC far beyond the delivered prefix: the floor must clamp
         at base — rounds at/after it (the reorder buffer) survive. *)
      Abc_core.gc_below (Atomic_channel.core ch) ~round:(base + 1000);
      Alcotest.(check int) "floor clamped at base" base
        (Abc_core.gc_floor (Atomic_channel.core ch));
      (* The channel still works: more payloads deliver normally. *)
      let before = Atomic_channel.deliveries ch in
      Cluster.inject h.c 0 (fun () ->
        Atomic_channel.send h.chans.(0) "post-gc");
      ignore (Cluster.run h.c ~until:600.0);
      Alcotest.(check bool) "post-GC delivery" true
        (Atomic_channel.deliveries ch > before));
    Alcotest.test_case "crash + restart replays the disk byte for byte"
      `Quick (fun () ->
      let h = durable_cluster ~seed:"dur-crash" ~interval:4 () in
      let rt3 = Cluster.runtime h.c 3 in
      Runtime.on_rebuild rt3 (fun () ->
        attach_party h 3 ~interval:4 ~pid:"dur");
      send_waves h ~waves:4 ~per:4;
      Cluster.at h.c ~time:1.2 (fun () -> Runtime.crash rt3);
      Cluster.at h.c ~time:2.0 (fun () -> Runtime.recover rt3);
      ignore (Cluster.run h.c ~until:300.0);
      let seqs = sequences h in
      Util.check_all_equal "total order after restart" (Array.to_list seqs);
      Alcotest.(check int) "party 3 missed nothing"
        (List.length seqs.(0))
        (List.length seqs.(3));
      Alcotest.(check bool) "restart replayed logged rounds" true
        (Durable.replayed_rounds h.durs.(3) > 0
        || Durable.restored_from h.durs.(3) >= 0));
    Alcotest.test_case "wiped party adopts a verified snapshot" `Quick
      (fun () ->
      let h = durable_cluster ~seed:"dur-wipe" ~interval:2 () in
      let rt3 = Cluster.runtime h.c 3 in
      Runtime.on_rebuild rt3 (fun () ->
        (* Disk lost: restart party 3 on a fresh device — it must fetch a
           signed snapshot from its peers instead of replaying history. *)
        h.devs.(3) <- Store.Device.mem ();
        Hashtbl.reset h.seen.(3);
        h.logs.(3) := [];
        attach_party h 3 ~interval:2 ~pid:"dur");
      send_waves h ~waves:6 ~per:4;
      Cluster.at h.c ~time:2.6 (fun () -> Runtime.crash rt3);
      Cluster.at h.c ~time:4.4 (fun () -> Runtime.recover rt3);
      ignore (Cluster.run h.c ~until:300.0);
      let seqs = sequences h in
      Util.check_all_equal "parties 0-2 agree"
        [ seqs.(0); seqs.(1); seqs.(2) ];
      Alcotest.(check bool) "party 3 adopted a snapshot" true
        (Durable.snapshots_adopted h.durs.(3) >= 1);
      (* Its (post-wipe) deliveries are a suffix of the agreed order. *)
      let full = seqs.(0) and part = seqs.(3) in
      let missing = List.length full - List.length part in
      Alcotest.(check bool) "suffix not longer than full" true (missing >= 0);
      let suffix = List.filteri (fun i _ -> i >= missing) full in
      if part <> suffix then
        Alcotest.fail "snapshot adopter's deliveries are not a suffix";
      Alcotest.(check bool) "snapshot skipped real history" true (missing > 0));
    Alcotest.test_case "tampered disk is distrusted, then re-fetched" `Quick
      (fun () ->
      (* Produce a compacted log with a snapshot, then corrupt the
         certificate: the restore must reject the whole device (certified
         state is never adopted unverified) and recover via the network. *)
      let h = durable_cluster ~seed:"dur-tamper" ~interval:2 () in
      send_waves h ~waves:4 ~per:4;
      ignore (Cluster.run h.c ~until:300.0);
      let rp = Store.Log.replay h.devs.(3) in
      (match rp.Store.Log.records with
       | Store.Log.Snapshot _ :: _ -> ()
       | _ -> Alcotest.fail "expected a compacted log");
      let tampered =
        List.map
          (fun r ->
            match r with
            | Store.Log.Snapshot { checkpoint; state } ->
              let cert = checkpoint.Store.Checkpoint.cert in
              let bad =
                String.mapi
                  (fun i ch ->
                    if i = 0 then Char.chr (Char.code ch lxor 1) else ch)
                  cert
              in
              Store.Log.Snapshot
                {
                  checkpoint = { checkpoint with Store.Checkpoint.cert = bad };
                  state;
                }
            | r -> r)
          rp.Store.Log.records
      in
      let rt3 = Cluster.runtime h.c 3 in
      Runtime.on_rebuild rt3 (fun () ->
        let dev = Store.Device.mem () in
        ignore (Store.Log.rewrite dev tampered);
        h.devs.(3) <- dev;
        Hashtbl.reset h.seen.(3);
        h.logs.(3) := [];
        attach_party h 3 ~interval:2 ~pid:"dur");
      let t0 = Cluster.now h.c in
      Cluster.at h.c ~time:(t0 +. 0.2) (fun () -> Runtime.crash rt3);
      Cluster.at h.c ~time:(t0 +. 0.8) (fun () -> Runtime.recover rt3);
      (* Fresh traffic so the cluster keeps moving and serves catch-up. *)
      for p = 0 to 2 do
        Cluster.at h.c ~time:(t0 +. 1.4) (fun () ->
          Cluster.inject h.c p (fun () ->
            Atomic_channel.send h.chans.(p) (Printf.sprintf "late-%d" p)))
      done;
      ignore (Cluster.run h.c ~until:(t0 +. 300.0));
      Alcotest.(check int) "tampered snapshot not restored" (-1)
        (Durable.restored_from h.durs.(3));
      Alcotest.(check bool) "recovered via network snapshot" true
        (Durable.snapshots_adopted h.durs.(3) >= 1));
    Alcotest.test_case "forged certificates never verify" `Quick (fun () ->
      (* Directly attack the verification predicate: t parties' shares
         cannot assemble a valid certificate, and a certificate for one
         statement does not transfer to another. *)
      let c = Util.cluster ~seed:"forge" () in
      let rt0 = Cluster.runtime c 0 in
      let pub = Tsig.public_of_secret rt0.Runtime.keys.Dealer.ag_tsig in
      let k = Tsig.k pub in
      Alcotest.(check bool) "quorum above t" true (k > 1);
      let stmt = Store.Checkpoint.statement ~pid:"dur" ~round:8 ~digest:"dg" in
      let drbg = Hashes.Drbg.create ~seed:"forge-drbg" in
      (* Only t = 1 party colludes: its share, however duplicated, must not
         assemble into a verifying certificate. *)
      let share =
        Tsig.release ~drbg rt0.Runtime.keys.Dealer.ag_tsig ~ctx:"x" stmt
      in
      (match Tsig.assemble pub ~ctx:"x" stmt (List.init k (fun _ -> share)) with
       | exception _ -> ()
       | forged ->
         Alcotest.(check bool) "t-of-n forgery rejected" false
           (Tsig.verify pub ~ctx:"x" ~signature:forged stmt));
      (* A real certificate for round 8 does not certify round 12. *)
      let shares =
        List.init k (fun i ->
          let rt = Cluster.runtime c i in
          Tsig.release ~drbg rt.Runtime.keys.Dealer.ag_tsig ~ctx:"x" stmt)
      in
      let cert = Tsig.assemble pub ~ctx:"x" stmt shares in
      Alcotest.(check bool) "genuine certificate verifies" true
        (Tsig.verify pub ~ctx:"x" ~signature:cert stmt);
      let other =
        Store.Checkpoint.statement ~pid:"dur" ~round:12 ~digest:"dg"
      in
      Alcotest.(check bool) "certificate bound to its statement" false
        (Tsig.verify pub ~ctx:"x" ~signature:cert other));
    Alcotest.test_case "backlog stays bounded under checkpointing" `Quick
      (fun () ->
      let h = durable_cluster ~seed:"dur-bound" ~interval:2 () in
      send_waves h ~waves:8 ~per:2;
      let hi = ref 0 in
      let dt = 0.05 in
      for k = 1 to int_of_float (20.0 /. dt) do
        Cluster.at h.c ~time:(float_of_int k *. dt) (fun () ->
          let v = Abc_core.backlog_rounds (Atomic_channel.core h.chans.(0)) in
          if v > !hi then hi := v)
      done;
      ignore (Cluster.run h.c ~until:300.0);
      let rounds = Atomic_channel.rounds_completed h.chans.(0) in
      Alcotest.(check bool) "enough rounds to matter" true (rounds > 6);
      (* Bound: the checkpoint interval (history until the next checkpoint
         stabilizes) plus one interval of GC slack retained below the
         stable round (straggler catch-up) plus the pipeline window plus
         certificate slack. *)
      let pd = h.c.Cluster.cfg.Config.pipeline_depth in
      let bound = 2 + 2 + (2 * pd) + 4 in
      if !hi > bound then
        Alcotest.failf "backlog reached %d (bound %d, rounds %d)" !hi bound
          rounds);
    Alcotest.test_case "durability does not change the delivery order"
      `Quick (fun () ->
      let run durable =
        let n = 4 in
        let c = Util.cluster ~seed:"dur-ident" ~max_batch:8 () in
        let logs = Array.init n (fun _ -> ref []) in
        let chans =
          Array.init n (fun i ->
            Atomic_channel.create (Cluster.runtime c i) ~pid:"ident"
              ~on_deliver:(fun ~sender m ->
                logs.(i) := (sender, m) :: !(logs.(i)))
              ())
        in
        if durable then
          Array.iteri
            (fun i ch ->
              ignore
                (Durable.attach (Cluster.runtime c i) ~chan:ch ~pid:"ident"
                   ~dev:(Store.Device.mem ()) ~interval:2 ()))
            chans;
        for p = 0 to n - 1 do
          for w = 0 to 2 do
            let submit () =
              Cluster.inject c p (fun () ->
                for k = 0 to 2 do
                  Atomic_channel.send chans.(p)
                    (Printf.sprintf "p%d.w%d.%d" p w k)
                done)
            in
            if w = 0 then submit ()
            else Cluster.at c ~time:(0.8 *. float_of_int w) submit
          done
        done;
        ignore (Cluster.run c ~until:300.0);
        (* A fresh start has nothing to catch up: no party asks. *)
        for i = 0 to n - 1 do
          let key = Printf.sprintf "p%d/abc.catchup.request_sent" i in
          if Trace.Metrics.find_counter (Sim.Engine.metrics c.Cluster.engine) key
             <> None
          then Alcotest.failf "fresh cluster: %s fired" key
        done;
        List.rev !(logs.(0))
      in
      let plain = run false and durable = run true in
      Alcotest.(check int) "same delivery count" (List.length plain)
        (List.length durable);
      if plain <> durable then
        Alcotest.fail "durable delivery order diverged from the plain run");
    Alcotest.test_case "party restarted from disk into a quiet cluster reaches the tip"
      `Quick (fun () -> quiet_restart ~disk:true);
    Alcotest.test_case "party rebuilt without a disk in a quiet cluster reaches the tip"
      `Quick (fun () -> quiet_restart ~disk:false);
    Alcotest.test_case "statement table stays bounded over a long durable run"
      `Quick (fun () ->
      (* Instance GC (checkpoint-driven, via gc_below) evicts the protocol
         pids' statements, and checkpoint GC evicts the durability pid's:
         a three times longer run must not hold more statements. *)
      let run waves =
        let h = durable_cluster ~seed:"dur-stmts" ~interval:2 () in
        send_waves h ~waves ~per:2;
        ignore (Cluster.run h.c ~until:600.0);
        let rounds = Atomic_channel.rounds_completed h.chans.(0) in
        let tables = Array.init 4 (fun p -> (Cluster.runtime h.c p).Runtime.stmts) in
        let peak = Array.fold_left (fun a t -> max a (Crypto.Stmt_table.peak t)) 0 tables in
        let live = Array.fold_left (fun a t -> max a (Crypto.Stmt_table.size t)) 0 tables in
        (rounds, peak, live)
      in
      let r1, peak1, live1 = run 8 in
      let r3, peak3, live3 = run 24 in
      if r3 < 2 * r1 then Alcotest.failf "long run too short: %d vs %d rounds" r3 r1;
      (* Without checkpoint GC the durability pid alone adds a statement
         per checkpoint: 54 -> 78 peak over these two runs. *)
      if peak3 > peak1 || live3 > live1 then
        Alcotest.failf
          "statements grew with history: peak %d -> %d, live %d -> %d over %d -> %d rounds"
          peak1 peak3 live1 live3 r1 r3;
      if peak3 > 64 then Alcotest.failf "peak %d statements per party" peak3);
  ]
