(* Tests for batched atomic broadcast: the max_batch cap, deterministic
   union ordering, non-stalling with idle parties, and batch-wide catch-up
   after a rebuild. *)

open Sintra

let make_atomic ?(n = 4) (c : Cluster.t) pid =
  let logs = Array.init n (fun _ -> ref []) in
  let chans =
    Array.init n (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid
        ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i)))
        ())
  in
  (chans, logs)

let sequences logs = Array.map (fun l -> List.rev !l) logs

let suite = [
  Alcotest.test_case "max_batch cap bounds per-round progress" `Quick (fun () ->
    (* One sender queues 20 payloads before the first round can complete.
       With max_batch = 4 every proposed vector carries at most 4 of them,
       so draining the queue needs at least ceil(20/4) = 5 rounds. *)
    let c = Util.cluster ~seed:"bat1" ~max_batch:4 () in
    let chans, logs = make_atomic c "abc" in
    Cluster.inject c 1 (fun () ->
      for k = 0 to 19 do
        Atomic_channel.send chans.(1) (Printf.sprintf "m%d" k)
      done);
    ignore (Cluster.run c);
    let seqs = sequences logs in
    Util.check_all_equal "total order" (Array.to_list seqs);
    Alcotest.(check (list (pair int string))) "sender order preserved"
      (List.init 20 (fun k -> (1, Printf.sprintf "m%d" k)))
      seqs.(0);
    Alcotest.(check bool) "at least ceil(20/4) rounds" true
      (Atomic_channel.rounds_completed chans.(0) >= 5));

  Alcotest.test_case "batching amortizes rounds over the queue" `Quick (fun () ->
    (* The same 20-payload burst under the default cap completes in fewer
       rounds than under max_batch = 4: the whole point of batching. *)
    let run_with ~seed ~max_batch =
      let c = Util.cluster ~seed ~max_batch () in
      let chans, logs = make_atomic c "abc" in
      Cluster.inject c 1 (fun () ->
        for k = 0 to 19 do
          Atomic_channel.send chans.(1) (Printf.sprintf "m%d" k)
        done);
      ignore (Cluster.run c);
      Alcotest.(check int) "all delivered" 20
        (List.length (List.rev !(logs.(0))));
      Atomic_channel.rounds_completed chans.(0)
    in
    let capped = run_with ~seed:"bat2a" ~max_batch:4 in
    let batched = run_with ~seed:"bat2b" ~max_batch:256 in
    Alcotest.(check bool)
      (Printf.sprintf "fewer rounds batched (%d) than capped (%d)" batched
         capped)
      true (batched < capped));

  Alcotest.test_case "deterministic union order is identical everywhere" `Quick
    (fun () ->
      (* Four concurrent senders, eight payloads each, small cap: rounds
         decide multi-entry batches whose unions must flatten to the same
         sequence at every party. *)
      let c = Util.cluster ~seed:"bat3" ~max_batch:8 () in
      let chans, logs = make_atomic c "abc" in
      for i = 0 to 3 do
        Cluster.inject c i (fun () ->
          for k = 0 to 7 do
            Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i k)
          done)
      done;
      ignore (Cluster.run c);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 32 delivered" 32 (List.length seqs.(0));
      Alcotest.(check int) "no duplicates" 32
        (List.length (List.sort_uniq compare seqs.(0)));
      (* per-sender FIFO survives the union flattening *)
      for i = 0 to 3 do
        let mine = List.filter (fun (s, _) -> s = i) seqs.(0) in
        Alcotest.(check (list (pair int string))) (Printf.sprintf "fifo %d" i)
          (List.init 8 (fun k -> (i, Printf.sprintf "m%d.%d" i k)))
          mine
      done;
      Alcotest.(check bool) "rounds actually carried batches" true
        (Atomic_channel.rounds_completed chans.(0) < 32));

  Alcotest.test_case "empty-queue parties neither stall nor spin rounds" `Quick
    (fun () ->
      (* Only party 2 ever sends; the other three have empty queues in every
         round.  They must still vote rounds to completion (liveness), and
         once the queue drains nobody may keep proposing empty batches: the
         run must quiesce. *)
      let c = Util.cluster ~seed:"bat4" ~max_batch:16 () in
      let chans, logs = make_atomic c "abc" in
      Cluster.inject c 2 (fun () ->
        for k = 0 to 9 do
          Atomic_channel.send chans.(2) (Printf.sprintf "only%d" k)
        done);
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check (list (pair int string))) "all ten delivered everywhere"
        (List.init 10 (fun k -> (2, Printf.sprintf "only%d" k)))
        seqs.(0));

  Alcotest.test_case "rebuilt party skips pre-crash seqs within a batch" `Quick
    (fun () ->
      (* Every party bursts four payloads, so pre-crash history sits inside
         multi-item batches.  Party 2 crashes after delivering it, rebuilds
         from empty state, and catches up: the replayed batches must yield
         the same sequence as everyone else — each pre-crash (orig, seq)
         delivered exactly once, none dropped, none duplicated. *)
      let c = Util.cluster ~seed:"bat5" ~max_batch:8 () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans : Atomic_channel.t option array = Array.make 4 None in
      let make p =
        let rt = Cluster.runtime c p in
        chans.(p) <-
          Some
            (Atomic_channel.create rt ~pid:"bat"
               ~on_deliver:(fun ~sender m ->
                 logs.(p) := (sender, m) :: !(logs.(p)))
               ())
      in
      for p = 0 to 3 do make p done;
      let rt2 = Cluster.runtime c 2 in
      Runtime.on_rebuild rt2 (fun () ->
        logs.(2) := [];
        make 2);
      let burst p tag =
        Cluster.inject c p (fun () ->
          match chans.(p) with
          | Some ch ->
            for k = 0 to 3 do
              Atomic_channel.send ch (Printf.sprintf "p%d.%s%d" p tag k)
            done
          | None -> ())
      in
      for p = 0 to 3 do burst p "a" done;
      Cluster.at c ~time:0.5 (fun () -> Runtime.crash rt2);
      Cluster.at c ~time:3.0 (fun () -> Runtime.recover rt2);
      Cluster.at c ~time:4.0 (fun () ->
        burst 0 "b";
        burst 1 "b";
        burst 3 "b");
      Cluster.at c ~time:4.5 (fun () -> burst 2 "b");
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = sequences logs in
      Alcotest.(check int) "all 32 payloads delivered" 32
        (List.length seqs.(0));
      Alcotest.(check int) "no duplicates at the rebuilt party"
        (List.length seqs.(2))
        (List.length (List.sort_uniq compare seqs.(2)));
      Util.check_all_equal "order after rebuild" (Array.to_list seqs));

  Alcotest.test_case "rebuilt party heals a seq clash at delivery time" `Quick
    (fun () ->
      (* Party 2 sends "old" as (2, 0) and power-fails once its INIT has
         left; the other three deliver it while party 2 is down.  Rebuilt
         without a disk, party 2 restarts its counter and, at the instant
         it restarts, queues "new" under the same seq 0.  Its restart
         REQUEST draws the peers' DECIDED backlog, so the pre-crash "old"
         reaches it only after "new" is queued: that delivery reveals the
         clash, and "new" must move to a fresh seq rather than be mistaken
         for delivered.  Every party delivers each payload exactly once,
         "old" first. *)
      let c = Util.cluster ~seed:"bat6" ~max_batch:8 () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans : Atomic_channel.t option array = Array.make 4 None in
      let make p =
        chans.(p) <-
          Some
            (Atomic_channel.create (Cluster.runtime c p) ~pid:"bat"
               ~on_deliver:(fun ~sender m ->
                 logs.(p) := (sender, m) :: !(logs.(p)))
               ())
      in
      for p = 0 to 3 do make p done;
      let rt2 = Cluster.runtime c 2 in
      Runtime.on_rebuild rt2 (fun () ->
        logs.(2) := [];
        make 2);
      let send_from_2 m () =
        Cluster.inject c 2 (fun () ->
          Option.iter (fun ch -> Atomic_channel.send ch m) chans.(2))
      in
      send_from_2 "old" ();
      Cluster.at c ~time:0.05 (fun () -> Runtime.crash rt2);
      Cluster.at c ~time:2.0 (fun () -> Runtime.recover rt2);
      Cluster.at c ~time:2.0 (send_from_2 "new");
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      Array.iteri
        (fun p log ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "party %d delivers old then new, once each" p)
            [ (2, "old"); (2, "new") ]
            log)
        (sequences logs));

  Alcotest.test_case "a stale INIT is dropped, not answered with DECIDED"
    `Quick (fun () ->
      (* Party 3's round-0 INIT reaches its peers 2 s late, long after
         they decided and delivered round 0 among themselves.  Party 3
         sees all of their traffic, so it still finishes every round; the
         late INIT is dropped, because a DECIDED frame answers only a
         REQUEST. *)
      let c = Util.cluster ~seed:"bat8" ~max_batch:8 () in
      let chans, logs = make_atomic c "late" in
      let late_init frame =
        let envelope d =
          let pid = Wire.Dec.bytes d in
          (pid, Wire.Dec.bytes d)
        in
        match Wire.decode frame envelope with
        | Some ("late", body) ->
          Wire.decode_prefix body (fun d ->
            let tag = Wire.Dec.u8 d in
            (tag, Wire.Dec.int d))
          = Some (0, 0)
        | Some _ | None -> false
      in
      Cluster.set_intercept c (fun ~src ~dst frame ->
        if src = 3 && dst <> 3 && late_init frame then Sim.Net.Delay 2.0
        else Sim.Net.Deliver);
      for i = 0 to 3 do
        Cluster.inject c i (fun () ->
          Atomic_channel.send chans.(i) (Printf.sprintf "p%d.m0" i))
      done;
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check (list (pair int string))) "every payload delivered"
        (List.init 4 (fun i -> (i, Printf.sprintf "p%d.m0" i)))
        (List.sort compare seqs.(3));
      Alcotest.(check int) "the late party reaches every round"
        (Atomic_channel.current_round chans.(0))
        (Atomic_channel.current_round chans.(3));
      (* Every DECIDED frame answers a REQUEST, and a REQUEST draws at
         most a catch-up window (8 rounds) of them. *)
      for p = 0 to 3 do
        let count name = Util.counter_value c p ("abc.catchup." ^ name) in
        let sent = count "decided_sent" and served = count "request_served" in
        Alcotest.(check bool)
          (Printf.sprintf "party %d: %g DECIDED frames, all for its %g REQUESTs"
             p sent served)
          true
          (sent <= 8.0 *. served)
      done);

  Alcotest.test_case "snapshot install renumbers unproposed payloads in order"
    `Quick (fun () ->
      (* Party 1 queues a, b and c (seqs 0-2) behind a closed gate, so none
         rides in an INIT.  Every party then installs a state whose history
         covers (1, 0) and (1, 1): those seqs belong to an earlier
         incarnation, so a, b and c all move past them and keep their send
         order once the gate opens. *)
      let c = Util.cluster ~seed:"bat7" ~max_batch:8 () in
      let chans, logs = make_atomic c "abc" in
      let gate_open = ref false in
      Abc_core.set_gate (Atomic_channel.core chans.(1)) (fun () -> !gate_open);
      Cluster.inject c 1 (fun () ->
        List.iter (Atomic_channel.send chans.(1)) [ "a"; "b"; "c" ]);
      let state =
        Wire.encode (fun b ->
          Wire.Enc.int b 1;
          Wire.Enc.list b
            (fun b (o, lo, len) ->
              Wire.Enc.int b o;
              Wire.Enc.int b lo;
              Wire.Enc.int b len)
            [ (1, 0, 1) ];
          Wire.Enc.list b Wire.Enc.int [])
      in
      Cluster.at c ~time:0.5 (fun () ->
        for p = 0 to 3 do
          Cluster.inject c p (fun () ->
            Alcotest.(check bool)
              (Printf.sprintf "party %d installs" p)
              true
              (Abc_core.install_state (Atomic_channel.core chans.(p)) state))
        done);
      Cluster.at c ~time:1.0 (fun () ->
        Cluster.inject c 1 (fun () ->
          gate_open := true;
          Abc_core.kick (Atomic_channel.core chans.(1))));
      ignore (Cluster.run c ~until:300.0);
      Array.iteri
        (fun p log ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "party %d delivers a;b;c" p)
            [ (1, "a"); (1, "b"); (1, "c") ]
            log)
        (sequences logs));
]
