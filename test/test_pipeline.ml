(* Tests for pipelined atomic broadcast: the reorder buffer, the bounded
   window, catch-up across an open window, backlogs carried up to
   max_batch, and exact equivalence of pipeline_depth = 1 with the
   sequential protocol. *)

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

(* Sample a per-channel statistic at fine intervals and keep the maximum
   observed value (the probes piggyback on the virtual clock, so they are
   deterministic). *)
let probe_max (c : Cluster.t) ~(until : float) (f : unit -> int) : int ref =
  let hi = ref 0 in
  let dt = 0.02 in
  let steps = int_of_float (until /. dt) in
  for k = 1 to steps do
    Cluster.at c ~time:(float_of_int k *. dt) (fun () -> hi := max !hi (f ()))
  done;
  hi

let check_fifo (seq : (int * string) list) =
  (* per-sender delivery order must match per-sender send order, which in
     these scenarios is the lexicographic payload order *)
  let per_sender = Hashtbl.create 8 in
  List.iter
    (fun (s, m) ->
      let prev = try Hashtbl.find per_sender s with Not_found -> "" in
      if not (prev < m) then
        Alcotest.failf "sender %d: %s delivered after %s" s m prev;
      Hashtbl.replace per_sender s m)
    seq

let suite = [
  Alcotest.test_case "pipeline_depth = 1 reproduces the sequential protocol"
    `Quick (fun () ->
      (* Golden delivery log captured from the strictly sequential channel
         (one round in flight at a time) before pipelining was introduced:
         the pipelined code at depth 1 must reproduce it byte for byte —
         same deliveries, same order, same round count. *)
      let c =
        Util.cluster ~seed:"golden-pipeline" ~max_batch:8 ~pipeline_depth:1 ()
      in
      let chans, logs = make_atomic c "golden" in
      Cluster.inject c 0 (fun () ->
        for k = 0 to 5 do
          Atomic_channel.send chans.(0) (Printf.sprintf "p0.a%d" k)
        done);
      Cluster.at c ~time:0.3 (fun () ->
        Cluster.inject c 1 (fun () ->
          for k = 0 to 5 do
            Atomic_channel.send chans.(1) (Printf.sprintf "p1.a%d" k)
          done));
      Cluster.at c ~time:1.2 (fun () ->
        Cluster.inject c 2 (fun () ->
          for k = 0 to 3 do
            Atomic_channel.send chans.(2) (Printf.sprintf "p2.a%d" k)
          done));
      Cluster.at c ~time:2.0 (fun () ->
        Cluster.inject c 0 (fun () ->
          for k = 0 to 2 do
            Atomic_channel.send chans.(0) (Printf.sprintf "p0.b%d" k)
          done));
      ignore (Cluster.run c ~until:300.0);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      let rendered =
        String.concat ""
          (List.map (fun (s, m) -> Printf.sprintf "%d:%s;" s m) seqs.(0))
      in
      let golden =
        "0:p0.a0;0:p0.a1;0:p0.a2;0:p0.a3;0:p0.a4;0:p0.a5;"
        ^ "1:p1.a0;1:p1.a1;1:p1.a2;1:p1.a3;1:p1.a4;1:p1.a5;"
        ^ "2:p2.a0;2:p2.a1;2:p2.a2;2:p2.a3;"
        ^ "0:p0.b0;0:p0.b1;0:p0.b2;"
      in
      Alcotest.(check string) "golden delivery log" golden rendered;
      Alcotest.(check int) "golden round count" 8
        (Atomic_channel.rounds_completed chans.(0)));

  Alcotest.test_case "reorder buffer: out-of-order decides deliver in order"
    `Quick (fun () ->
      (* Eclipse round 0's agreement traffic toward party 3: it decides
         rounds 1..3 first (its peers run round 0 normally among
         themselves), parks them in the reorder buffer, and may deliver
         nothing until catch-up supplies round 0 — delivery must still
         follow strict round order. *)
      let c =
        Util.cluster ~seed:"pipe-reorder" ~max_batch:64 ~pipeline_depth:4 ()
      in
      let chans, logs = make_atomic c "rb" in
      let contains frame needle =
        let nl = String.length needle and fl = String.length frame in
        let rec hit i =
          i + nl <= fl && (String.sub frame i nl = needle || hit (i + 1))
        in
        hit 0
      in
      Cluster.set_intercept c (fun ~src:_ ~dst frame ->
        if dst = 3 && contains frame "rb/mv.0" then Sim.Net.Drop
        else Sim.Net.Deliver);
      for i = 0 to 3 do
        Cluster.inject c i (fun () ->
          Atomic_channel.send chans.(i) (Printf.sprintf "m%d.0" i))
      done;
      (* fresh payloads while round 0 is dark at party 3 open deeper rounds *)
      for wave = 1 to 3 do
        Cluster.at c ~time:(0.3 *. float_of_int wave) (fun () ->
          for i = 0 to 3 do
            Cluster.inject c i (fun () ->
              Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i wave))
          done)
      done;
      (* A later wave INITs a round beyond party 3's window, which triggers
         its catch-up REQUEST for the eclipsed round. *)
      Cluster.at c ~time:8.0 (fun () ->
        for i = 0 to 2 do
          Cluster.inject c i (fun () ->
            Atomic_channel.send chans.(i) (Printf.sprintf "m%d.4" i))
        done);
      let parked = probe_max c ~until:12.0 (fun () ->
        Abc_core.reorder_depth (Atomic_channel.core chans.(3)))
      in
      ignore (Cluster.run c ~until:300.0);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 19 delivered" 19 (List.length seqs.(0));
      Alcotest.(check int) "no duplicates" 19
        (List.length (List.sort_uniq compare seqs.(0)));
      check_fifo seqs.(0);
      Alcotest.(check bool)
        (Printf.sprintf "reorder buffer exercised (max depth %d)" !parked)
        true (!parked >= 1);
      Alcotest.(check int) "reorder buffer drained" 0
        (Abc_core.reorder_depth (Atomic_channel.core chans.(3))));

  Alcotest.test_case "window stalls at pipeline_depth and resumes" `Quick
    (fun () ->
      (* With round 0's agreement delayed for a long time, the window
         [0, depth) fills and no round beyond it may start; once round 0
         decides, the window slides and the backlog drains. *)
      let depth = 2 in
      let c =
        Util.cluster ~seed:"pipe-stall" ~max_batch:64 ~pipeline_depth:depth ()
      in
      let chans, logs = make_atomic c "ws" in
      Cluster.set_intercept c (fun ~src:_ ~dst:_ frame ->
        let needle = "ws/mv.0" in
        let nl = String.length needle and fl = String.length frame in
        let rec hit i =
          i + nl <= fl && (String.sub frame i nl = needle || hit (i + 1))
        in
        if hit 0 then Sim.Net.Delay 4.0 else Sim.Net.Deliver);
      for wave = 0 to 5 do
        Cluster.at c ~time:(0.01 +. (0.3 *. float_of_int wave)) (fun () ->
          for i = 0 to 3 do
            Cluster.inject c i (fun () ->
              Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i wave))
          done)
      done;
      let inflight = probe_max c ~until:12.0 (fun () ->
        Abc_core.inflight_rounds (Atomic_channel.core chans.(0)))
      in
      let stalled_base = ref (-1) in
      Cluster.at c ~time:3.0 (fun () ->
        (* round 0 still delayed: the base must not have moved *)
        stalled_base := Atomic_channel.current_round chans.(0));
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "base stalled at round 0 mid-delay" 0 !stalled_base;
      Alcotest.(check bool)
        (Printf.sprintf "window bound respected (max inflight %d)" !inflight)
        true (!inflight <= depth);
      Alcotest.(check bool) "pipelining happened" true (!inflight >= 2);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 24 delivered after resume" 24
        (List.length seqs.(0));
      check_fifo seqs.(0));

  Alcotest.test_case "rebuilt party catches up across an open window" `Quick
    (fun () ->
      (* A party loses its state while several rounds are in flight, comes
         back at round 0, and must adopt the decided history before joining
         the open window — including fresh payloads of its own. *)
      let c = Util.cluster ~seed:"pipe-rebuild" ~max_batch:16 () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans : Atomic_channel.t option array = Array.make 4 None in
      let make p =
        let rt = Cluster.runtime c p in
        chans.(p) <-
          Some
            (Atomic_channel.create rt ~pid:"pw"
               ~on_deliver:(fun ~sender m ->
                 logs.(p) := (sender, m) :: !(logs.(p)))
               ())
      in
      for p = 0 to 3 do make p done;
      let rt3 = Cluster.runtime c 3 in
      Runtime.on_rebuild rt3 (fun () ->
        logs.(3) := [];
        make 3);
      let send p m =
        Cluster.inject c p (fun () ->
          match chans.(p) with
          | Some ch -> Atomic_channel.send ch m
          | None -> ())
      in
      for p = 0 to 3 do send p (Printf.sprintf "p%d.a" p) done;
      (* keep the window busy while party 3 is away *)
      for wave = 0 to 3 do
        Cluster.at c ~time:(0.6 +. (0.5 *. float_of_int wave)) (fun () ->
          for p = 0 to 2 do
            send p (Printf.sprintf "p%d.w%d" p wave)
          done)
      done;
      Cluster.at c ~time:0.5 (fun () -> Runtime.crash rt3);
      Cluster.at c ~time:3.0 (fun () -> Runtime.recover rt3);
      Cluster.at c ~time:4.5 (fun () -> send 3 "p3.b");
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = sequences logs in
      Alcotest.(check int) "all 17 payloads delivered" 17
        (List.length seqs.(0));
      Util.check_all_equal "order after rebuild" (Array.to_list seqs));

  Alcotest.test_case "a bursty backlog delivers in total order" `Quick
    (fun () ->
      (* Eight waves of 12 payloads per party, 0.25 s apart: every
         payload is delivered, in one order at every party. *)
      let c = Util.cluster ~seed:"pipe-adapt" ~max_batch:256 () in
      let chans, logs = make_atomic c "ad" in
      for wave = 0 to 7 do
        Cluster.at c ~time:(0.01 +. (0.25 *. float_of_int wave)) (fun () ->
          for i = 0 to 3 do
            Cluster.inject c i (fun () ->
              for k = 0 to 11 do
                Atomic_channel.send chans.(i)
                  (Printf.sprintf "m%d.%d.%d" i wave k)
              done)
          done)
      done;
      ignore (Cluster.run c ~until:300.0);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 384 delivered" 384 (List.length seqs.(0)));

  Alcotest.test_case "a backlog rides in one vector up to max_batch" `Quick
    (fun () ->
      (* Party 0 queues 40 payloads in one step at depth 1.  The first send
         INITs round 0 with one payload; round 1 carries the other 39, so
         two rounds deliver all 40. *)
      let c =
        Util.cluster ~seed:"pipe-one-cap" ~max_batch:256 ~pipeline_depth:1 ()
      in
      let chans, logs = make_atomic c "cap" in
      Cluster.inject c 0 (fun () ->
        for k = 0 to 39 do
          Atomic_channel.send chans.(0) (Printf.sprintf "m%02d" k)
        done);
      ignore (Cluster.run c ~until:60.0);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 40 delivered" 40 (List.length seqs.(0));
      Array.iter
        (fun ch ->
          Alcotest.(check int) "rounds" 2 (Atomic_channel.rounds_completed ch))
        chans);

  Alcotest.test_case "a round only a Byzantine party INITed still decides"
    `Quick (fun () ->
      (* Party 3 is the only sender.  Its round-0 INIT reaches nobody (it
         sends selectively) and its round-1 INIT reaches everyone, so the
         honest parties join round 1 with party 3's payloads and have
         nothing fresh that would start round 0.  Round 1 decides and parks
         behind round 0; unless joining round 1 also starts round 0, the
         channel stalls with every payload undelivered. *)
      let c =
        Util.cluster ~seed:"pipe-hole" ~max_batch:8 ~pipeline_depth:2 ()
      in
      let chans, logs = make_atomic c "hole" in
      let init_round frame =
        let envelope d =
          let pid = Wire.Dec.bytes d in
          (pid, Wire.Dec.bytes d)
        in
        match Wire.decode frame envelope with
        | Some ("hole", body) ->
          (match
             Wire.decode_prefix body (fun d ->
               let tag = Wire.Dec.u8 d in
               (tag, Wire.Dec.int d))
           with
           | Some (0, round) -> Some round
           | Some _ | None -> None)
        | Some _ | None -> None
      in
      Cluster.set_intercept c (fun ~src ~dst frame ->
        if src = 3 && dst <> 3 && init_round frame = Some 0 then Sim.Net.Drop
        else Sim.Net.Deliver);
      Cluster.inject c 3 (fun () -> Atomic_channel.send chans.(3) "p3.a");
      Cluster.at c ~time:0.5 (fun () ->
        Cluster.inject c 3 (fun () -> Atomic_channel.send chans.(3) "p3.b"));
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Array.iteri
        (fun p seq ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "party %d delivers both payloads" p)
            [ (3, "p3.a"); (3, "p3.b") ]
            seq)
        seqs;
      Alcotest.(check int) "no round parked" 0
        (Abc_core.reorder_depth (Atomic_channel.core chans.(0))));

  Alcotest.test_case "a payload a decided batch left out goes first next round"
    `Quick (fun () ->
      (* Party 2 is cut off, so every round's pool holds the INITs of
         parties 0, 1 and 3, and a batch takes two of them.  Party 3's
         frames arrive 50 ms late, so its INIT is the last one every other
         proposer pools.  Parties 0 and 1 queue five payloads each and
         party 3 one, one payload per vector.  Round 0 leaves party 3's
         payload out; round 1 must carry it, although the other two
         vectors still bring fresh payloads and arrived first. *)
      let c =
        Util.cluster ~seed:"pipe-starved" ~max_batch:1 ~pipeline_depth:1 ()
      in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun i ->
          let rounds = ref 0 in
          Atomic_channel.create (Cluster.runtime c i) ~pid:"starved"
            ~on_deliver:(fun ~sender m ->
              logs.(i) := (!rounds, sender, m) :: !(logs.(i)))
            ~on_round_end:(fun () -> incr rounds)
            ())
      in
      Cluster.set_intercept c (fun ~src ~dst _ ->
        if src = 2 || dst = 2 then Sim.Net.Drop
        else if src = 3 && dst <> 3 then Sim.Net.Delay 0.05
        else Sim.Net.Deliver);
      List.iter
        (fun p ->
          Cluster.inject c p (fun () ->
            for k = 0 to 4 do
              Atomic_channel.send chans.(p) (Printf.sprintf "p%d.m%d" p k)
            done))
        [ 0; 1 ];
      Cluster.inject c 3 (fun () -> Atomic_channel.send chans.(3) "p3.m0");
      ignore (Cluster.run c ~until:120.0);
      List.iter
        (fun p ->
          let seq = List.rev !(logs.(p)) in
          Alcotest.(check int) (Printf.sprintf "party %d delivers all" p) 11
            (List.length seq);
          let round_of_p3 =
            List.find_map (fun (r, s, _) -> if s = 3 then Some r else None) seq
          in
          let round0 = List.filter (fun (r, _, _) -> r = 0) seq in
          Alcotest.(check bool) "round 0 left party 3's payload out" true
            (List.length round0 = 2 && round_of_p3 <> Some 0);
          Alcotest.(check (option int)) "party 3's payload rides in round 1"
            (Some 1) round_of_p3)
        [ 0; 1; 3 ]);

  Alcotest.test_case "a left-out payload rides in its origin's successor's next INIT"
    `Quick (fun () ->
      (* All four parties run, but party 3's frames arrive 50 ms late, so a
         proposer has its n-t = 3 INITs before party 3's and never pools
         it: moving pooled vectors first cannot help.  Vectors hold two
         payloads.  Parties 1 and 2 queue five payloads each, so they bring
         fresh ones every round; party 0, party 3's one successor (t = 1),
         sends one more payload at the end of each round, so its vector has
         room.  Round 0 leaves party 3's payload out, party 0's round-1
         INIT carries it beside its own, and round 1 delivers it. *)
      let c =
        Util.cluster ~seed:"pipe-adopt" ~max_batch:2 ~pipeline_depth:1 ()
      in
      let logs = Array.init 4 (fun _ -> ref []) in
      let sent0 = ref 1 in
      let chans = Array.make 4 None in
      let send p m = Option.iter (fun ch -> Atomic_channel.send ch m) chans.(p) in
      for i = 0 to 3 do
        let rounds = ref 0 in
        chans.(i) <-
          Some
            (Atomic_channel.create (Cluster.runtime c i) ~pid:"adopt"
               ~on_deliver:(fun ~sender m ->
                 logs.(i) := (!rounds, sender, m) :: !(logs.(i)))
               ~on_round_end:(fun () ->
                 incr rounds;
                 if i = 0 && !sent0 <= 5 then begin
                   send 0 (Printf.sprintf "p0.m%d" !sent0);
                   incr sent0
                 end)
               ())
      done;
      Cluster.set_intercept c (fun ~src ~dst _ ->
        if src = 3 && dst <> 3 then Sim.Net.Delay 0.05 else Sim.Net.Deliver);
      Cluster.inject c 0 (fun () -> send 0 "p0.m0");
      List.iter
        (fun p ->
          Cluster.inject c p (fun () ->
            for k = 0 to 4 do
              send p (Printf.sprintf "p%d.m%d" p k)
            done))
        [ 1; 2 ];
      Cluster.inject c 3 (fun () -> send 3 "p3.m0");
      ignore (Cluster.run c ~until:120.0);
      List.iter
        (fun p ->
          let seq = List.rev !(logs.(p)) in
          Alcotest.(check int) (Printf.sprintf "party %d delivers all" p) 17
            (List.length seq);
          Alcotest.(check (option int)) "party 3's payload rides in round 1"
            (Some 1)
            (List.find_map (fun (r, s, _) -> if s = 3 then Some r else None) seq))
        [ 0; 1; 2; 3 ];
      Alcotest.(check bool) "party 0 adopted" true
        (Util.counter_value c 0 "abc.adopted_items" >= 1.0));
]
