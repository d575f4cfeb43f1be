(* The schedule explorer's own test suite: planted-bug runs proving each
   oracle fires (and shrinks to a replayable minimal schedule), clean-trunk
   sweeps, equivocation adversaries, crash-recovery catch-up, and codec /
   determinism checks. *)

open Sintra

let no_tweaks = Vopr.Workload.no_tweaks

(* Run a planted-bug explorer sweep and assert: a failure is found within
   the seed budget, the expected oracle is blamed for the *shrunk* schedule,
   the shrunk schedule replays to the same verdict, and the repro line
   mentions the workload and the minimal mutations. *)
let expect_planted ~kind ~tweaks ~oracle:expected ?(seeds = 10)
    ?(expect_empty_shrink = false) () =
  let runner ~seed sched = Vopr.Workload.run ~tweaks ~kind ~seed sched in
  let oracles = Vopr.Oracle.all kind in
  let report =
    Vopr.Explorer.explore ~runner ~oracles
      ~generate:(fun ~run_seed ->
        Vopr.Explorer.schedule_of ~run_seed ~n:4 ~max_faulty:1
          ~allow_equiv:(Vopr.Workload.byz_supported kind))
      ~seed:"planted" ~seeds ()
  in
  match report.Vopr.Explorer.failures with
  | [] ->
    Alcotest.failf "planted %s bug not caught within %d seeds" expected seeds
  | f :: _ ->
    Alcotest.(check string)
      "blamed oracle" expected f.Vopr.Explorer.shrunk_outcome.Vopr.Explorer.oracle;
    if expect_empty_shrink then
      Alcotest.(check string)
        "shrinks to the empty schedule" ""
        (Vopr.Schedule.to_string f.Vopr.Explorer.shrunk);
    (* the minimal schedule must replay to the same failure *)
    (match
       Vopr.Explorer.eval ~runner ~oracles ~seed:f.Vopr.Explorer.run_seed
         f.Vopr.Explorer.shrunk
     with
     | Vopr.Explorer.Failed g ->
       Alcotest.(check string)
         "replay blames the same oracle" expected g.Vopr.Explorer.oracle
     | Vopr.Explorer.Clean ->
       Alcotest.fail "shrunk schedule replays clean");
    let line = Vopr.Explorer.repro ~workload:kind ~base_seed:"planted" f in
    let has needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    if not (has ("--workload " ^ Vopr.Oracle.kind_to_string kind) line) then
      Alcotest.failf "repro line lacks the workload: %s" line;
    if not (has (Vopr.Schedule.to_string f.Vopr.Explorer.shrunk) line) then
      Alcotest.failf "repro line lacks the minimal mutations: %s" line

let check_clean ~kind ~seeds =
  let runner ~seed sched = Vopr.Workload.run ~kind ~seed sched in
  let report =
    Vopr.Explorer.explore ~runner ~oracles:(Vopr.Oracle.all kind)
      ~generate:(fun ~run_seed ->
        Vopr.Explorer.schedule_of ~run_seed ~n:4 ~max_faulty:1
          ~allow_equiv:(Vopr.Workload.byz_supported kind))
      ~seed:"trunk" ~seeds ()
  in
  (match report.Vopr.Explorer.failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "%s trunk failed at seed %d (%s: %s)"
       (Vopr.Oracle.kind_to_string kind)
       f.Vopr.Explorer.index f.Vopr.Explorer.outcome.Vopr.Explorer.oracle
       f.Vopr.Explorer.outcome.Vopr.Explorer.reason)

let sched_of_string s =
  match Vopr.Schedule.of_string s with
  | Some sched -> sched
  | None -> Alcotest.failf "unparsable schedule %S" s

let assert_all_pass ~what (obs : Vopr.Oracle.obs) =
  List.iter
    (fun (o : Vopr.Oracle.oracle) ->
      match o.Vopr.Oracle.check obs with
      | Vopr.Oracle.Pass -> ()
      | Vopr.Oracle.Fail r ->
        Alcotest.failf "%s: oracle %s failed: %s" what o.Vopr.Oracle.name r)
    (Vopr.Oracle.all obs.Vopr.Oracle.kind)

let suite = [
  Alcotest.test_case "schedule codec: generated schedules roundtrip" `Quick
    (fun () ->
      let drbg = Hashes.Drbg.create ~seed:"codec" in
      for i = 0 to 49 do
        let s =
          Vopr.Schedule.generate ~drbg ~n:4 ~max_faulty:1 ~allow_equiv:(i mod 2 = 0)
        in
        match Vopr.Schedule.of_string (Vopr.Schedule.to_string s) with
        | Some s' when s' = s -> ()
        | Some _ ->
          Alcotest.failf "roundtrip changed %S" (Vopr.Schedule.to_string s)
        | None -> Alcotest.failf "unparsable %S" (Vopr.Schedule.to_string s)
      done;
      Alcotest.(check bool) "rejects junk" true
        (Vopr.Schedule.of_string "delay@x:3" = None
         && Vopr.Schedule.of_string "nonsense" = None
         && Vopr.Schedule.of_string "" = Some []));

  Alcotest.test_case "workload runs are deterministic" `Quick (fun () ->
    let sched = sched_of_string "delay@10:500,dup@3,drop@2>0:4" in
    let a = Vopr.Workload.run ~kind:Vopr.Oracle.Atomic ~seed:"det" sched in
    let b = Vopr.Workload.run ~kind:Vopr.Oracle.Atomic ~seed:"det" sched in
    Alcotest.(check bool) "identical observations" true (a = b));

  Alcotest.test_case "clean trunk: no oracle fires on any workload" `Quick
    (fun () ->
      check_clean ~kind:Vopr.Oracle.Reliable ~seeds:8;
      check_clean ~kind:Vopr.Oracle.Consistent ~seeds:8;
      check_clean ~kind:Vopr.Oracle.Aba ~seeds:6;
      check_clean ~kind:Vopr.Oracle.Mvba ~seeds:6;
      check_clean ~kind:Vopr.Oracle.Atomic ~seeds:4;
      check_clean ~kind:Vopr.Oracle.Secure ~seeds:3);

  Alcotest.test_case "planted liveness bug: stalled channel, empty shrink" `Quick
    (fun () ->
      let tweaks =
        { no_tweaks with
          Vopr.Workload.make_channel =
            Some (fun _rt ~party:_ ~on_deliver:_ ->
              { Vopr.Workload.send = (fun _ -> ()) }) }
      in
      expect_planted ~kind:Vopr.Oracle.Reliable ~tweaks ~oracle:"liveness"
        ~expect_empty_shrink:true ());

  Alcotest.test_case "planted agreement bug: one party mangles payloads" `Quick
    (fun () ->
      let tweaks =
        { no_tweaks with
          Vopr.Workload.wrap_deliver =
            Some (fun ~party base (s, m) ->
              if party = 0 then base (s, m ^ "?") else base (s, m)) }
      in
      expect_planted ~kind:Vopr.Oracle.Reliable ~tweaks ~oracle:"agreement"
        ~expect_empty_shrink:true ());

  Alcotest.test_case "planted integrity bug: deliveries recorded twice" `Quick
    (fun () ->
      let tweaks =
        { no_tweaks with
          Vopr.Workload.wrap_deliver =
            Some (fun ~party:_ base e -> base e; base e) }
      in
      expect_planted ~kind:Vopr.Oracle.Reliable ~tweaks ~oracle:"integrity"
        ~expect_empty_shrink:true ());

  Alcotest.test_case "planted total-order bug: first two deliveries swapped" `Quick
    (fun () ->
      let tweaks =
        { no_tweaks with
          Vopr.Workload.wrap_deliver =
            Some (fun ~party base ->
              if party <> 0 then base
              else begin
                (* hold the first delivery, emit it after the second *)
                let held = ref None and done_ = ref false in
                fun e ->
                  if !done_ then base e
                  else
                    match !held with
                    | None -> held := Some e
                    | Some first ->
                      done_ := true;
                      base e;
                      base first
              end) }
      in
      expect_planted ~kind:Vopr.Oracle.Atomic ~tweaks ~oracle:"total-order"
        ~expect_empty_shrink:true ());

  Alcotest.test_case "planted fifo bug: two same-origin deliveries swapped"
    `Quick (fun () ->
      (* Party 3 of the durable workload is degraded by its scripted power
         failure, so agreement and total order exempt it — but it must
         still deliver each steady origin's payloads in send order.  Swap
         its first two deliveries from origin 0. *)
      let tweaks =
        { no_tweaks with
          Vopr.Workload.wrap_deliver =
            Some (fun ~party base ->
              if party <> 3 then base
              else begin
                let held = ref None and done_ = ref false in
                fun ((origin, _) as e) ->
                  if !done_ || origin <> 0 then base e
                  else
                    match !held with
                    | None -> held := Some e
                    | Some first ->
                      done_ := true;
                      base e;
                      base first
              end) }
      in
      expect_planted ~kind:Vopr.Oracle.Durable ~tweaks ~oracle:"fifo"
        ~expect_empty_shrink:true ());

  Alcotest.test_case "planted validity bug: decisions outside proposals" `Quick
    (fun () ->
      let tweaks =
        { no_tweaks with
          Vopr.Workload.unanimous = Some true;
          Vopr.Workload.flip_decisions = true }
      in
      expect_planted ~kind:Vopr.Oracle.Aba ~tweaks ~oracle:"validity" ());

  Alcotest.test_case "planted flags bug: honest party wrongly flagged" `Quick
    (fun () ->
      let tweaks = { no_tweaks with Vopr.Workload.spurious_flag = true } in
      expect_planted ~kind:Vopr.Oracle.Reliable ~tweaks ~oracle:"flags" ());

  Alcotest.test_case "regression vopr#70: atomic straggler catches up" `Quick
    (fun () ->
      (* The explorer's first real find: one long link delay plus a dead
         link stalled a party forever once its peers garbage-collected the
         round's agreement.  Fixed by the DECIDED catch-up protocol. *)
      let sched = sched_of_string "delay@35:2204,drop@3>1:0" in
      let obs = Vopr.Workload.run ~kind:Vopr.Oracle.Atomic ~seed:"vopr#70" sched in
      assert_all_pass ~what:"vopr#70" obs);

  Alcotest.test_case "equivocating CBC sender: safety holds, culprit flagged"
    `Quick (fun () ->
      let sched = [ Vopr.Schedule.Byz_equivocate 3 ] in
      let obs =
        Vopr.Workload.run ~kind:Vopr.Oracle.Consistent ~seed:"eq-cbc" sched
      in
      assert_all_pass ~what:"equivocating cbc" obs;
      let flagged_by_honest =
        List.exists
          (fun p ->
            p <> 3
            && List.exists (fun (off, _) -> off = 3) obs.Vopr.Oracle.flagged.(p))
          [ 0; 1; 2 ]
      in
      Alcotest.(check bool) "some honest party flagged party 3" true
        flagged_by_honest);

  Alcotest.test_case "equivocating ABA party: safety holds, culprit flagged"
    `Quick (fun () ->
      let sched = [ Vopr.Schedule.Byz_equivocate 0 ] in
      let obs = Vopr.Workload.run ~kind:Vopr.Oracle.Aba ~seed:"eq-aba" sched in
      assert_all_pass ~what:"equivocating aba" obs;
      let flagged_by_honest =
        List.exists
          (fun p ->
            List.exists (fun (off, _) -> off = 0) obs.Vopr.Oracle.flagged.(p))
          [ 1; 2; 3 ]
      in
      Alcotest.(check bool) "some honest party flagged party 0" true
        flagged_by_honest);

  Alcotest.test_case
    "bad-share responder (crypto-amortized): safety holds, culprit flagged"
    `Quick (fun () ->
      (* Party 3 answers every SEND with a well-formed-but-invalid echo
         share under the retransmit storm; the honest senders' echo batches
         must bisect it out, flag party 3, and still close from the honest
         quorum. *)
      let sched = [ Vopr.Schedule.Byz_equivocate 3 ] in
      let obs =
        Vopr.Workload.run ~kind:Vopr.Oracle.Amortized ~seed:"bad-share" sched
      in
      assert_all_pass ~what:"bad-share responder" obs;
      let flagged_by_honest =
        List.exists
          (fun p ->
            List.exists (fun (off, _) -> off = 3) obs.Vopr.Oracle.flagged.(p))
          [ 0; 1; 2 ]
      in
      Alcotest.(check bool) "some honest party flagged party 3" true
        flagged_by_honest);

  Alcotest.test_case "crash, rebuild, catch up: atomic order and liveness"
    `Quick (fun () ->
      let c = Util.cluster ~seed:"vopr-rebuild" ~check_invariants:true () in
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans : Atomic_channel.t option array = Array.make 4 None in
      let make p =
        let rt = Cluster.runtime c p in
        chans.(p) <-
          Some
            (Atomic_channel.create rt ~pid:"cr"
               ~on_deliver:(fun ~sender m ->
                 logs.(p) := (sender, m) :: !(logs.(p)))
               ())
      in
      for p = 0 to 3 do make p done;
      let rt2 = Cluster.runtime c 2 in
      (* The rebuild hook models restarting from empty application state:
         a fresh channel instance at round 0 and a cleared delivery log. *)
      Runtime.on_rebuild rt2 (fun () ->
        logs.(2) := [];
        make 2);
      let send p m =
        Cluster.inject c p (fun () ->
          match chans.(p) with
          | Some ch -> Atomic_channel.send ch m
          | None -> ())
      in
      for p = 0 to 3 do send p (Printf.sprintf "p%d.a" p) done;
      (* Crash after the first wave has been delivered: a crash while our
         own payload is still in flight loses it by design (volatile state),
         which is not what this scenario is about. *)
      Cluster.at c ~time:0.5 (fun () -> Runtime.crash rt2);
      Cluster.at c ~time:3.0 (fun () -> Runtime.recover rt2);
      Cluster.at c ~time:4.0 (fun () ->
        send 0 "p0.b";
        send 1 "p1.b";
        send 3 "p3.b");
      Cluster.at c ~time:4.5 (fun () -> send 2 "p2.b");
      ignore (Cluster.run c ~until:300.0);
      Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
      let seqs = Array.map (fun l -> List.rev !l) logs in
      (* liveness: every payload of a live sender reached every party *)
      Alcotest.(check int) "all eight payloads delivered" 8
        (List.length seqs.(0));
      (* total order: identical delivery sequences, including the rebuilt
         party's replayed history *)
      Util.check_all_equal "order after rebuild" (Array.to_list seqs));

  Alcotest.test_case "duplicated frames: protocols deliver exactly once" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"vopr-dup" ~check_invariants:true () in
      Faults.install c (Faults.duplicate_every 1);
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun p ->
          Atomic_channel.create (Cluster.runtime c p) ~pid:"dup"
            ~on_deliver:(fun ~sender m ->
              logs.(p) := (sender, m) :: !(logs.(p)))
            ())
      in
      for p = 0 to 3 do
        Cluster.inject c p (fun () ->
          Atomic_channel.send chans.(p) (Printf.sprintf "d%d" p))
      done;
      ignore (Cluster.run c ~until:300.0);
      Array.iteri
        (fun p log ->
          let l = List.rev !log in
          if List.length l <> 4 then
            Alcotest.failf "party %d delivered %d times under duplication" p
              (List.length l);
          if List.length (List.sort_uniq compare l) <> 4 then
            Alcotest.failf "party %d saw a duplicate delivery" p)
        logs;
      Util.check_all_equal "order under duplication"
        (Array.to_list (Array.map (fun l -> List.rev !l) logs)));

  Alcotest.test_case "replayed frames: protocols deliver exactly once" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"vopr-replay" ~check_invariants:true () in
      Faults.install c (Faults.replay_every 2 ~delay:0.4);
      let logs = Array.init 4 (fun _ -> ref []) in
      let chans =
        Array.init 4 (fun p ->
          Reliable_channel.create (Cluster.runtime c p) ~pid:"rp"
            ~on_deliver:(fun ~sender m ->
              logs.(p) := (sender, m) :: !(logs.(p)))
            ())
      in
      for p = 0 to 3 do
        Cluster.inject c p (fun () ->
          Reliable_channel.send chans.(p) (Printf.sprintf "r%d" p))
      done;
      ignore (Cluster.run c ~until:300.0);
      Array.iteri
        (fun p log ->
          let l = List.sort compare !log in
          if List.length l <> 4 then
            Alcotest.failf "party %d delivered %d times under replay" p
              (List.length l);
          if List.length (List.sort_uniq compare l) <> 4 then
            Alcotest.failf "party %d saw a duplicate delivery" p)
        logs);
]
