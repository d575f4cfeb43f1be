(* Tests for the optimistic atomic broadcast extension. *)

open Sintra

let make ?(timeout = 1.5) ?(n = 4) (c : Cluster.t) =
  let logs = Array.init n (fun _ -> ref []) in
  let chans =
    Array.init n (fun i ->
      Optimistic_channel.create ~timeout (Cluster.runtime c i) ~pid:"opt"
        ~on_deliver:(fun ~sender m -> logs.(i) := (sender, m) :: !(logs.(i))) ())
  in
  (chans, logs)

let sequences logs = Array.map (fun l -> List.rev !l) logs

let suite = [
  Alcotest.test_case "honest leader: total order on the fast path" `Quick (fun () ->
    let c = Util.cluster ~seed:"opt-fast" () in
    let chans, logs = make c in
    for i = 0 to 3 do
      for k = 0 to 3 do
        Cluster.inject c i (fun () ->
          Optimistic_channel.send chans.(i) (Printf.sprintf "m%d.%d" i k))
      done
    done;
    ignore (Cluster.run c ~until:120.0);
    let seqs = sequences logs in
    Util.check_all_equal "total order" (Array.to_list seqs);
    Alcotest.(check int) "all 16" 16 (List.length seqs.(0));
    Alcotest.(check int) "no duplicates" 16 (List.length (List.sort_uniq compare seqs.(0)));
    Alcotest.(check int) "still epoch 0" 0 (Optimistic_channel.current_epoch chans.(0));
    Alcotest.(check int) "all fast" 16 (Optimistic_channel.deliveries_fast chans.(0));
    Alcotest.(check int) "none recovered" 0
      (Optimistic_channel.deliveries_recovered chans.(0)));

  Alcotest.test_case "fast path is much faster than the randomized channel" `Quick
    (fun () ->
      (* Same workload on both channels, both run as in the paper
         ([max_batch 1], [pipeline_depth 1]): the optimistic one should have
         every party deliver all ten payloads in a small fraction of the
         randomized channel's virtual time (the paper's motivation for the
         optimistic protocols).  With batching the gap narrows to ~1.35x
         (EXPERIMENTS.md) without changing the argument. *)
      let elapsed make_chan send =
        let c = Util.cluster ~seed:"opt-vs" ~max_batch:1 ~pipeline_depth:1 () in
        let done_at = ref 0.0 in
        let count = ref 0 in
        let chans =
          Array.init 4 (fun i ->
            make_chan (Cluster.runtime c i) (fun () ->
              incr count;
              if !count = 40 then done_at := Cluster.now c))
        in
        for k = 0 to 9 do
          Cluster.inject c 1 (fun () -> send chans.(1) (Printf.sprintf "w%d" k))
        done;
        ignore (Cluster.run c ~until:300.0);
        if !count < 40 then Alcotest.fail "did not deliver the workload";
        !done_at
      in
      let t_opt =
        elapsed
          (fun rt cb ->
            Optimistic_channel.create ~timeout:5.0 rt ~pid:"x"
              ~on_deliver:(fun ~sender:_ _ -> cb ()) ())
          Optimistic_channel.send
      in
      let t_full =
        elapsed
          (fun rt cb ->
            `A (Atomic_channel.create rt ~pid:"x"
                  ~on_deliver:(fun ~sender:_ _ -> cb ()) ()))
          (fun (`A ch) m -> Atomic_channel.send ch m)
      in
      if t_opt *. 2.0 >= t_full then
        Alcotest.failf "optimistic %.3fs not clearly faster than full %.3fs" t_opt t_full);

  Alcotest.test_case "crashed leader: epoch change and progress" `Quick (fun () ->
    let c = Util.cluster ~seed:"opt-crash" () in
    let chans, logs = make ~timeout:1.0 c in
    Cluster.crash c 0;   (* epoch-0 leader *)
    for k = 0 to 3 do
      Cluster.inject c 2 (fun () ->
        Optimistic_channel.send chans.(2) (Printf.sprintf "x%d" k))
    done;
    ignore (Cluster.run c ~until:300.0);
    let seqs = sequences logs in
    Util.check_all_equal "live parties agree" [ seqs.(1); seqs.(2); seqs.(3) ];
    Alcotest.(check int) "all delivered" 4 (List.length seqs.(1));
    Alcotest.(check bool) "epoch advanced" true
      (Optimistic_channel.current_epoch chans.(1) >= 1);
    Alcotest.(check int) "new leader"
      (Optimistic_channel.current_epoch chans.(1) mod 4)
      (Optimistic_channel.current_leader chans.(1)));

  Alcotest.test_case "leader crash mid-stream loses nothing" `Quick (fun () ->
    let c = Util.cluster ~seed:"opt-mid" () in
    let chans, logs = make ~timeout:1.0 c in
    for k = 0 to 2 do
      Cluster.inject c 1 (fun () ->
        Optimistic_channel.send chans.(1) (Printf.sprintf "pre%d" k))
    done;
    Cluster.at c ~time:0.5 (fun () -> Cluster.crash c 0);
    Cluster.at c ~time:0.6 (fun () ->
      Cluster.inject c 2 (fun () -> Optimistic_channel.send chans.(2) "post0"));
    ignore (Cluster.run c ~until:300.0);
    let seqs = sequences logs in
    Util.check_all_equal "agree" [ seqs.(1); seqs.(2); seqs.(3) ];
    let payloads = List.map snd seqs.(1) in
    List.iter
      (fun m ->
        if not (List.mem m payloads) then Alcotest.failf "lost message %s" m)
      [ "pre0"; "pre1"; "pre2"; "post0" ];
    Alcotest.(check int) "exactly once" (List.length payloads)
      (List.length (List.sort_uniq compare payloads)));

  Alcotest.test_case "censoring leader is deposed" `Quick (fun () ->
    (* The epoch-0 leader (party 0) drops every message from party 3, so
       party 3's requests never get ordered in epoch 0; complaints rotate
       the leader and the censored messages get through. *)
    let c = Util.cluster ~seed:"opt-censor" () in
    let chans, logs = make ~timeout:1.0 c in
    Cluster.set_intercept c (fun ~src ~dst _ ->
      if src = 3 && dst = 0 then Sim.Net.Drop else Sim.Net.Deliver);
    Cluster.inject c 3 (fun () -> Optimistic_channel.send chans.(3) "censored!");
    ignore (Cluster.run c ~until:300.0);
    let seqs = sequences logs in
    Util.check_all_equal "agree" (Array.to_list seqs);
    Alcotest.(check bool) "censored message delivered" true
      (List.mem (3, "censored!") seqs.(0));
    Alcotest.(check bool) "epoch advanced" true
      (Optimistic_channel.current_epoch chans.(1) >= 1));

  Alcotest.test_case "back-to-back leader failures (n=7, t=2)" `Slow (fun () ->
    (* Leaders of epochs 0 and 1 both crash: two consecutive epoch changes
       are needed before the workload gets through. *)
    let c = Util.cluster ~seed:"opt-two" ~n:7 ~t:2 () in
    let chans, logs = make ~timeout:1.0 ~n:7 c in
    Cluster.crash c 0;
    Cluster.crash c 1;
    Cluster.inject c 2 (fun () -> Optimistic_channel.send chans.(2) "survivor");
    ignore (Cluster.run c ~until:600.0);
    let seqs = sequences logs in
    Util.check_all_equal "agree" [ seqs.(2); seqs.(3); seqs.(4); seqs.(5); seqs.(6) ];
    Alcotest.(check bool) "delivered" true (List.mem (2, "survivor") seqs.(2));
    Alcotest.(check bool) "epoch >= 2" true
      (Optimistic_channel.current_epoch chans.(2) >= 2));

  Alcotest.test_case "traffic across an epoch change is delivered exactly once" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"opt-dup" () in
      let chans, logs = make ~timeout:0.8 c in
      (* sustained traffic while the leader dies *)
      for k = 0 to 7 do
        Cluster.at c ~time:(0.1 *. float_of_int k) (fun () ->
          Cluster.inject c 1 (fun () ->
            Optimistic_channel.send chans.(1) (Printf.sprintf "s%d" k)))
      done;
      Cluster.at c ~time:0.35 (fun () -> Cluster.crash c 0);
      ignore (Cluster.run c ~until:600.0);
      let seqs = sequences logs in
      Util.check_all_equal "agree" [ seqs.(1); seqs.(2); seqs.(3) ];
      let payloads = List.map snd seqs.(1) in
      Alcotest.(check int) "eight delivered" 8 (List.length payloads);
      Alcotest.(check int) "no duplicates" 8
        (List.length (List.sort_uniq compare payloads)));
]
