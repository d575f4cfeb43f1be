(* Tests for the discrete-event simulator: event ordering, determinism,
   link FIFO and authentication, CPU accounting. *)

(* Two nodes 1 ms apart whose full 1024-bit exponentiation takes 1 s. *)
let one_second_net () =
  let topo = Sim.Topology.uniform ~exp_ms:1000.0 ~count:2 ~latency:0.001 ~jitter_frac:0.0 () in
  let engine = Sim.Engine.create () in
  (engine, Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k"))

let suite = [
  Alcotest.test_case "heap orders by time then sequence" `Quick (fun () ->
    let h = Sim.Heap.create () in
    Sim.Heap.push h ~time:2.0 "c";
    Sim.Heap.push h ~time:1.0 "a";
    Sim.Heap.push h ~time:1.0 "b";   (* same time: insertion order *)
    Sim.Heap.push h ~time:0.5 "z";
    let order = List.init 4 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> "?") in
    Alcotest.(check (list string)) "order" [ "z"; "a"; "b"; "c" ] order;
    Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h));

  Alcotest.test_case "heap stress against sorted reference" `Quick (fun () ->
    let h = Sim.Heap.create () in
    let d = Hashes.Drbg.create ~seed:"heap" in
    let times = List.init 500 (fun _ -> Hashes.Drbg.float d 100.0) in
    List.iter (fun t -> Sim.Heap.push h ~time:t t) times;
    let popped = List.init 500 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> nan) in
    Alcotest.(check bool) "sorted" true (popped = List.sort compare times));

  Alcotest.test_case "engine executes in time order" `Quick (fun () ->
    let e = Sim.Engine.create () in
    let log = ref [] in
    Sim.Engine.schedule e ~delay:3.0 (fun () -> log := "late" :: !log);
    Sim.Engine.schedule e ~delay:1.0 (fun () ->
      log := "early" :: !log;
      (* events scheduled from events run too *)
      Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "nested" :: !log));
    let n = Sim.Engine.run e in
    Alcotest.(check int) "three events" 3 n;
    Alcotest.(check (list string)) "order" [ "late"; "nested"; "early" ] !log;
    Alcotest.(check (float 1e-9)) "clock" 3.0 (Sim.Engine.now e));

  Alcotest.test_case "engine until bound" `Quick (fun () ->
    let e = Sim.Engine.create () in
    let hits = ref 0 in
    for i = 1 to 10 do
      Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr hits)
    done;
    let n = Sim.Engine.run ~until:5.5 e in
    Alcotest.(check int) "five ran" 5 n;
    Alcotest.(check int) "hits" 5 !hits;
    Alcotest.(check int) "rest pending" 5 (Sim.Engine.pending e));

  Alcotest.test_case "negative delays clamp to now" `Quick (fun () ->
    let e = Sim.Engine.create () in
    let ran = ref false in
    Sim.Engine.schedule e ~delay:(-5.0) (fun () -> ran := true);
    ignore (Sim.Engine.run e);
    Alcotest.(check bool) "ran" true !ran;
    Alcotest.(check (float 1e-9)) "at zero" 0.0 (Sim.Engine.now e));

  Alcotest.test_case "network delivers with topology latency" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 ~latency:0.5 ~jitter_frac:0.0 () in
    let engine = Sim.Engine.create () in
    let keys = Array.make_matrix 2 2 "k" in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:keys in
    let arrival = ref nan in
    Sim.Net.set_handler net 1 (fun ~src:_ _ -> arrival := Sim.Engine.now engine);
    Sim.Net.send net ~src:0 ~dst:1 "ping";
    ignore (Sim.Engine.run engine);
    Alcotest.(check (float 1e-6)) "0.5s" 0.5 !arrival);

  Alcotest.test_case "per-pair FIFO even under jitter" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 ~latency:0.1 ~jitter_frac:0.9 () in
    let engine = Sim.Engine.create ~seed:"fifo" () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let got = ref [] in
    Sim.Net.set_handler net 1 (fun ~src:_ m -> got := m :: !got);
    for i = 0 to 49 do
      Sim.Net.send net ~src:0 ~dst:1 (string_of_int i)
    done;
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "in order"
      (List.init 50 string_of_int) (List.rev !got));

  Alcotest.test_case "simulation is deterministic in its seed" `Quick (fun () ->
    let run_once () =
      let topo = Sim.Topology.uniform ~count:3 ~latency:0.05 ~jitter_frac:0.5 () in
      let engine = Sim.Engine.create ~seed:"det" () in
      let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 3 3 "k") in
      let log = ref [] in
      for i = 0 to 2 do
        Sim.Net.set_handler net i (fun ~src m ->
          log := Printf.sprintf "%d<-%d:%s@%.9f" i src m (Sim.Engine.now engine) :: !log)
      done;
      Sim.Net.send net ~src:0 ~dst:1 "a";
      Sim.Net.send net ~src:1 ~dst:2 "b";
      Sim.Net.send net ~src:2 ~dst:0 "c";
      ignore (Sim.Engine.run engine);
      !log
    in
    Alcotest.(check (list string)) "identical" (run_once ()) (run_once ()));

  Alcotest.test_case "tampered payloads are dropped by the MAC" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "secret") in
    let got = ref 0 in
    Sim.Net.set_handler net 1 (fun ~src:_ _ -> incr got);
    Sim.Net.set_intercept net (fun ~src:_ ~dst:_ payload ->
      match payload with
      | "evil-target" -> Sim.Net.Replace "replaced!"
      | "same-bytes" -> Sim.Net.Replace "same-bytes"
      | _ -> Sim.Net.Deliver);
    Sim.Net.send net ~src:0 ~dst:1 "fine";
    Sim.Net.send net ~src:0 ~dst:1 "evil-target";
    ignore (Sim.Engine.run engine);
    Alcotest.(check int) "only clean delivered" 1 !got;
    Alcotest.(check int) "mac failure counted" 1 (Sim.Net.mac_failures net);
    (* A frame replaced by its own bytes passes the MAC, so the idle
       receiver must be woken to handle it. *)
    Sim.Net.send net ~src:0 ~dst:1 "same-bytes";
    ignore (Sim.Engine.run engine);
    Alcotest.(check int) "replaced by its own bytes, delivered" 2 !got;
    Alcotest.(check int) "no further mac failure" 1 (Sim.Net.mac_failures net));

  Alcotest.test_case "drop and delay interception" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 ~latency:0.1 ~jitter_frac:0.0 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let arrivals = ref [] in
    Sim.Net.set_handler net 1 (fun ~src:_ m ->
      arrivals := (m, Sim.Engine.now engine) :: !arrivals);
    Sim.Net.set_intercept net (fun ~src:_ ~dst:_ payload ->
      match payload with
      | "dropme" -> Sim.Net.Drop
      | "slow" -> Sim.Net.Delay 5.0
      | _ -> Sim.Net.Deliver);
    Sim.Net.send net ~src:0 ~dst:1 "dropme";
    Sim.Net.send net ~src:0 ~dst:1 "slow";
    Sim.Net.send net ~src:0 ~dst:1 "fast";
    ignore (Sim.Engine.run engine);
    (* links are FIFO streams (like the prototype's TCP), so the delayed
       message holds back the one sent after it *)
    match List.rev !arrivals with
    | [ ("slow", t_slow); ("fast", t_fast) ] ->
      Alcotest.(check bool) "slow after 5s" true (t_slow >= 5.0);
      Alcotest.(check bool) "fast held back by FIFO" true (t_fast >= t_slow)
    | other ->
      Alcotest.failf "unexpected arrivals: %s"
        (String.concat ";" (List.map fst other)));

  Alcotest.test_case "crashed node is silent" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let got = ref 0 in
    Sim.Net.set_handler net 1 (fun ~src:_ _ -> incr got);
    Sim.Net.crash net 0;
    Sim.Net.send net ~src:0 ~dst:1 "from the dead";
    ignore (Sim.Engine.run engine);
    Alcotest.(check int) "nothing" 0 !got;
    (* and a crashed receiver drops input *)
    Sim.Net.crash net 1;
    Sim.Net.send net ~src:1 ~dst:0 "x";
    ignore (Sim.Engine.run engine);
    Alcotest.(check int) "still nothing" 0 !got);

  Alcotest.test_case "handler cost delays outgoing messages" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~exp_ms:100.0 ~count:2 ~latency:0.01 ~jitter_frac:0.0 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let reply_time = ref nan in
    Sim.Net.set_handler net 1 (fun ~src:_ _ ->
      (* charge one full 1024-bit exponentiation: 100 ms *)
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024;
      Sim.Net.send net ~src:1 ~dst:0 "reply");
    Sim.Net.set_handler net 0 (fun ~src:_ _ -> reply_time := Sim.Engine.now engine);
    Sim.Net.send net ~src:0 ~dst:1 "request";
    ignore (Sim.Engine.run engine);
    (* 0.01 out + 0.1 compute + 0.01 back *)
    Alcotest.(check (float 1e-6)) "latency + compute" 0.12 !reply_time);

  Alcotest.test_case "busy node queues messages" `Quick (fun () ->
    let topo = Sim.Topology.uniform ~exp_ms:1000.0 ~count:2 ~latency:0.001 ~jitter_frac:0.0 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let times = ref [] in
    Sim.Net.set_handler net 1 (fun ~src:_ _ ->
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024;  (* 1 s each *)
      times := Sim.Engine.now engine :: !times);
    Sim.Net.send net ~src:0 ~dst:1 "a";
    Sim.Net.send net ~src:0 ~dst:1 "b";
    ignore (Sim.Engine.run engine);
    match List.rev !times with
    | [ t1; t2 ] ->
      (* second message processed only after the first's compute finishes *)
      Alcotest.(check bool) "sequential cpu" true (t2 -. t1 >= 0.999)
    | _ -> Alcotest.fail "expected two deliveries");

  Alcotest.test_case "same-instant injects queue on one cpu" `Quick (fun () ->
    let engine, net = one_second_net () in
    let starts = ref [] in
    let step ~charged () =
      starts := Sim.Engine.now engine :: !starts;
      if charged then Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024
    in
    Sim.Net.inject net 1 (step ~charged:true);
    Sim.Net.inject net 1 (step ~charged:true);
    Sim.Net.inject net 1 (step ~charged:false);
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list (float 1e-9))) "starts" [ 0.0; 1.0; 2.0 ] (List.rev !starts));

  Alcotest.test_case "an inject waits for the step that made it" `Quick (fun () ->
    let engine, net = one_second_net () in
    let starts = ref [] in
    let step name () =
      starts := (name, Sim.Engine.now engine) :: !starts;
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024
    in
    Sim.Net.set_handler net 1 (fun ~src:_ _ ->
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024;
      Sim.Net.inject net 1 (step "nested"));
    Sim.Net.send net ~src:0 ~dst:1 "frame";
    Sim.Engine.schedule_at engine ~time:1.5 (fun () -> Sim.Net.inject net 1 (step "outside"));
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list (pair string (float 1e-9)))) "starts"
      [ ("nested", 1.001); ("outside", 2.001) ] (List.rev !starts));

  Alcotest.test_case "an inject inside a step schedules no spare wake" `Quick (fun () ->
    (* The frame's arrival, its 1 s step, and the injected step at 1.001 s:
       three events, none that only re-arms the wake. *)
    let engine, net = one_second_net () in
    let ran = ref nan in
    Sim.Net.set_handler net 1 (fun ~src:_ _ ->
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024;
      Sim.Net.inject net 1 (fun () -> ran := Sim.Engine.now engine));
    Sim.Net.send net ~src:0 ~dst:1 "frame";
    Alcotest.(check int) "events" 3 (Sim.Engine.run engine);
    Alcotest.(check (float 1e-9)) "injected step" 1.001 !ran);

  Alcotest.test_case "a crash drops an inject that has not started" `Quick (fun () ->
    let engine, net = one_second_net () in
    let ran = ref [] in
    let step name () =
      ran := name :: !ran;
      Sim.Cost.exp_full (Sim.Net.meter net 1) ~bits:1024
    in
    Sim.Net.inject net 1 (step "first");
    Sim.Engine.schedule_at engine ~time:0.5 (fun () -> Sim.Net.inject net 1 (step "queued"));
    Sim.Engine.schedule_at engine ~time:0.7 (fun () -> Sim.Net.crash net 1);
    Sim.Engine.schedule_at engine ~time:2.0 (fun () -> Sim.Net.recover net 1);
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "ran" [ "first" ] (List.rev !ran));

  Alcotest.test_case "cost model scales with key size" `Quick (fun () ->
    let full b = Sim.Cost.modexp_ms ~exp_ms:100.0 ~mod_bits:b ~exp_bits:b in
    Alcotest.(check (float 1e-9)) "1024 calibrated" 100.0 (full 1024);
    (* cubic: halving the size divides by 8 *)
    Alcotest.(check (float 1e-9)) "512" 12.5 (full 512);
    let e160 = Sim.Cost.modexp_ms ~exp_ms:100.0 ~mod_bits:1024 ~exp_bits:160 in
    Alcotest.(check (float 1e-6)) "short exponent" (100.0 *. 160.0 /. 1024.0) e160);

  Alcotest.test_case "fast-path charges undercut the exps they replace" `Quick (fun () ->
    let charge f =
      let m = Sim.Cost.create_meter ~exp_ms:100.0 in
      f m; m.Sim.Cost.charged_ms
    in
    let two_exps = charge (fun m ->
      Sim.Cost.exp m ~mod_bits:1024 ~exp_bits:160;
      Sim.Cost.exp m ~mod_bits:1024 ~exp_bits:160) in
    let one_exp2 = charge (fun m -> Sim.Cost.exp2 m ~mod_bits:1024 ~exp_bits:160) in
    (* one double exponentiation replaces TWO plain exps at ~2x their
       single cost times the multi-exp factor — strictly cheaper *)
    Alcotest.(check bool) "exp2 < 2 exps" true (one_exp2 < two_exps);
    Alcotest.(check (float 1e-9)) "exp2 factor"
      (Sim.Cost.multi_exp_factor *. Sim.Cost.modexp_ms ~exp_ms:100.0 ~mod_bits:1024 ~exp_bits:160)
      one_exp2;
    let plain = charge (fun m -> Sim.Cost.exp m ~mod_bits:1024 ~exp_bits:160) in
    let fixed = charge (fun m -> Sim.Cost.exp_fixed m ~mod_bits:1024 ~exp_bits:160) in
    Alcotest.(check bool) "fixed-base < plain" true (fixed < plain);
    Alcotest.(check (float 1e-9)) "fixed factor"
      (Sim.Cost.fixed_base_factor *. plain) fixed;
    (* the op counters classify charges correctly *)
    let m = Sim.Cost.create_meter ~exp_ms:100.0 in
    Sim.Cost.exp m ~mod_bits:1024 ~exp_bits:160;
    Sim.Cost.exp2 m ~mod_bits:1024 ~exp_bits:160;
    Sim.Cost.exp_fixed m ~mod_bits:1024 ~exp_bits:160;
    Alcotest.(check (list int)) "counters" [ 1; 1; 1 ]
      [ m.Sim.Cost.exp_count; m.Sim.Cost.exp2_count; m.Sim.Cost.fixed_count ]);

  Alcotest.test_case "paper topologies are well-formed" `Quick (fun () ->
    Alcotest.(check int) "lan n" 4 (Sim.Topology.n Sim.Topology.lan);
    Alcotest.(check int) "internet n" 4 (Sim.Topology.n Sim.Topology.internet);
    Alcotest.(check int) "combined n" 7 (Sim.Topology.n Sim.Topology.combined);
    (* RTT matrix symmetry *)
    let r = Sim.Topology.internet_rtt in
    for i = 0 to 3 do
      for j = 0 to 3 do
        if abs_float (r.(i).(j) -. r.(j).(i)) > 1e-9 then Alcotest.fail "asymmetric rtt"
      done
    done;
    (* one-way latencies are positive and RTT/2-scaled (jitter and the
       heavy tail allow up to ~3.5x) *)
    let d = Hashes.Drbg.create ~seed:"topo" in
    for _ = 1 to 50 do
      let l = Sim.Topology.internet.Sim.Topology.one_way 0 1 100 d in
      if not (l > 0.1 && l < 0.6) then Alcotest.failf "latency out of range: %f" l
    done);

  Alcotest.test_case "loopback: a replaced self-addressed frame is rejected by the MAC"
    `Quick (fun () ->
    let topo = Sim.Topology.uniform ~count:2 () in
    let engine = Sim.Engine.create () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "secret") in
    let got = ref [] in
    Sim.Net.set_handler net 0 (fun ~src:_ m -> got := m :: !got);
    Sim.Net.set_intercept net (fun ~src:_ ~dst:_ payload ->
      if payload = "evil-target" then Sim.Net.Replace "replaced!" else Sim.Net.Deliver);
    Sim.Net.send net ~src:0 ~dst:0 "fine";
    Sim.Net.send net ~src:0 ~dst:0 "evil-target";
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "only the sender's bytes delivered" [ "fine" ] !got;
    Alcotest.(check int) "mac failure counted" 1 (Sim.Net.mac_failures net);
    Sim.Net.publish_metrics net;
    let get name =
      match Trace.Metrics.find_counter (Sim.Engine.metrics engine) name with
      | Some c -> Trace.Metrics.value c
      | None -> Alcotest.failf "missing counter %s" name
    in
    (* The replaced frame alone was tagged and checked. *)
    Alcotest.(check (float 0.0)) "macs" 2.0 (get "p0/net.macs");
    Alcotest.(check (float 0.0)) "loopbacks" 2.0 (get "p0/net.loopback_msgs"));

  Alcotest.test_case "loopback: delay, duplicate and replay keep their schedule"
    `Quick (fun () ->
    (* Latency grows with the frame's size and draws jitter, so a loopback
       that skipped the draw or sized its frame without the 20-byte tag
       would move every arrival below. *)
    let topo =
      { Sim.Topology.label = "sized";
        hosts =
          Array.init 2 (fun i ->
            { Sim.Topology.name = Printf.sprintf "N%d" i; exp_ms = 10.0 });
        one_way =
          (fun _ _ size drbg ->
            0.01 +. (float_of_int size *. 1e-5) +. Hashes.Drbg.float drbg 0.002) }
    in
    let engine = Sim.Engine.create ~seed:"loopback" () in
    let net = Sim.Net.create ~engine ~topo ~mac_keys:(Array.make_matrix 2 2 "k") in
    let log = ref [] in
    for i = 0 to 1 do
      Sim.Net.set_handler net i (fun ~src m ->
        log := Printf.sprintf "%d>%d:%s@%.9f" src i m (Sim.Engine.now engine) :: !log)
    done;
    Sim.Net.set_intercept net (fun ~src:_ ~dst:_ payload ->
      match payload with
      | "delay" -> Sim.Net.Delay 0.3
      | "dup" -> Sim.Net.Duplicate
      | "replay" -> Sim.Net.Replay 0.5
      | _ -> Sim.Net.Deliver);
    List.iter
      (fun (src, dst, m) -> Sim.Net.send net ~src ~dst m)
      [ (1, 1, "a"); (1, 1, "delay"); (1, 0, "x"); (1, 1, "dup");
        (1, 1, "replay"); (0, 1, "y"); (1, 1, "b") ];
    ignore (Sim.Engine.run engine);
    (* The schedule every loopback had when it was tagged and checked. *)
    Alcotest.(check (list string)) "arrivals"
      [ "0>1:y@0.011083336"; "1>1:a@0.011612489"; "1>0:x@0.012276755";
        "1>1:delay@0.310813166"; "1>1:dup@0.310813167"; "1>1:dup@0.310813168";
        "1>1:replay@0.310813169"; "1>1:b@0.310813170"; "1>1:replay@0.511735464" ]
      (List.rev !log);
    Alcotest.(check int) "no mac failures" 0 (Sim.Net.mac_failures net);
    Sim.Net.publish_metrics net;
    let get name =
      match Trace.Metrics.find_counter (Sim.Engine.metrics engine) name with
      | Some c -> Trace.Metrics.value c
      | None -> Alcotest.failf "missing counter %s" name
    in
    (* x and y crossed the link: each tagged by its sender, checked by its
       receiver. *)
    Alcotest.(check (list (float 0.0))) "macs, loopbacks"
      [ 2.0; 2.0; 0.0; 5.0 ]
      [ get "p0/net.macs"; get "p1/net.macs";
        get "p0/net.loopback_msgs"; get "p1/net.loopback_msgs" ]);

  Alcotest.test_case "loopback: a fault-free cluster computes two MACs per link frame"
    `Quick (fun () ->
    let c = Util.cluster ~seed:"loopback-macs" () in
    let chans =
      Array.init 4 (fun i ->
        Sintra.Atomic_channel.create (Sintra.Cluster.runtime c i) ~pid:"lb"
          ~on_deliver:(fun ~sender:_ _ -> ()) ())
    in
    for p = 0 to 3 do
      Sintra.Cluster.inject c p (fun () ->
        Sintra.Atomic_channel.send chans.(p) (Printf.sprintf "m%d" p))
    done;
    ignore (Sintra.Cluster.run c ~until:60.0);
    let m = Sintra.Cluster.publish_metrics c in
    let get name =
      match Trace.Metrics.find_counter m name with
      | Some ct -> Trace.Metrics.value ct
      | None -> 0.0
    in
    let macs = ref 0.0 and link_frames = ref 0.0 in
    for i = 0 to 3 do
      macs := !macs +. get (Printf.sprintf "p%d/net.macs" i);
      let self = get (Printf.sprintf "link/%d>%d/msgs" i i) in
      if self = 0.0 then Alcotest.failf "party %d sent itself nothing" i;
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%d loopbacks" i) self
        (get (Printf.sprintf "p%d/net.loopback_msgs" i));
      for j = 0 to 3 do
        if i <> j then
          link_frames := !link_frames +. get (Printf.sprintf "link/%d>%d/msgs" i j)
      done
    done;
    Alcotest.(check (float 0.0)) "macs = 2 x link frames" (2.0 *. !link_frames) !macs);
]
