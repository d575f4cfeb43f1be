(* Tests for pipelined atomic broadcast: the reorder buffer, the bounded
   window, catch-up across an open window, adaptive batching, and exact
   equivalence of pipeline_depth = 1 with the sequential protocol. *)

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
let probe_range (c : Cluster.t) ~(until : float) (f : unit -> int) :
    int ref * int ref =
  let lo = ref max_int and hi = ref 0 in
  let dt = 0.02 in
  let steps = int_of_float (until /. dt) in
  for k = 1 to steps do
    Cluster.at c ~time:(float_of_int k *. dt) (fun () ->
      let v = f () in
      if v < !lo then lo := v;
      if v > !hi then hi := v)
  done;
  (lo, hi)

let probe_max (c : Cluster.t) ~(until : float) (f : unit -> int) : int ref =
  snd (probe_range c ~until f)

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
        Atomic_channel.reorder_depth chans.(3))
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
        (Atomic_channel.reorder_depth chans.(3)));

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
        Atomic_channel.inflight_rounds chans.(0))
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
      let c =
        Util.cluster ~seed:"pipe-rebuild" ~max_batch:16
          ~check_invariants:true ()
      in
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

  Alcotest.test_case "adaptive batching converges between its bounds" `Quick
    (fun () ->
      (* A sustained bursty backlog must push the adaptive cap above its
         floor, and it must never leave [min 8 max_batch, max_batch]. *)
      let c = Util.cluster ~seed:"pipe-adapt" ~max_batch:256 () in
      let chans, logs = make_atomic c "ad" in
      for wave = 0 to 7 do
        Cluster.at c ~time:(0.01 +. (0.25 *. float_of_int wave)) (fun () ->
          for i = 0 to 3 do
            Cluster.inject c i (fun () ->
              for k = 0 to 5 do
                Atomic_channel.send chans.(i)
                  (Printf.sprintf "m%d.%d.%d" i wave k)
              done)
          done)
      done;
      let lo, hi =
        probe_range c ~until:15.0 (fun () ->
          Atomic_channel.batch_limit chans.(0))
      in
      ignore (Cluster.run c ~until:300.0);
      let seqs = sequences logs in
      Util.check_all_equal "total order" (Array.to_list seqs);
      Alcotest.(check int) "all 192 delivered" 192 (List.length seqs.(0));
      Alcotest.(check bool)
        (Printf.sprintf "cap grew above the floor (max %d)" !hi)
        true (!hi > 8);
      Alcotest.(check bool)
        (Printf.sprintf "cap never below the floor (min %d)" !lo)
        true (!lo >= 8);
      Alcotest.(check bool)
        (Printf.sprintf "cap bounded by max_batch (max %d)" !hi)
        true (!hi <= 256));
]
