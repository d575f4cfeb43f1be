(* Tests for lib/trace: metrics arithmetic, sink determinism (a trace is a
   pure function of the seed), zero-perturbation instrumentation, and the
   Chrome trace-event renderer. *)

open Sintra

let raises_invalid (f : unit -> unit) : bool =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* Drive a short two-sender atomic-channel run; returns the cluster and the
   delivery log observed at party 0. *)
let run_atomic ~(seed : string) ?(sink : Trace.Sink.t option) () :
  Cluster.t * (float * int * string) list =
  let c = Util.cluster ~seed () in
  (match sink with Some s -> Cluster.set_sink c s | None -> ());
  let log = ref [] in
  let chans =
    Array.init 4 (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid:"tr"
        ~on_deliver:(fun ~sender m ->
          if i = 0 then log := (Cluster.now c, sender, m) :: !log)
        ())
  in
  for k = 0 to 2 do
    Cluster.inject c 0 (fun () ->
      Atomic_channel.send chans.(0) (Printf.sprintf "m%d" k));
    Cluster.inject c 2 (fun () ->
      Atomic_channel.send chans.(2) (Printf.sprintf "n%d" k))
  done;
  ignore (Cluster.run c);
  (c, List.rev !log)

let jsonl_of_run ~(seed : string) : string * (float * int * string) list =
  let buf = Buffer.create 4096 in
  let _, log = run_atomic ~seed ~sink:(Trace.Sink.jsonl buf) () in
  (Buffer.contents buf, log)

(* --- the published registry, pinned ---

   Five fixed-seed n=4 runs: an atomic channel whose adversary delays,
   duplicates, replays and tampers with frames (self-addressed ones
   included), a secure causal channel, a durable atomic channel whose
   party 3 loses its disk and adopts a snapshot, a reliable broadcast
   over lossy datagram links, and a secure channel that delivers one
   payload per round.  Each is rendered after
   [Cluster.publish_metrics] as "run|name" keys: every counter, every
   histogram's buckets, sum and count, and the network's MAC-failure
   count.  registry.pin holds the whole rendering: no entry may change or
   vanish, and an entry added to the registry must be added to the pin
   too. *)

let pin_value (v : float) : string = Printf.sprintf "%.17g" v

let render_registry (run : string) (c : Cluster.t) : (string * string) list =
  let m = Cluster.publish_metrics c in
  let counters =
    List.map (fun (name, v) -> (run ^ "|" ^ name, pin_value v))
      (Trace.Metrics.dump m)
  in
  let hists =
    List.map
      (fun h ->
        ( run ^ "|" ^ Trace.Metrics.hist_name h ^ "#hist",
          String.concat " "
            (List.map
               (fun (b, n) -> Printf.sprintf "%s:%d" (pin_value b) n)
               (Trace.Metrics.hist_buckets h))
          ^ Printf.sprintf " sum=%s count=%d"
              (pin_value (Trace.Metrics.hist_sum h))
              (Trace.Metrics.hist_count h) ))
      (Trace.Metrics.hists m)
  in
  counters @ hists
  @ [ (run ^ "|mac_failures",
       string_of_int (Sim.Net.mac_failures c.Cluster.net)) ]

let pin_atomic () : (string * string) list =
  let c = Util.cluster ~seed:"pin-registry" () in
  let frames = ref 0 in
  Cluster.set_intercept c (fun ~src ~dst payload ->
    incr frames;
    match !frames mod 53 with
    | 7 -> Sim.Net.Delay 0.05
    | 19 -> Sim.Net.Duplicate
    | 31 -> Sim.Net.Replay 0.2
    | 43 when src = dst && !frames < 200 -> Sim.Net.Replace (payload ^ "!")
    | 43 when !frames < 200 -> Sim.Net.Replace ("x" ^ payload)
    | _ -> Sim.Net.Deliver);
  let chans =
    Array.init 4 (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid:"pin"
        ~on_deliver:(fun ~sender:_ _ -> ()) ())
  in
  for p = 0 to 3 do
    Cluster.inject c p (fun () ->
      for k = 0 to 2 do
        Atomic_channel.send chans.(p) (Printf.sprintf "p%d.%d" p k)
      done)
  done;
  ignore (Cluster.run c ~until:120.0);
  render_registry "atomic" c

let pin_secure () : (string * string) list =
  let c = Util.cluster ~seed:"pin-registry-sac" () in
  let chans =
    Array.init 4 (fun i ->
      Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"pin"
        ~on_deliver:(fun ~sender:_ _ -> ()) ())
  in
  for p = 0 to 3 do
    Cluster.inject c p (fun () ->
      Secure_atomic_channel.send chans.(p) (Printf.sprintf "s%d" p))
  done;
  ignore (Cluster.run c ~until:120.0);
  render_registry "secure" c

let pin_durable () : (string * string) list =
  let h = Test_store.durable_cluster ~seed:"pin-registry-dur" ~interval:2 () in
  let rt3 = Cluster.runtime h.Test_store.c 3 in
  Runtime.on_rebuild rt3 (fun () ->
    h.Test_store.devs.(3) <- Store.Device.mem ();
    Hashtbl.reset h.Test_store.seen.(3);
    h.Test_store.logs.(3) := [];
    Test_store.attach_party h 3 ~interval:2 ~pid:"dur");
  Test_store.send_waves h ~waves:6 ~per:3;
  Cluster.at h.Test_store.c ~time:2.6 (fun () -> Runtime.crash rt3);
  Cluster.at h.Test_store.c ~time:4.4 (fun () -> Runtime.recover rt3);
  ignore (Cluster.run h.Test_store.c ~until:300.0);
  render_registry "durable" h.Test_store.c

(* Reliable broadcast over datagrams losing 10% of frames: the only pin
   whose frames travel through the sliding-window links. *)
let pin_lossy () : (string * string) list =
  let cfg = Config.make ~n:4 ~t:1 () in
  let topo = Sim.Topology.uniform ~count:4 () in
  let c = Cluster.create ~seed:"lossy-rbc" ~loss:0.10 ~topo cfg in
  let insts =
    Array.init 4 (fun i ->
      Reliable_broadcast.create (Cluster.runtime c i) ~pid:"lr" ~sender:0
        ~on_deliver:(fun _ -> ()))
  in
  Cluster.inject c 0 (fun () -> Reliable_broadcast.send insts.(0) "through the storm");
  ignore (Cluster.run c ~until:120.0);
  render_registry "lossy" c

(* The secure channel with one sender and one payload per round
   ([max_batch = 1], [pipeline_depth = 1]): every round releases exactly
   one decryption share per party, the paper's own round shape. *)
let pin_secure_single () : (string * string) list =
  let c =
    Util.cluster ~seed:"pin-registry-sac" ~max_batch:1 ~pipeline_depth:1 ()
  in
  let chans =
    Array.init 4 (fun i ->
      Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"pin1"
        ~on_deliver:(fun ~sender:_ _ -> ()) ())
  in
  Cluster.inject c 0 (fun () ->
    for k = 0 to 5 do
      Secure_atomic_channel.send chans.(0) (Printf.sprintf "one%d" k)
    done);
  ignore (Cluster.run c ~until:120.0);
  render_registry "secure1" c

let registry_lines () : (string * string) list =
  pin_atomic () @ pin_secure () @ pin_durable () @ pin_lossy ()
  @ pin_secure_single ()

(* "key<TAB>value" lines; the test's working directory is test/ in the
   build tree. *)
let read_pin (path : string) : (string * string) list =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
          (match String.index_opt line '\t' with
           | Some i ->
             go ((String.sub line 0 i,
                  String.sub line (i + 1) (String.length line - i - 1))
                 :: acc)
           | None -> go acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let suite = [
  (* --- metrics arithmetic --- *)

  Alcotest.test_case "counter: inc/add/set and kind clash" `Quick (fun () ->
    let m = Trace.Metrics.create () in
    let c = Trace.Metrics.counter m "x" in
    Trace.Metrics.inc c;
    Trace.Metrics.add c 2.5;
    Alcotest.(check (float 1e-9)) "value" 3.5 (Trace.Metrics.value c);
    Trace.Metrics.set c 7.0;
    Alcotest.(check (float 1e-9)) "set wins" 7.0 (Trace.Metrics.value c);
    Alcotest.(check (float 1e-9)) "get-or-create returns the same cell" 7.0
      (Trace.Metrics.value (Trace.Metrics.counter m "x"));
    Alcotest.(check bool) "histogram under a counter name raises" true
      (raises_invalid (fun () -> ignore (Trace.Metrics.histogram m "x")));
    Alcotest.(check bool) "counter under a histogram name raises" true
      (raises_invalid (fun () ->
         ignore (Trace.Metrics.histogram m "h");
         ignore (Trace.Metrics.counter m "h"))));

  Alcotest.test_case "histogram: bucket boundaries and overflow" `Quick (fun () ->
    let m = Trace.Metrics.create () in
    let h = Trace.Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] m "lat" in
    (* a value equal to a bound lands in that bucket, just above goes up *)
    List.iter (Trace.Metrics.observe h) [ 0.5; 1.0; 1.000001; 2.0; 5.0; 7.0 ];
    Alcotest.(check (list (pair (float 1e-9) int))) "buckets"
      [ (1.0, 2); (2.0, 2); (5.0, 1); (infinity, 1) ]
      (Trace.Metrics.hist_buckets h);
    Alcotest.(check int) "count" 6 (Trace.Metrics.hist_count h);
    Alcotest.(check (float 1e-9)) "sum" 16.500001 (Trace.Metrics.hist_sum h);
    Alcotest.(check (float 1e-6)) "mean" (16.500001 /. 6.0)
      (Trace.Metrics.hist_mean h);
    (* 6 observations: the 3rd lands in the 2.0 bucket *)
    Alcotest.(check (float 1e-9)) "median bucket" 2.0
      (Trace.Metrics.hist_quantile h 0.5);
    Alcotest.(check bool) "descending bounds raise" true
      (raises_invalid (fun () ->
         ignore (Trace.Metrics.histogram ~buckets:[| 2.0; 1.0 |] m "bad"))));

  Alcotest.test_case "histogram: merge and bound mismatch" `Quick (fun () ->
    let m = Trace.Metrics.create () in
    let a = Trace.Metrics.histogram ~buckets:[| 1.0; 2.0 |] m "a" in
    let b = Trace.Metrics.histogram ~buckets:[| 1.0; 2.0 |] m "b" in
    List.iter (Trace.Metrics.observe a) [ 0.5; 3.0 ];
    List.iter (Trace.Metrics.observe b) [ 1.5; 1.6 ];
    Trace.Metrics.merge_into ~into:a b;
    Alcotest.(check (list (pair (float 1e-9) int))) "merged buckets"
      [ (1.0, 1); (2.0, 2); (infinity, 1) ]
      (Trace.Metrics.hist_buckets a);
    Alcotest.(check int) "merged count" 4 (Trace.Metrics.hist_count a);
    Alcotest.(check (float 1e-9)) "merged sum" 6.6 (Trace.Metrics.hist_sum a);
    let other = Trace.Metrics.histogram ~buckets:[| 9.0 |] m "c" in
    Alcotest.(check bool) "bound mismatch raises" true
      (raises_invalid (fun () -> Trace.Metrics.merge_into ~into:a other)));

  Alcotest.test_case "registry: deterministic sorted dump" `Quick (fun () ->
    let m = Trace.Metrics.create () in
    Trace.Metrics.set (Trace.Metrics.counter m "zz") 1.0;
    Trace.Metrics.set (Trace.Metrics.counter m "aa") 2.0;
    Trace.Metrics.set (Trace.Metrics.counter m "mm") 3.0;
    Alcotest.(check (list (pair string (float 1e-9)))) "sorted by name"
      [ ("aa", 2.0); ("mm", 3.0); ("zz", 1.0) ]
      (Trace.Metrics.dump m));

  (* --- determinism --- *)

  Alcotest.test_case "jsonl: same seed, byte-identical trace" `Quick (fun () ->
    let t1, _ = jsonl_of_run ~seed:"det" in
    let t2, _ = jsonl_of_run ~seed:"det" in
    Alcotest.(check bool) "nonempty" true (String.length t1 > 0);
    Alcotest.(check string) "byte-identical" t1 t2);

  Alcotest.test_case "jsonl: different seed, different trace" `Quick (fun () ->
    let t1, _ = jsonl_of_run ~seed:"det" in
    let t3, _ = jsonl_of_run ~seed:"det-other" in
    Alcotest.(check bool) "traces differ" true (t1 <> t3));

  Alcotest.test_case "tracing does not perturb the run" `Quick (fun () ->
    (* The null sink is the untraced baseline; a live sink must yield the
       exact same delivery times and order. *)
    let _, untraced = run_atomic ~seed:"perturb" () in
    let _, traced = jsonl_of_run ~seed:"perturb" |> snd |> fun l -> ((), l) in
    Alcotest.(check bool) "deliveries happened" true (untraced <> []);
    Alcotest.(check (list (pair (float 1e-12) (pair int string))))
      "identical delivery schedule"
      (List.map (fun (t, s, m) -> (t, (s, m))) untraced)
      (List.map (fun (t, s, m) -> (t, (s, m))) traced));

  Alcotest.test_case "jsonl: parses and carries the event fields" `Quick
    (fun () ->
      let t1, _ = jsonl_of_run ~seed:"det" in
      match Trace.Json.parse_lines t1 with
      | Error e -> Alcotest.failf "jsonl does not parse: %s" e
      | Ok events ->
        Alcotest.(check bool) "many events" true (List.length events > 50);
        List.iter
          (fun ev ->
            let has f = Trace.Json.member f ev <> None in
            if not (has "t" && has "party" && has "pid" && has "cat"
                    && has "ph" && has "name")
            then Alcotest.fail "event missing a required field")
          events);

  (* --- chrome trace-event output --- *)

  Alcotest.test_case "chrome: valid JSON with balanced spans" `Quick (fun () ->
    let ch = Trace.Sink.chrome () in
    let _, _ = run_atomic ~seed:"chrome" ~sink:(Trace.Sink.chrome_sink ch) () in
    let doc = Trace.Sink.chrome_contents ch in
    match Trace.Json.parse doc with
    | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
    | Ok v ->
      let events =
        match Option.bind (Trace.Json.member "traceEvents" v) Trace.Json.list_opt with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "many events" true (List.length events > 50);
      (* balanced B/E per (pid, tid) lane *)
      let lanes : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let field f ev = Option.bind (Trace.Json.member f ev) Trace.Json.num_opt in
      let cats = ref [] in
      List.iter
        (fun ev ->
          let lane =
            Printf.sprintf "%.0f:%.0f"
              (Option.value ~default:(-1.0) (field "pid" ev))
              (Option.value ~default:(-1.0) (field "tid" ev))
          in
          (match Option.bind (Trace.Json.member "cat" ev) Trace.Json.str_opt with
           | Some c when not (List.mem c !cats) -> cats := c :: !cats
           | Some _ | None -> ());
          match Option.bind (Trace.Json.member "ph" ev) Trace.Json.str_opt with
          | Some "B" ->
            Hashtbl.replace lanes lane
              (1 + Option.value ~default:0 (Hashtbl.find_opt lanes lane))
          | Some "E" ->
            let d = Option.value ~default:0 (Hashtbl.find_opt lanes lane) - 1 in
            if d < 0 then Alcotest.failf "unmatched E on lane %s" lane;
            Hashtbl.replace lanes lane d
          | Some _ -> ()
          | None -> Alcotest.fail "event without ph")
        events;
      Hashtbl.iter
        (fun lane d ->
          if d <> 0 then Alcotest.failf "%d unclosed span(s) on lane %s" d lane)
        lanes;
      (* protocol, crypto and network events all made it through *)
      List.iter
        (fun c ->
          Alcotest.(check bool) (Printf.sprintf "category %s present" c) true
            (List.mem c !cats))
        [ "bcast"; "aba"; "abc"; "crypto"; "net" ]);

  Alcotest.test_case "metrics: published per-party registry" `Quick (fun () ->
    let c, log = run_atomic ~seed:"reg" () in
    let m = Cluster.publish_metrics c in
    Alcotest.(check bool) "deliveries happened" true (log <> []);
    let get name =
      match Trace.Metrics.find_counter m name with
      | Some ct -> Trace.Metrics.value ct
      | None -> Alcotest.failf "missing counter %s" name
    in
    for i = 0 to 3 do
      Alcotest.(check bool) (Printf.sprintf "p%d sent messages" i) true
        (get (Printf.sprintf "p%d/net.sent_msgs" i) > 0.0);
      Alcotest.(check bool) (Printf.sprintf "p%d charged cpu" i) true
        (get (Printf.sprintf "p%d/cpu.charged_s" i) > 0.0)
    done;
    (* sender 0's enqueue->deliver latencies landed in its histogram *)
    match Trace.Metrics.find_hist m "p0/abc.latency" with
    | None -> Alcotest.fail "missing p0/abc.latency histogram"
    | Some h ->
      Alcotest.(check int) "three sends measured" 3 (Trace.Metrics.hist_count h));

  Alcotest.test_case "registry: atomic, secure and durable runs keep every pinned entry"
    `Quick (fun () ->
    let want = read_pin "registry.pin" in
    let lines = registry_lines () in
    let got = Hashtbl.create 1024 in
    List.iter (fun (k, v) -> Hashtbl.replace got k v) lines;
    let moved =
      List.filter_map
        (fun (k, v) ->
          match Hashtbl.find_opt got k with
          | Some v' when v' = v -> None
          | Some v' -> Some (Printf.sprintf "%s: pinned %s, now %s" k v v')
          | None -> Some (Printf.sprintf "%s: pinned %s, now missing" k v))
        want
    in
    let unpinned =
      List.filter_map
        (fun (k, v) ->
          if List.mem_assoc k want then None
          else Some (Printf.sprintf "%s: rendered %s, not pinned" k v))
        lines
    in
    let bad = moved @ unpinned in
    Alcotest.(check bool) "pin is non-trivial" true (List.length want > 500);
    if bad <> [] then
      Alcotest.failf "%d of %d pinned registry entries moved, %d unpinned:\n%s"
        (List.length moved) (List.length want) (List.length unpinned)
        (String.concat "\n" bad));
]
