(* Ablation benchmarks for the design choices DESIGN.md calls out:

   - the atomic-broadcast batch size B = n - f + 1 (the fairness/latency
     trade of Section 2.5);
   - fixed vs. locally-randomized candidate order in multi-valued agreement
     (the load-balancing variation of Section 2.4);
   - the optimistic sequencer-based channel of Section 6 (future work in
     the paper, implemented here) vs. the fully randomized channel, with
     and without a leader failure. *)

open Sintra

let avg_gap (ds : Experiments.delivery list) : float =
  match ds with
  | [] | [ _ ] -> nan
  | first :: _ ->
    let last = List.nth ds (List.length ds - 1) in
    (last.Experiments.time -. first.Experiments.time)
    /. float_of_int (List.length ds - 1)

let batch_size (h : Experiments.harness) =
  print_endline "=== Ablation: atomic-broadcast batch size (n=4, t=1, LAN) ===";
  print_endline
    "B = n - f + 1 trades fairness (delivery guaranteed when f parties know\n\
     a message) against per-round work; the paper runs B = t+1 = 2.\n";
  Printf.printf "%8s %14s %16s\n" "B" "avg gap (s)" "virtual total (s)";
  List.iter
    (fun b ->
      let cfg = Experiments.bench_cfg ~batch_size:b ~n:4 ~t:1 () in
      let ds =
        Experiments.run_channel h ~seed:(Printf.sprintf "ab-batch%d" b)
          ~topo:Sim.Topology.lan ~cfg ~kind:Cluster.Atomic
          ~senders:[ 0; 1; 2 ] ~per_sender:20 ~measure_at:0 ()
      in
      let total =
        match List.rev ds with d :: _ -> d.Experiments.time | [] -> nan
      in
      Printf.printf "%8d %14.3f %16.2f\n" b (avg_gap ds) total)
    [ 2; 3 ];
  print_endline
    "\nexpected: larger batches amortize the agreement over more deliveries\n\
     (smaller average gap) at the cost of waiting for more signers per round.\n"

let perm_mode (h : Experiments.harness) =
  print_endline "=== Ablation: candidate order in multi-valued agreement (Internet) ===";
  print_endline
    "fixed order always tries party 1 first (hot-spotting it); the\n\
     locally-randomized order balances load without extra messages\n\
     (Section 2.4, second variation).\n";
  Printf.printf "%-14s %14s\n" "order" "avg gap (s)";
  List.iter
    (fun (label, mode) ->
      let cfg = Config.make ~tsig_scheme:Config.Multi ~perm_mode:mode ~n:4 ~t:1 () in
      let ds =
        Experiments.run_channel h ~seed:("ab-perm" ^ label)
          ~topo:Sim.Topology.internet ~cfg ~kind:Cluster.Atomic
          ~senders:[ 0; 1; 2 ] ~per_sender:15 ~measure_at:0 ()
      in
      Printf.printf "%-14s %14.3f\n" label (avg_gap ds))
    [ ("fixed", Config.Fixed); ("random-local", Config.Random_local) ];
  print_endline
    "\nexpected: similar latency - the variation balances load, not speed\n\
     (the paper: \"does not offer more security than a fixed order\").\n"

let optimistic (h : Experiments.harness) =
  print_endline "=== Ablation: optimistic (sequencer) vs randomized atomic broadcast ===";
  print_endline
    "the paper's Section 6: optimistic protocols reduce the cost of atomic\n\
     broadcast \"essentially to a single (consistent) broadcast per message\"\n\
     while the sequencer behaves; one leader crash forces a recovery.\n";
  let run_opt ~topo ~seed ~crash_leader ~messages =
    let n = Sim.Topology.n topo in
    let cfg = Experiments.bench_cfg ~n ~t:((n - 1) / 3) () in
    let c = Experiments.make_cluster h ~seed ~topo cfg in
    let deliveries = ref [] in
    (* The leader crashes once party 1 has delivered a fifth of the
       messages, so the recovery lands mid-run on any topology and at any
       speed of the fast path. *)
    let crash_after = messages / 5 in
    let chans =
      Array.init n (fun i ->
        Optimistic_channel.create ~timeout:8.0 (Cluster.runtime c i) ~pid:"ab-opt"
          ~on_deliver:(fun ~sender:_ _ ->
            (* measure at party 1: party 0 (the epoch-0 leader) may crash *)
            if i = 1 then begin
              deliveries := Cluster.now c :: !deliveries;
              if crash_leader && List.length !deliveries = crash_after then
                Sim.Engine.schedule c.Cluster.engine ~delay:0.0 (fun () ->
                  Cluster.crash c 0)
            end)
          ())
    in
    for k = 0 to messages - 1 do
      Cluster.inject c 1 (fun () ->
        Optimistic_channel.send chans.(1) (Printf.sprintf "m%d" k))
    done;
    ignore (Cluster.run c ~until:2000.0 ~max_events:20_000_000);
    let ds = List.rev !deliveries in
    match ds, List.rev ds with
    | first :: _, last :: _ when List.length ds > 1 ->
      (List.length ds, (last -. first) /. float_of_int (List.length ds - 1))
    | _ -> (List.length ds, nan)
  in
  let run_full ~topo ~seed ~messages =
    let n = Sim.Topology.n topo in
    let cfg = Experiments.bench_cfg ~n ~t:((n - 1) / 3) () in
    let ds =
      Experiments.run_channel h ~seed ~topo ~cfg ~kind:Cluster.Atomic
        ~senders:[ 1 ] ~per_sender:messages ~measure_at:0 ()
    in
    (List.length ds, avg_gap ds)
  in
  Printf.printf "%-34s %10s %12s\n" "configuration" "delivered" "avg gap (s)";
  List.iter
    (fun (label, topo) ->
      let messages = 25 in
      let n1, g1 = run_full ~topo ~seed:("ab-full" ^ label) ~messages in
      Printf.printf "%-34s %10d %12.3f\n"
        (Printf.sprintf "%s randomized" label) n1 g1;
      let n2, g2 = run_opt ~topo ~seed:("ab-opt" ^ label) ~crash_leader:false ~messages in
      Printf.printf "%-34s %10d %12.3f\n"
        (Printf.sprintf "%s optimistic (honest leader)" label) n2 g2;
      let n3, g3 = run_opt ~topo ~seed:("ab-optc" ^ label) ~crash_leader:true ~messages in
      Printf.printf "%-34s %10d %12.3f\n"
        (Printf.sprintf "%s optimistic (leader crash)" label) n3 g3)
    [ ("LAN", Sim.Topology.lan); ("Internet", Sim.Topology.internet) ];
  print_endline
    "\nexpected: the honest-leader fast path beats the randomized protocol by\n\
     a large factor (Castro-Liskov run in milliseconds on a LAN); a leader\n\
     crash costs one recovery agreement, then the new epoch resumes fast.\n"

let lossy_links (h : Experiments.harness) =
  print_endline "=== Ablation: TCP-like links vs sliding-window over lossy datagrams ===";
  print_endline
    "the paper planned to replace TCP with its own sliding-window protocol\n\
     with authenticated acknowledgments (Section 3); here the whole atomic\n\
     broadcast stack runs over datagrams dropped with probability p.\n";
  Printf.printf "%-22s %14s\n" "frame loss" "avg gap (s)";
  List.iter
    (fun loss ->
      let cfg = Experiments.bench_cfg ~n:4 ~t:1 () in
      let topo = Sim.Topology.lan in
      let seed = Printf.sprintf "ab-loss-%.2f" loss in
      let c =
        Cluster.create ~dealer:(Experiments.dealer h cfg) ~engine_seed:seed
          ?loss:(if loss = 0.0 then None else Some loss) ~topo cfg
      in
      let deliveries = ref [] in
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"ab-loss"
            ~on_deliver:(fun ~sender:_ _ ->
              if i = 0 then deliveries := Cluster.now c :: !deliveries)
            ())
      in
      for k = 0 to 19 do
        Cluster.inject c 1 (fun () ->
          Atomic_channel.send chans.(1) (Printf.sprintf "m%d" k))
      done;
      ignore (Cluster.run c ~until:2000.0);
      let ds = List.rev !deliveries in
      let gap =
        match ds, List.rev ds with
        | first :: _, last :: _ when List.length ds > 1 ->
          (last -. first) /. float_of_int (List.length ds - 1)
        | _ -> nan
      in
      Printf.printf "%-22s %14.3f   (%d/20 delivered)\n"
        (if loss = 0.0 then "none (reliable FIFO)" else Printf.sprintf "%.0f%%" (loss *. 100.0))
        gap (List.length ds))
    [ 0.0; 0.05; 0.15 ];
  print_endline
    "\nexpected: total order survives any loss rate; latency grows with the\n\
     retransmission rate (RTO 0.4s per lost frame on the critical path).\n"

let all (h : Experiments.harness) =
  batch_size h;
  perm_mode h;
  optimistic h;
  lossy_links h
