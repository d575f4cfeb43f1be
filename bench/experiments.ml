(* The experiment drivers that regenerate every table and figure of the
   paper's evaluation (Section 4).

   All protocol logic and cryptography are real; the clock is the simulated
   one, driven by (a) the RTT matrix / LAN latency of the paper's test-beds
   and (b) each host's measured 1024-bit-exponentiation cost (the `exp'
   column), scaled by the *modeled* key size.  The real crypto runs at small
   key sizes so a bench finishes in seconds; the virtual time is what the
   paper's plots show. *)

open Sintra

type channel_kind = Atomic | Secure | Reliable | Consistent

let kind_name = function
  | Atomic -> "atomic"
  | Secure -> "secure"
  | Reliable -> "reliable"
  | Consistent -> "consistent"

(* Benchmark configuration: the dealer's small real keys, paper-sized
   modeled keys. *)
let bench_cfg ?batch_size ?(scheme = Config.Multi) ?(model_rsa_bits = 1024)
    ~n ~t () : Config.t =
  Config.make ?batch_size ~tsig_scheme:scheme ~perm_mode:Config.Random_local
    ~model_rsa_bits ~n ~t ()

(* What the harness owns across experiments: one dealer per group shape,
   shared by every run of that shape (key generation is the slow part of a
   run, and the modeled sizes do not affect the dealt keys), and the
   per-experiment metrics it writes to BENCH_trace.json — message/byte
   counts, charged CPU time and exponentiations per party, so a figure's
   cost story is inspectable without re-running. *)
type harness = {
  dealers : (int * int * Config.tsig_scheme, Dealer.t) Hashtbl.t;
  mutable metrics : (string * string) list;  (* newest first *)
}

let harness () : harness = { dealers = Hashtbl.create 4; metrics = [] }

let dealer (h : harness) (cfg : Config.t) : Dealer.t =
  let key = (cfg.Config.n, cfg.Config.t, cfg.Config.tsig_scheme) in
  match Hashtbl.find_opt h.dealers key with
  | Some d -> d
  | None ->
    let d = Dealer.deal ~seed:"bench-dealer" cfg in
    Hashtbl.replace h.dealers key d;
    d

let make_cluster (h : harness) ~(seed : string) ~(topo : Sim.Topology.t)
    (cfg : Config.t) : Cluster.t =
  Cluster.create ~dealer:(dealer h cfg) ~engine_seed:("bench-engine|" ^ seed)
    ~topo cfg

type delivery = {
  number : int;           (* delivery index at the measuring party *)
  time : float;           (* virtual seconds *)
  gap : float;            (* seconds since the previous delivery *)
  sender : int;
}

let record_metrics (h : harness) ~(label : string) (c : Cluster.t) : unit =
  h.metrics <-
    (label, Trace.Metrics.to_json (Cluster.publish_metrics c)) :: h.metrics

let metrics_json (h : harness) : string =
  "[\n"
  ^ String.concat ",\n"
      (List.rev_map
         (fun (label, json) ->
           Printf.sprintf "{\"experiment\":%S,\"metrics\":%s}" label json)
         h.metrics)
  ^ "\n]\n"

(* Run one channel experiment: [senders] each broadcast [per_sender] short
   payloads at maximum capacity from t=0; deliveries are recorded at
   [measure_at].  Returns the delivery series and the cluster. *)
let run_channel (h : harness) ?(seed = "run") ~(topo : Sim.Topology.t)
    ~(cfg : Config.t) ~(kind : channel_kind) ~(senders : int list)
    ~(per_sender : int) ~(measure_at : int) () : delivery list =
  let c = make_cluster h ~seed ~topo cfg in
  let n = cfg.Config.n in
  let deliveries = ref [] in
  let count = ref 0 in
  let last = ref 0.0 in
  let record sender =
    let now = Cluster.now c in
    incr count;
    deliveries := { number = !count; time = now; gap = now -. !last; sender } :: !deliveries;
    last := now
  in
  let on_deliver i ~sender (_ : string) = if i = measure_at then record sender in
  let send_fns =
    match kind with
    | Atomic ->
      let chans =
        Array.init n (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"bench"
            ~on_deliver:(on_deliver i) ())
      in
      Array.map (fun ch payload -> Atomic_channel.send ch payload) chans
    | Secure ->
      let chans =
        Array.init n (fun i ->
          Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"bench"
            ~on_deliver:(on_deliver i) ())
      in
      Array.map (fun ch payload -> Secure_atomic_channel.send ch payload) chans
    | Reliable ->
      let chans =
        Array.init n (fun i ->
          Reliable_channel.create (Cluster.runtime c i) ~pid:"bench"
            ~on_deliver:(on_deliver i) ())
      in
      Array.map (fun ch payload -> Reliable_channel.send ch payload) chans
    | Consistent ->
      let chans =
        Array.init n (fun i ->
          Consistent_channel.create (Cluster.runtime c i) ~pid:"bench"
            ~on_deliver:(on_deliver i) ())
      in
      Array.map (fun ch payload -> Consistent_channel.send ch payload) chans
  in
  List.iter
    (fun s ->
      for k = 0 to per_sender - 1 do
        let payload = Printf.sprintf "p%d-m%d-xxxxxxxxxxxx" s k in  (* < 32 bytes *)
        Cluster.inject c s (fun () -> send_fns.(s) payload)
      done)
    senders;
  ignore (Cluster.run c ~max_events:50_000_000);
  record_metrics h c
    ~label:(Printf.sprintf "%s|%s|%s" (kind_name kind) topo.Sim.Topology.label seed);
  List.rev !deliveries

(* --- Figure 3: the WAN topology --- *)

let fig3 () =
  print_endline "=== Figure 3: Internet test-bed, average round-trip times (ms) ===";
  print_endline "(pairwise RTTs as encoded in the simulator's latency model)\n";
  let names = [| "Zurich"; "Tokyo"; "NewYork"; "California" |] in
  Printf.printf "%12s" "";
  Array.iter (Printf.printf "%12s") names;
  print_newline ();
  Array.iteri
    (fun i row ->
      Printf.printf "%12s" names.(i);
      Array.iter (fun v -> Printf.printf "%12.0f" v) row;
      print_newline ())
    Sim.Topology.internet_rtt;
  print_endline "\npaper: RTTs between 93 and 373 ms; Tokyo hardest to reach.\n"

(* --- Figures 4 and 5: per-delivery latency series --- *)

let band_summary (ds : delivery list) =
  let gaps = List.map (fun d -> d.gap) ds in
  let zero_band = List.filter (fun g -> g < 0.05) gaps in
  let upper = List.filter (fun g -> g >= 0.05) gaps in
  let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let sorted = List.sort compare upper in
  let pct p =
    match sorted with
    | [] -> 0.0
    | _ -> List.nth sorted (min (List.length sorted - 1)
                              (int_of_float (p *. float_of_int (List.length sorted))))
  in
  (List.length zero_band, List.length upper, mean upper, pct 0.1, pct 0.5, pct 0.9)

let print_series_summary ~(label : string) (ds : delivery list) ~(host_names : string array) =
  let zeros, uppers, mean_u, p10, p50, p90 = band_summary ds in
  Printf.printf "%s: %d deliveries\n" label (List.length ds);
  Printf.printf
    "  batch-mate band (gap < 0.05s): %d points;  round band: %d points\n"
    zeros uppers;
  Printf.printf "  round band gaps: mean %.2fs, p10 %.2fs, median %.2fs, p90 %.2fs\n"
    mean_u p10 p50 p90;
  (* who gets delivered when: first/last delivery index per sender *)
  let senders = List.sort_uniq compare (List.map (fun d -> d.sender) ds) in
  List.iter
    (fun s ->
      let mine = List.filter (fun d -> d.sender = s) ds in
      let nums = List.map (fun d -> d.number) mine in
      Printf.printf "  sender %-14s: %4d msgs, delivery numbers %d..%d\n"
        host_names.(s) (List.length mine)
        (List.fold_left min max_int nums) (List.fold_left max 0 nums))
    senders

let write_csv ~(path : string) (ds : delivery list) =
  let oc = open_out path in
  output_string oc "delivery,time_s,gap_s,sender\n";
  List.iter
    (fun d -> Printf.fprintf oc "%d,%.6f,%.6f,%d\n" d.number d.time d.gap d.sender)
    ds;
  close_out oc;
  Printf.printf "  (full series written to %s)\n" path

let fig4 (h : harness) ~(messages : int) () =
  print_endline "=== Figure 4: AtomicChannel delivery times on the LAN ===";
  Printf.printf
    "setup: n=4 t=1 batch=t+1, senders P0/Linux P2/AIX P3/Win2k, %d messages,\n\
     measured at P0; multi-signatures; modeled 1024-bit keys.\n\n" messages;
  let cfg = bench_cfg ~n:4 ~t:1 () in
  let per = messages / 3 in
  let ds =
    run_channel h ~seed:"fig4" ~topo:Sim.Topology.lan ~cfg ~kind:Atomic
      ~senders:[ 0; 2; 3 ] ~per_sender:per ~measure_at:0 ()
  in
  let names = Array.map (fun h -> h.Sim.Topology.name) Sim.Topology.lan.Sim.Topology.hosts in
  print_series_summary ~label:"LAN series" ds ~host_names:names;
  write_csv ~path:"fig4.csv" ds;
  print_endline
    "\npaper: two bands - 0s (second message of each batch) and 0.5-1s (round\n\
     time); P0's messages delivered first, P3/Win2k (slowest host) last.\n"

let fig5 (h : harness) ~(messages : int) () =
  print_endline "=== Figure 5: AtomicChannel delivery times on the Internet ===";
  Printf.printf
    "setup: n=4 t=1 batch=t+1, senders Zurich Tokyo NewYork, %d messages,\n\
     measured at Zurich; multi-signatures; modeled 1024-bit keys.\n\n" messages;
  let cfg = bench_cfg ~n:4 ~t:1 () in
  let per = messages / 3 in
  let ds =
    run_channel h ~seed:"fig5" ~topo:Sim.Topology.internet ~cfg ~kind:Atomic
      ~senders:[ 0; 1; 2 ] ~per_sender:per ~measure_at:0 ()
  in
  let names = Array.map (fun h -> h.Sim.Topology.name) Sim.Topology.internet.Sim.Topology.hosts in
  print_series_summary ~label:"Internet series" ds ~host_names:names;
  (* the paper's second feature: two upper bands separated by ~1 ABA *)
  let uppers = List.filter (fun d -> d.gap >= 0.05) ds in
  let lower_band = List.filter (fun d -> d.gap < 2.75) uppers in
  let upper_band = List.filter (fun d -> d.gap >= 2.75) uppers in
  Printf.printf
    "  round-band split at 2.75s: %d fast rounds (one agreement), %d slow\n\
     rounds (extra binary agreement) = %.0f%% of round band\n"
    (List.length lower_band) (List.length upper_band)
    (100.0 *. float_of_int (List.length upper_band)
     /. float_of_int (max 1 (List.length uppers)));
  write_csv ~path:"fig5.csv" ds;
  print_endline
    "\npaper: bands at 2-2.5s and 3-3.5s (~1/4 of points need a second binary\n\
     agreement); NewYork delivered first, Tokyo (best CPU, worst connectivity)\n\
     last - order driven by connectivity, not speed.\n"

(* --- Table 1: average delivery times across channels and setups --- *)

let table1 (h : harness) ~(messages : int) () =
  print_endline "=== Table 1: average delivery times (s), one sender (P0/Zurich) ===";
  Printf.printf "%d messages per run; multi-signatures; modeled 1024-bit keys.\n\n" messages;
  let setups =
    [ ("LAN", Sim.Topology.lan, 4, 1);
      ("Internet", Sim.Topology.internet, 4, 1);
      ("LAN+I'net", Sim.Topology.combined, 7, 2) ]
  in
  let kinds = [ Atomic; Secure; Reliable; Consistent ] in
  Printf.printf "%-10s %10s %10s %10s %10s\n" "Setup" "atomic" "secure" "reliable" "consistent";
  let paper =
    [ ("LAN", [ 0.69; 1.07; 0.13; 0.11 ]);
      ("Internet", [ 2.95; 3.61; 0.72; 0.83 ]);
      ("LAN+I'net", [ 2.74; 3.79; 0.60; 0.64 ]) ]
  in
  List.iter
    (fun (label, topo, n, t) ->
      let cfg = bench_cfg ~n ~t () in
      Printf.printf "%-10s" label;
      List.iter
        (fun kind ->
          let ds =
            run_channel h ~seed:("table1-" ^ label ^ kind_name kind) ~topo ~cfg ~kind
              ~senders:[ 0 ] ~per_sender:messages ~measure_at:0 ()
          in
          let avg =
            match ds with
            | [] | [ _ ] -> nan
            | first :: _ ->
              let last = List.nth ds (List.length ds - 1) in
              (last.time -. first.time) /. float_of_int (List.length ds - 1)
          in
          Printf.printf " %10.2f" avg)
        kinds;
      print_newline ())
    setups;
  print_endline "\npaper reported:";
  Printf.printf "%-10s %10s %10s %10s %10s\n" "Setup" "atomic" "secure" "reliable" "consistent";
  List.iter
    (fun (label, vals) ->
      Printf.printf "%-10s" label;
      List.iter (fun v -> Printf.printf " %10.2f" v) vals;
      print_newline ())
    paper;
  print_newline ()

(* --- Figure 6: delivery time vs public-key size --- *)

let fig6 (h : harness) ~(messages : int) () =
  print_endline "=== Figure 6: average delivery time vs public-key size ===";
  Printf.printf
    "AtomicChannel, one sender, %d messages; modeled RSA key size sweeps\n\
     128..1024 bits for both threshold-signature implementations.\n\n" messages;
  let keysizes = [ 128; 256; 512; 1024 ] in
  let schemes = [ (Config.Shoup, "ts"); (Config.Multi, "multi") ] in
  let setups = [ ("LAN", Sim.Topology.lan); ("Internet", Sim.Topology.internet) ] in
  Printf.printf "%-16s" "series";
  List.iter (fun k -> Printf.printf " %8d" k) keysizes;
  print_newline ();
  List.iter
    (fun (setup_label, topo) ->
      List.iter
        (fun (scheme, scheme_label) ->
          Printf.printf "%-16s" (Printf.sprintf "%s %s" setup_label scheme_label);
          List.iter
            (fun bits ->
              let cfg = bench_cfg ~scheme ~model_rsa_bits:bits ~n:4 ~t:1 () in
              let ds =
                run_channel h
                  ~seed:(Printf.sprintf "fig6-%s-%s-%d" setup_label scheme_label bits)
                  ~topo ~cfg ~kind:Atomic ~senders:[ 0 ] ~per_sender:messages
                  ~measure_at:0 ()
              in
              let avg =
                match ds with
                | [] | [ _ ] -> nan
                | first :: _ ->
                  let last = List.nth ds (List.length ds - 1) in
                  (last.time -. first.time) /. float_of_int (List.length ds - 1)
              in
              Printf.printf " %8.2f" avg)
            keysizes;
          print_newline ())
        schemes)
    setups;
  print_endline
    "\npaper: multi-signature curves flat in the key size (CRT signing is\n\
     cheap); threshold-signature curves rise above 256 bits - by ~4x per\n\
     doubling on the LAN, < 2x on the Internet where latency masks CPU.\n"

(* --- host tables: the `exp' column, as used by the cost model --- *)

let hosts () =
  print_endline "=== Host tables (Section 4): 1024-bit modexp cost driving the cost model ===\n";
  let dump label (topo : Sim.Topology.t) =
    Printf.printf "%s:\n" label;
    Array.iter
      (fun h -> Printf.printf "  %-16s exp = %5.0f ms\n" h.Sim.Topology.name h.Sim.Topology.exp_ms)
      topo.Sim.Topology.hosts;
    print_newline ()
  in
  dump "LAN setup" Sim.Topology.lan;
  dump "Internet setup" Sim.Topology.internet;
  dump "Combined setup (n=7, t=2)" Sim.Topology.combined
