(* The throughput sweep driver: batched vs unbatched atomic broadcast under
   open-loop (offered-load ladder) and closed-loop (saturation) clients. *)

open Sintra

type point = {
  offered_per_s : float;
  issued : int;
  completed : int;
  delivered : int;
  throughput_per_s : float;
  latency_mean_s : float;
  latency_p50_s : float;
  latency_p90_s : float;
}

type series = {
  n : int;
  t : int;
  batched : bool;
  points : point list;
  saturation : point;
  rounds : int;
}

type report = {
  smoke : bool;
  duration_s : float;
  series : series list;
}

let sweep_cfg ?pipeline_depth ~(n : int) ~(t : int) ~(max_batch : int) () :
    Config.t =
  Config.make ~max_batch ?pipeline_depth ~perm_mode:Config.Random_local ~n ~t ()

(* Key generation dominates setup; keys depend only on the group size, not
   on max_batch or the load shape, so the driver deals once per (n, t) and
   every run of that size shares the dealer. *)
let deal (cfg : Config.t) : Dealer.t = Dealer.deal ~seed:"load-dealer" cfg

let quantile (sorted : float array) (q : float) : float =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else sorted.(int_of_float (q *. float_of_int (len - 1)))

type load_shape =
  | Open_loop of float          (* offered rate across the group, req/s *)
  | Closed_loop of int          (* clients per party, zero think time *)

let drive ?sink ?(arrivals = "load-arrivals|") ~(seed : string)
    ~(dealer : Dealer.t) ~(cfg : Config.t) ~(duration : float)
    (shape : load_shape) : Gen.t * Atomic_channel.t array =
  let n = cfg.Config.n in
  let c =
    Cluster.create ~dealer ~engine_seed:("load-engine|" ^ seed)
      ~topo:(Sim.Topology.uniform ~count:n ()) cfg
  in
  Option.iter (Cluster.set_sink c) sink;
  (* Clients share each party's network trace context, so request
     submit/complete events join the message-level causal DAG. *)
  let gen =
    Gen.create ~ctx_of:(Sim.Net.trace_ctx c.Cluster.net) ~engine:c.Cluster.engine ()
  in
  let chans =
    Array.init n (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid:"load"
        ~on_deliver:(fun ~sender:_ payload -> Gen.deliver gen ~party:i payload)
        ())
  in
  let submit party ~cause payload =
    Cluster.inject ~cause c party (fun () ->
      Atomic_channel.send chans.(party) payload)
  in
  (match shape with
   | Open_loop rate ->
     let drbg = Hashes.Drbg.create ~seed:(arrivals ^ seed) in
     for p = 0 to n - 1 do
       let arrival =
         Arrival.poisson ~rate:(rate /. float_of_int n)
           (Hashes.Drbg.fork drbg (string_of_int p))
       in
       Gen.add_open gen ~party:p ~arrival ~until:duration ~submit:(submit p)
     done
   | Closed_loop per_party ->
     for p = 0 to n - 1 do
       for _ = 1 to per_party do
         Gen.add_closed gen ~party:p ~think:0.0 ~until:duration
           ~submit:(submit p)
       done
     done);
  ignore (Cluster.run c ~until:duration);
  (gen, chans)

(* One measurement run, summarized at party 0. *)
let run_point ~(seed : string) ~(dealer : Dealer.t) ~(cfg : Config.t)
    ~(duration : float) (shape : load_shape) : point * int =
  let gen, chans = drive ~seed ~dealer ~cfg ~duration shape in
  let delivered = Atomic_channel.deliveries chans.(0) in
  let rounds = Atomic_channel.rounds_completed chans.(0) in
  let lats = Array.of_list (Gen.latencies gen) in
  Array.sort compare lats;
  let mean =
    if Array.length lats = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int (Array.length lats)
  in
  let throughput = float_of_int delivered /. duration in
  (* Closed-loop offered load is the achieved throughput. *)
  let offered =
    match shape with Open_loop rate -> rate | Closed_loop _ -> throughput
  in
  ( {
      offered_per_s = offered;
      issued = Gen.issued gen;
      completed = Gen.completed gen;
      delivered;
      throughput_per_s = throughput;
      latency_mean_s = mean;
      latency_p50_s = quantile lats 0.5;
      latency_p90_s = quantile lats 0.9;
    },
    rounds )

let seed = "throughput"

(* Enough closed-loop clients per party that the pipelined, batched channel
   saturates on round cost rather than on the population bound. *)
let clients_per_party = 64

let run_series ~(dealer : Dealer.t) ~(n : int) ~(t : int) ~(batched : bool)
    ~(duration : float) ~(rates : float list) : series =
  (* The unbatched series is the pre-batching baseline: one payload per
     party per round AND one round in flight at a time. *)
  let cfg =
    if batched then sweep_cfg ~n ~t ~max_batch:256 ()
    else sweep_cfg ~n ~t ~max_batch:1 ~pipeline_depth:1 ()
  in
  let mode = if batched then "batched" else "unbatched" in
  let points =
    List.map
      (fun rate ->
        let p, _ =
          run_point
            ~seed:(Printf.sprintf "%s|n%d|%s|open%.3f" seed n mode rate)
            ~dealer ~cfg ~duration (Open_loop rate)
        in
        p)
      rates
  in
  let saturation, rounds =
    run_point
      ~seed:(Printf.sprintf "%s|n%d|%s|closed" seed n mode)
      ~dealer ~cfg ~duration (Closed_loop clients_per_party)
  in
  { n; t; batched; points; saturation; rounds }

let run ?(smoke = false) () : report =
  let sizes = if smoke then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3) ] in
  let duration = if smoke then 2.0 else 10.0 in
  let rates = if smoke then [ 20.0 ] else [ 5.0; 10.0; 20.0; 40.0; 80.0 ] in
  let series =
    List.concat_map
      (fun (n, t) ->
        let dealer = deal (sweep_cfg ~n ~t ~max_batch:256 ()) in
        List.map
          (fun batched -> run_series ~dealer ~n ~t ~batched ~duration ~rates)
          [ true; false ])
      sizes
  in
  { smoke; duration_s = duration; series }

let saturation_throughput (r : report) ~(n : int) ~(batched : bool) :
    float option =
  List.find_map
    (fun s ->
      if s.n = n && s.batched = batched then Some s.saturation.throughput_per_s
      else None)
    r.series

(* --- JSON rendering (the throughput artifact) --- *)

let json_point (p : point) : string =
  Printf.sprintf
    "{\"offered_per_s\":%.6g,\"issued\":%d,\"completed\":%d,\"delivered\":%d,\
     \"throughput_per_s\":%.6g,\"latency_mean_s\":%.6g,\"latency_p50_s\":%.6g,\
     \"latency_p90_s\":%.6g}"
    p.offered_per_s p.issued p.completed p.delivered p.throughput_per_s
    p.latency_mean_s p.latency_p50_s p.latency_p90_s

let json_series (s : series) : string =
  Printf.sprintf
    "{\"n\":%d,\"t\":%d,\"mode\":%S,\"points\":[%s],\"saturation\":%s,\
     \"rounds\":%d}"
    s.n s.t
    (if s.batched then "batched" else "unbatched")
    (String.concat "," (List.map json_point s.points))
    (json_point s.saturation) s.rounds

let to_json (r : report) : string =
  let crossover =
    match r.series with
    | [] -> "null"
    | first :: _ ->
      let n = first.n in
      (match
         ( saturation_throughput r ~n ~batched:true,
           saturation_throughput r ~n ~batched:false )
       with
       | Some b, Some u when u > 0.0 ->
         Printf.sprintf
           "{\"n\":%d,\"batched_saturation_per_s\":%.6g,\
            \"unbatched_saturation_per_s\":%.6g,\"ratio\":%.6g}"
           n b u (b /. u)
       | _ -> "null")
  in
  Artifact.render ~name:"throughput" ~seed ~smoke:r.smoke
    [ ("duration_s", Printf.sprintf "%.6g" r.duration_s);
      ("series", Artifact.rows (List.map json_series r.series));
      ("crossover", crossover) ]
