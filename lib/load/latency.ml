(* The latency-attribution bench: open-loop atomic broadcast at several
   offered loads, traced end to end, with each point's completion-latency
   percentiles and a critical-path phase breakdown from the causal DAG.

   Unlike the throughput sweep, every run here collects its own trace (an
   in-memory Fn sink) and feeds it through [Trace.Causal.analyze]; the
   reported percentiles are over per-payload enqueue→deliver latencies —
   the same intervals the phase buckets tile — so the attribution explains
   exactly the latency being reported.  Everything derives from virtual
   time and the run seed: the rendered JSON is byte-deterministic. *)

open Sintra

type point = {
  offered_per_s : float;
  issued : int;
  completed : int;
  payloads : int;
  latency_p50_s : float;
  latency_p90_s : float;
  latency_p99_s : float;
  hops_mean : float;
  phases_s : (string * float) list;
  stages_s : (string * float) list;
  unattributed_s : float;
  coverage : float;
}

type report = {
  smoke : bool;
  seed : string;
  n : int;
  t : int;
  duration_s : float;
  points : point list;
}

(* One traced measurement run at a fixed offered rate. *)
let run_point ~(seed : string) ~(dealer : Dealer.t) ~(cfg : Config.t)
    ~(duration : float) ~(rate : float) : point =
  let n = cfg.Config.n in
  let c = Sweep.make_cluster ~seed ~dealer cfg in
  let events = ref [] in
  Sim.Engine.set_sink c.Cluster.engine
    (Trace.Sink.Fn (fun e -> events := e :: !events));
  let gen =
    Gen.create ~ctx_of:(Sim.Net.trace_ctx c.Cluster.net) ~engine:c.Cluster.engine
      ()
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
  let drbg = Hashes.Drbg.create ~seed:("latency-arrivals|" ^ seed) in
  for p = 0 to n - 1 do
    let arrival =
      Arrival.poisson ~rate:(rate /. float_of_int n)
        (Hashes.Drbg.fork drbg (string_of_int p))
    in
    Gen.add_open gen ~party:p ~arrival ~until:duration ~submit:(submit p)
  done;
  ignore (Cluster.run c ~until:duration);
  let rep = Trace.Causal.analyze (List.rev !events) in
  let totals =
    Array.of_list (List.map (fun p -> p.Trace.Causal.p_total) rep.Trace.Causal.r_payloads)
  in
  Array.sort Float.compare totals;
  let payloads = Array.length totals in
  let hops_mean =
    if payloads = 0 then 0.0
    else
      float_of_int
        (List.fold_left
           (fun acc p -> acc + p.Trace.Causal.p_hops)
           0 rep.Trace.Causal.r_payloads)
      /. float_of_int payloads
  in
  {
    offered_per_s = rate;
    issued = Gen.issued gen;
    completed = Gen.completed gen;
    payloads;
    latency_p50_s = Sweep.quantile totals 0.5;
    latency_p90_s = Sweep.quantile totals 0.9;
    latency_p99_s = Sweep.quantile totals 0.99;
    hops_mean;
    phases_s = Trace.Causal.phases_fields rep.Trace.Causal.r_phases;
    stages_s = rep.Trace.Causal.r_stages;
    unattributed_s = rep.Trace.Causal.r_unattributed;
    coverage = rep.Trace.Causal.r_coverage;
  }

let run ?(smoke = false) ?rates ?(seed = "latency") () : report =
  let n = 4 and t = 1 in
  let duration = if smoke then 1.0 else 8.0 in
  let rates =
    match rates with
    | Some r -> r
    | None -> if smoke then [ 10.0; 20.0; 40.0 ] else [ 5.0; 10.0; 20.0; 40.0; 80.0 ]
  in
  let cfg = Sweep.sweep_cfg ~n ~t ~max_batch:256 () in
  let dealer = Sweep.deal cfg in
  let points =
    List.map
      (fun rate ->
        run_point
          ~seed:(Printf.sprintf "%s|n%d|open%.3f" seed n rate)
          ~dealer ~cfg ~duration ~rate)
      rates
  in
  { smoke; seed; n; t; duration_s = duration; points }

(* --- JSON rendering (the latency artifact) --- *)

let json_fields (fields : (string * float) list) : string
    =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%S:%.6g" k v) fields)

let json_point (p : point) : string =
  Printf.sprintf
    "{\"offered_per_s\":%.6g,\"issued\":%d,\"completed\":%d,\"payloads\":%d,\
     \"latency_p50_s\":%.6g,\"latency_p90_s\":%.6g,\"latency_p99_s\":%.6g,\
     \"hops_mean\":%.6g,\"phases_s\":{%s},\"stages_s\":{%s},\
     \"unattributed_s\":%.6g,\"coverage\":%.6g}"
    p.offered_per_s p.issued p.completed p.payloads p.latency_p50_s
    p.latency_p90_s p.latency_p99_s p.hops_mean
    (json_fields p.phases_s)
    (json_fields p.stages_s)
    p.unattributed_s p.coverage

let to_json (r : report) : string =
  Artifact.render ~name:"latency" ~seed:r.seed ~smoke:r.smoke
    [ ("n", string_of_int r.n);
      ("t", string_of_int r.t);
      ("duration_s", Printf.sprintf "%.6g" r.duration_s);
      ("points", Artifact.rows (List.map json_point r.points)) ]
